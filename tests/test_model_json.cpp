#include "io/model_json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "analysis/probability.h"
#include "cost/cost_analysis.h"
#include "helpers.h"
#include "model/validation.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/longitudinal.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

namespace asilkit::io {
namespace {

/// Semantic equality: same names/kinds/levels/edges/mappings (ids may be
/// renumbered by the round trip).
void expect_equivalent(const ArchitectureModel& a, const ArchitectureModel& b) {
    EXPECT_EQ(a.name(), b.name());
    ASSERT_EQ(a.app().node_count(), b.app().node_count());
    ASSERT_EQ(a.app().edge_count(), b.app().edge_count());
    ASSERT_EQ(a.resources().node_count(), b.resources().node_count());
    ASSERT_EQ(a.physical().node_count(), b.physical().node_count());

    for (NodeId na : a.app().node_ids()) {
        const AppNode& node_a = a.app().node(na);
        const NodeId nb = b.find_app_node(node_a.name);
        ASSERT_TRUE(nb.valid()) << node_a.name;
        const AppNode& node_b = b.app().node(nb);
        EXPECT_EQ(node_a.kind, node_b.kind) << node_a.name;
        EXPECT_EQ(node_a.asil, node_b.asil) << node_a.name;
        // Mapped resource names match.
        std::vector<std::string> res_a;
        for (ResourceId r : a.mapped_resources(na)) res_a.push_back(a.resources().node(r).name);
        std::vector<std::string> res_b;
        for (ResourceId r : b.mapped_resources(nb)) res_b.push_back(b.resources().node(r).name);
        std::sort(res_a.begin(), res_a.end());
        std::sort(res_b.begin(), res_b.end());
        EXPECT_EQ(res_a, res_b) << node_a.name;
        // Successor names match.
        std::vector<std::string> succ_a;
        for (NodeId s : a.app().successors(na)) succ_a.push_back(a.app().node(s).name);
        std::vector<std::string> succ_b;
        for (NodeId s : b.app().successors(nb)) succ_b.push_back(b.app().node(s).name);
        std::sort(succ_a.begin(), succ_a.end());
        std::sort(succ_b.begin(), succ_b.end());
        EXPECT_EQ(succ_a, succ_b) << node_a.name;
    }
    for (ResourceId ra : a.resources().node_ids()) {
        const Resource& res_a = a.resources().node(ra);
        const ResourceId rb = b.find_resource(res_a.name);
        ASSERT_TRUE(rb.valid()) << res_a.name;
        const Resource& res_b = b.resources().node(rb);
        EXPECT_EQ(res_a.kind, res_b.kind);
        EXPECT_EQ(res_a.asil, res_b.asil);
        EXPECT_EQ(res_a.lambda_override, res_b.lambda_override);
        EXPECT_EQ(res_a.cost_override, res_b.cost_override);
        std::vector<std::string> loc_a;
        for (LocationId p : a.resource_locations(ra)) loc_a.push_back(a.physical().node(p).name);
        std::vector<std::string> loc_b;
        for (LocationId p : b.resource_locations(rb)) loc_b.push_back(b.physical().node(p).name);
        std::sort(loc_a.begin(), loc_a.end());
        std::sort(loc_b.begin(), loc_b.end());
        EXPECT_EQ(loc_a, loc_b) << res_a.name;
    }
}

TEST(ModelJson, RoundTripChain) {
    const ArchitectureModel m = scenarios::chain_1in_1out();
    expect_equivalent(m, model_from_json(to_json(m)));
}

TEST(ModelJson, RoundTripFig3) {
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    expect_equivalent(m, model_from_json(to_json(m)));
}

TEST(ModelJson, RoundTripEcotwinWithOverrides) {
    // EcoTwin uses lambda/cost overrides (virtual elements) and
    // environments; all must survive.
    const ArchitectureModel m = scenarios::ecotwin_lateral_control();
    expect_equivalent(m, model_from_json(to_json(m)));
}

TEST(ModelJson, RoundTripAfterTransformations) {
    // Erasures leave id holes; the export must renumber densely.
    ArchitectureModel m = scenarios::chain_two_stages();
    transform::expand(m, m.find_app_node("n1"));
    transform::expand(m, m.find_app_node("n2"));
    expect_equivalent(m, model_from_json(to_json(m)));
}

TEST(ModelJson, AnalysesAgreeAfterRoundTrip) {
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    const ArchitectureModel reloaded = model_from_json(to_json(m));
    EXPECT_DOUBLE_EQ(analysis::analyze_failure_probability(m).failure_probability,
                     analysis::analyze_failure_probability(reloaded).failure_probability);
    const auto metric = cost::CostMetric::exponential_metric1();
    EXPECT_DOUBLE_EQ(cost::total_cost(m, metric), cost::total_cost(reloaded, metric));
    EXPECT_EQ(validate(reloaded).error_count(), 0u);
}

TEST(ModelJson, EnvironmentSurvives) {
    ArchitectureModel m("env");
    Environment env;
    env.vibration_zone = 3;
    env.emi_zone = 1;
    m.add_location({"engine_bay", 2e-11, env});
    const ArchitectureModel reloaded = model_from_json(to_json(m));
    const Location& loc = reloaded.physical().node(reloaded.find_location("engine_bay"));
    EXPECT_EQ(loc.env, env);
    EXPECT_DOUBLE_EQ(loc.lambda, 2e-11);
}

TEST(ModelJson, DecomposedTagsSurvive) {
    ArchitectureModel m("tags");
    const LocationId loc = m.add_location({"zone", kDefaultLocationLambda, {}});
    m.add_node_with_dedicated_resource({"f", NodeKind::Functional, AsilTag{Asil::B, Asil::D}, {}}, loc);
    const ArchitectureModel reloaded = model_from_json(to_json(m));
    const AsilTag tag = reloaded.app().node(reloaded.find_app_node("f")).asil;
    EXPECT_EQ(tag, (AsilTag{Asil::B, Asil::D}));
}

TEST(ModelJson, GraphEdgesInAllLayersSurvive) {
    ArchitectureModel m("layers");
    const LocationId l1 = m.add_location({"l1", kDefaultLocationLambda, {}});
    const LocationId l2 = m.add_location({"l2", kDefaultLocationLambda, {}});
    m.physical().add_edge(l1, l2, {"duct"});
    const ResourceId r1 = m.add_resource({"r1", ResourceKind::Functional, Asil::B, {}, {}});
    const ResourceId r2 = m.add_resource({"r2", ResourceKind::Communication, Asil::B, {}, {}});
    m.resources().add_edge(r1, r2, {"link"});
    const ArchitectureModel reloaded = model_from_json(to_json(m));
    EXPECT_EQ(reloaded.physical().edge_count(), 1u);
    EXPECT_EQ(reloaded.resources().edge_count(), 1u);
    const auto& edge = reloaded.physical().edge(reloaded.physical().edge_ids().front());
    EXPECT_EQ(edge.data.label, "duct");
}

TEST(ModelJson, MalformedDocumentsRejected) {
    EXPECT_THROW((void)model_from_json(Json::parse(R"({"name":"x"})")), IoError);
    EXPECT_THROW(
        model_from_json(Json::parse(
            R"({"name":"x","locations":[],"resources":[{"name":"r","kind":"warp","asil":"B","locations":[]}],"nodes":[],"channels":[]})")),
        IoError);
    EXPECT_THROW(
        model_from_json(Json::parse(
            R"({"name":"x","locations":[],"resources":[],"nodes":[{"name":"n","kind":"functional","asil":"Z","resources":[]}],"channels":[]})")),
        IoError);
}

/// What model_from_json's IoError says about `doc` ("" if it accepts it).
std::string parse_error(const Json& doc) {
    try {
        (void)model_from_json(doc);
    } catch (const IoError& e) {
        return e.what();
    }
    return "";
}

TEST(ModelJson, IndexOutOfRangeIsANamedError) {
    // An index past the end used to leak std::out_of_range; a negative
    // one wrapped to 2^64 - 1 first.
    const Json fig3 = to_json(scenarios::fig3_camera_gps_fusion());
    const std::string nodes = std::to_string(fig3.at("nodes").size());
    const std::string resources = std::to_string(fig3.at("resources").size());

    Json doc = fig3;
    doc["channels"].as_array().front()["to"] = 99;
    EXPECT_EQ(parse_error(doc),
              "io error: channels.to: index 99 is out of range for " + nodes + " nodes");

    doc = fig3;
    doc["channels"].as_array().front()["from"] = -1;
    EXPECT_EQ(parse_error(doc),
              "io error: channels.from: index -1 is out of range for " + nodes + " nodes");

    doc = fig3;
    doc["nodes"].as_array().front()["resources"].as_array().front() = 1e300;
    EXPECT_EQ(parse_error(doc), "io error: nodes.resources: index 1e+300 is out of range for " +
                                    resources + " resources");

    doc = fig3;
    doc["resources"].as_array().front()["locations"].as_array().front() = 0.5;
    EXPECT_EQ(parse_error(doc), "io error: resources.locations: index 0.5 is not an integer");
}

TEST(ModelJson, NegativeRatesAreRejected) {
    // Fig. 3 used to analyse to P = -0.000500017 with this override.
    Json doc = to_json(scenarios::fig3_camera_gps_fusion());
    for (Json& res : doc["resources"].as_array()) {
        if (res.at("name").as_string() == "camera_hw") res["lambda_override"] = -5e-4;
    }
    EXPECT_EQ(parse_error(doc),
              "io error: resources.lambda_override: rate -5e-04 of 'camera_hw' is negative");

    doc = to_json(scenarios::fig3_camera_gps_fusion());
    Json& location = doc["locations"].as_array().front();
    location["lambda"] = -1e-3;
    EXPECT_EQ(parse_error(doc), "io error: locations.lambda: rate -0.001 of '" +
                                    location.at("name").as_string() + "' is negative");

    // Zero is a rate: a part that never fails.
    doc = to_json(scenarios::fig3_camera_gps_fusion());
    doc["locations"].as_array().front()["lambda"] = 0.0;
    EXPECT_EQ(parse_error(doc), "");
}

TEST(ModelJson, DuplicateResourceNamesAreRejected) {
    // Each resource is one basic event, res:<name>.  Fig. 3 with its
    // second fusion ECU renamed used to merge both ECUs into one event:
    // P rose from 2.08e-07 to 3.08e-07 while lint reported it clean.
    Json doc = to_json(scenarios::fig3_camera_gps_fusion());
    JsonArray& resources = doc["resources"].as_array();
    ASSERT_EQ(resources[10].at("name").as_string(), "ecu1");
    resources[11]["name"] = "ecu1";
    EXPECT_EQ(parse_error(doc), "io error: resources.name: 'ecu1' names resources 10 and 11");
}

TEST(ModelJson, DuplicateLocationNamesAreRejected) {
    // Each location is one basic event too, loc:<name>.
    Json doc = to_json(scenarios::fig3_camera_gps_fusion());
    JsonArray& locations = doc["locations"].as_array();
    locations[4]["name"] = locations[1].at("name").as_string();
    EXPECT_EQ(parse_error(doc), "io error: locations.name: '" +
                                    locations[1].at("name").as_string() +
                                    "' names locations 1 and 4");
}

TEST(ModelJson, EnvironmentZoneMustFitInInt) {
    // 4294967297 = 2^32 + 1 used to be narrowed to zone 1.
    Json doc = to_json(scenarios::fig3_camera_gps_fusion());
    doc["locations"].as_array().front()["env"]["temperature"] = std::int64_t{4294967297};
    EXPECT_EQ(parse_error(doc),
              "io error: locations.env.temperature: zone 4294967297 is not an int");

    doc["locations"].as_array().front()["env"]["temperature"] = -2147483648.0;
    EXPECT_EQ(parse_error(doc), "");
}

TEST(ModelJson, FileRoundTrip) {
    const std::string path = ::testing::TempDir() + "/asilkit_model_test.json";
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    save_model(m, path);
    expect_equivalent(m, load_model(path));
}

// ---- seeded mutation fuzz ---------------------------------------------------

/// The JSON text `asilkit demo` writes for each of its four models.
std::vector<std::string> demo_texts() {
    std::vector<std::string> texts;
    for (const ArchitectureModel& m :
         {scenarios::fig3_camera_gps_fusion(), scenarios::fig3_with_shared_ecu_ccf(),
          scenarios::ecotwin_lateral_control(), scenarios::ecotwin_longitudinal_control()}) {
        texts.push_back(to_json(m).dump(2) + "\n");
    }
    return texts;
}

TEST(ModelJsonFuzz, MutatedDemoModelsAnalyseOrFailWithANamedError) {
    // Hostile input never crashes, leaks a std:: exception or yields a
    // probability outside [0, 1].  Seeds 1-3000 are fixed; dozens of
    // them once leaked std::out_of_range from model_from_json (seed 11
    // splices 4294967296 over an index, seed 47 splices 2^64 - 1).
    const std::vector<std::string> texts = demo_texts();
    std::size_t analysed = 0;
    std::size_t rejected = 0;
    for (std::uint32_t seed = 1; seed <= 3000; ++seed) {
        const std::string text = testing::mutate(texts[seed % texts.size()], seed);
        try {
            const ArchitectureModel m = model_from_json(Json::parse(text));
            validate_or_throw(m);
            const double p = analysis::analyze_failure_probability(m).failure_probability;
            EXPECT_TRUE(p >= 0.0 && p <= 1.0) << "seed " << seed << ": P = " << p;
            ++analysed;
        } catch (const Error&) {
            ++rejected;
        } catch (const std::exception& e) {
            ADD_FAILURE() << "seed " << seed << ": " << e.what();
        }
    }
    // Both outcomes occur, so the mutations reach the analysis too.
    EXPECT_GT(analysed, 0u);
    EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace asilkit::io
