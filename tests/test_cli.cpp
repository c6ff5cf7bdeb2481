#include "cli/cli.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <sstream>

#include "io/json.h"
#include "io/model_json.h"

namespace asilkit::cli {
namespace {

struct CliRun {
    int exit_code;
    std::string out;
    std::string err;
};

CliRun run(std::vector<std::string> args) {
    std::ostringstream out;
    std::ostringstream err;
    const int code = run_cli(args, out, err);
    return {code, out.str(), err.str()};
}

// Unique per test case: ctest runs each gtest case as its own process,
// and concurrent processes must not collide on scratch files.  Outside a
// test body (suite set-up) the pid disambiguates instead.
std::string temp_path(const std::string& name) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string prefix = info != nullptr ? std::string(info->name())
                                               : "pid" + std::to_string(::getpid());
    return ::testing::TempDir() + "/" + prefix + "_" + name;
}

/// Writes the fig3 demo model once for the read-only commands.
class CliTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        model_path_ = new std::string(temp_path("cli_fig3.json"));
        ASSERT_EQ(run({"demo", "fig3", "-o", *model_path_}).exit_code, 0);
    }
    static void TearDownTestSuite() {
        delete model_path_;
        model_path_ = nullptr;
    }
    static const std::string& model() { return *model_path_; }

private:
    static std::string* model_path_;
};

std::string* CliTest::model_path_ = nullptr;

TEST_F(CliTest, NoArgsPrintsUsageAndFails) {
    const CliRun r = run({});
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST_F(CliTest, HelpSucceeds) {
    const CliRun r = run({"analyze", "--help"});
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
    const CliRun r = run({"frobnicate"});
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, MissingFileReportsError) {
    const CliRun r = run({"analyze", "/nonexistent/model.json"});
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST_F(CliTest, DemoWritesLoadableModel) {
    const std::string path = temp_path("cli_demo_longitudinal.json");
    const CliRun r = run({"demo", "longitudinal", "-o", path});
    EXPECT_EQ(r.exit_code, 0);
    const ArchitectureModel m = io::load_model(path);
    EXPECT_EQ(m.name(), "ecotwin-longitudinal-control");
}

TEST_F(CliTest, DemoUnknownScenarioFails) {
    const CliRun r = run({"demo", "warpdrive", "-o", temp_path("x.json")});
    EXPECT_EQ(r.exit_code, 1);
}

TEST_F(CliTest, ValidateCleanModel) {
    const CliRun r = run({"validate", model()});
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.out.find("0 errors"), std::string::npos);
}

/// `base` (the fig3 model) plus one unplaced resource: a warning, but no
/// error.
std::string write_warning_model(const std::string& base, const std::string& path) {
    ArchitectureModel m = io::load_model(base);
    m.add_resource({"spare", ResourceKind::Functional, Asil::B, {}, {}});
    io::save_model(m, path);
    return path;
}

/// `base` plus one unmapped application node: a structural error.
std::string write_error_model(const std::string& base, const std::string& path) {
    ArchitectureModel m = io::load_model(base);
    m.add_app_node({"orphan", NodeKind::Functional, AsilTag{Asil::B}, {}});
    io::save_model(m, path);
    return path;
}

TEST_F(CliTest, ValidateWarningsPassWithoutStrict) {
    const std::string path = write_warning_model(model(), temp_path("warn.json"));
    const CliRun r = run({"validate", path});
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.out.find("1 warnings"), std::string::npos);
}

TEST_F(CliTest, ValidateStrictPromotesWarnings) {
    const std::string path = write_warning_model(model(), temp_path("warn.json"));
    const CliRun r = run({"validate", path, "--strict"});
    EXPECT_EQ(r.exit_code, 1);
}

TEST_F(CliTest, ValidateStrictCleanModelStillPasses) {
    const CliRun r = run({"validate", model(), "--strict"});
    EXPECT_EQ(r.exit_code, 0);
}

TEST_F(CliTest, ValidateErrorsFailWithoutStrict) {
    const std::string path = write_error_model(model(), temp_path("err.json"));
    const CliRun r = run({"validate", path});
    EXPECT_EQ(r.exit_code, 1);
}

TEST_F(CliTest, LintCleanModelExitsZero) {
    const CliRun r = run({"lint", model()});
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.out.find("0 errors, 0 warnings, 0 notes"), std::string::npos);
}

TEST_F(CliTest, LintWarningsExitThree) {
    const std::string path = write_warning_model(model(), temp_path("warn.json"));
    const CliRun r = run({"lint", path});
    EXPECT_EQ(r.exit_code, 3);
    EXPECT_NE(r.out.find("map.unplaced-resource"), std::string::npos);
}

TEST_F(CliTest, LintErrorsExitFour) {
    const std::string path = write_error_model(model(), temp_path("err.json"));
    const CliRun r = run({"lint", path});
    EXPECT_EQ(r.exit_code, 4);
    EXPECT_NE(r.out.find("map.unmapped-node"), std::string::npos);
}

TEST_F(CliTest, LintJsonFormat) {
    const std::string path = write_warning_model(model(), temp_path("warn.json"));
    const CliRun r = run({"lint", path, "--format", "json"});
    EXPECT_EQ(r.exit_code, 3);
    EXPECT_NE(r.out.find("\"diagnostics\""), std::string::npos);
    EXPECT_NE(r.out.find("\"map.unplaced-resource\""), std::string::npos);
}

TEST_F(CliTest, LintSarifToFile) {
    const std::string report_path = temp_path("report.sarif");
    const CliRun r = run({"lint", model(), "--format", "sarif", "-o", report_path});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    std::ifstream in(report_path);
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("sarif-schema-2.1.0.json"), std::string::npos);
    EXPECT_NE(content.str().find("\"version\": \"2.1.0\""), std::string::npos);
}

TEST_F(CliTest, LintRulesConfigSilencesWarning) {
    const std::string path = write_warning_model(model(), temp_path("warn.json"));
    const std::string config = temp_path("rules.json");
    std::ofstream(config) << R"({"rules": {"map.unplaced-resource": "off"}})";
    const CliRun r = run({"lint", path, "--rules", config});
    EXPECT_EQ(r.exit_code, 0) << r.out;
}

TEST_F(CliTest, LintUnknownRuleInConfigFails) {
    const std::string config = temp_path("bad_rules.json");
    std::ofstream(config) << R"({"rules": {"map.tpyo": "off"}})";
    const CliRun r = run({"lint", model(), "--rules", config});
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("unknown rule"), std::string::npos);
}

TEST_F(CliTest, LintBadFormatFails) {
    const CliRun r = run({"lint", model(), "--format", "xml"});
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("format"), std::string::npos);
}

TEST_F(CliTest, AnalyzeReportsProbabilityAndCost) {
    const CliRun r = run({"analyze", model()});
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.out.find("P(system failure)"), std::string::npos);
    EXPECT_NE(r.out.find("cost"), std::string::npos);
    EXPECT_NE(r.out.find("2.08"), std::string::npos);  // ~2.08e-7
}

TEST_F(CliTest, AnalyzeApproximateAndHours) {
    const CliRun r = run({"analyze", model(), "--approximate", "--hours", "100"});
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.out.find("approximated blocks: 1"), std::string::npos);
    EXPECT_NE(r.out.find("over 100 h"), std::string::npos);
}

TEST_F(CliTest, AnalyzeRejectsBadMetric) {
    const CliRun r = run({"analyze", model(), "--metric", "9"});
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("metric"), std::string::npos);
}

TEST_F(CliTest, CcfCleanModelExitsZero) {
    const CliRun r = run({"ccf", model()});
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.out.find("independent"), std::string::npos);
}

TEST_F(CliTest, CcfBrokenModelExitsOne) {
    const std::string path = temp_path("cli_fig3_ccf.json");
    ASSERT_EQ(run({"demo", "fig3-ccf", "-o", path}).exit_code, 0);
    const CliRun r = run({"ccf", path});
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.out.find("shared-resource"), std::string::npos);
}

TEST_F(CliTest, ToleranceListsSpofs) {
    const CliRun r = run({"tolerance", model(), "--max-order", "2"});
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.out.find("minimal cut order : 1"), std::string::npos);
    EXPECT_NE(r.out.find("res:camera_hw"), std::string::npos);
}

TEST_F(CliTest, AdviseRanksExpansions) {
    const CliRun r = run({"advise", model()});
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.out.find("expand("), std::string::npos);
}

TEST_F(CliTest, ExpandWritesTransformedModel) {
    const std::string eco = temp_path("cli_eco.json");
    ASSERT_EQ(run({"demo", "ecotwin", "-o", eco}).exit_code, 0);
    const std::string out_path = temp_path("cli_eco_expanded.json");
    const CliRun r =
        run({"expand", eco, "--node", "world_model", "--strategy", "AC", "-o", out_path});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const ArchitectureModel m = io::load_model(out_path);
    EXPECT_FALSE(m.find_app_node("world_model").valid());
    EXPECT_TRUE(m.find_app_node("world_model_1").valid());
    EXPECT_EQ(m.app().node(m.find_app_node("world_model_1")).asil,
              (AsilTag{Asil::C, Asil::D}));
}

TEST_F(CliTest, ExpandUnknownNodeFails) {
    const CliRun r = run({"expand", model(), "--node", "nope", "-o", temp_path("x.json")});
    EXPECT_EQ(r.exit_code, 1);
}

TEST_F(CliTest, ConnectAllAfterExpansions) {
    const std::string eco = temp_path("cli_eco2.json");
    ASSERT_EQ(run({"demo", "ecotwin", "-o", eco}).exit_code, 0);
    const std::string e1 = temp_path("cli_eco2_e1.json");
    ASSERT_EQ(run({"expand", eco, "--node", "wm_eth", "-o", e1}).exit_code, 0);
    const std::string e2 = temp_path("cli_eco2_e2.json");
    ASSERT_EQ(run({"expand", e1, "--node", "wm_can", "-o", e2}).exit_code, 0);
    const std::string connected = temp_path("cli_eco2_connected.json");
    const CliRun r = run({"connect", e2, "--all", "-o", connected});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_NE(r.out.find("performed 1 connect"), std::string::npos);
}

TEST_F(CliTest, ReduceWritesModel) {
    const std::string out_path = temp_path("cli_fig3_reduced.json");
    const CliRun r = run({"reduce", model(), "-o", out_path});
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NO_THROW((void)io::load_model(out_path));
}

TEST_F(CliTest, ExploreProducesCurveAndCsv) {
    const std::string eco = temp_path("cli_eco3.json");
    ASSERT_EQ(run({"demo", "ecotwin", "-o", eco}).exit_code, 0);
    const std::string csv = temp_path("cli_curve.csv");
    const std::string final_model = temp_path("cli_final.json");
    const CliRun r = run({"explore", eco, "--nodes", "wm_eth,wm_can,lateral_control", "--csv",
                          csv, "-o", final_model});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_NE(r.out.find("initial:"), std::string::npos);
    EXPECT_NE(r.out.find("mapping-optimized"), std::string::npos);
    std::ifstream csv_in(csv);
    std::string header;
    std::getline(csv_in, header);
    EXPECT_EQ(header, "label,cost,failure_probability");
    EXPECT_NO_THROW((void)io::load_model(final_model));
}

TEST_F(CliTest, ExportEveryLayer) {
    for (const std::string layer : {"app", "resources", "physical", "ftree"}) {
        const std::string path = temp_path("cli_" + layer + ".dot");
        const CliRun r = run({"export", model(), "--layer", layer, "-o", path});
        EXPECT_EQ(r.exit_code, 0) << layer << ": " << r.err;
        std::ifstream in(path);
        std::string first_line;
        std::getline(in, first_line);
        EXPECT_NE(first_line.find("graph"), std::string::npos) << layer;
    }
}

TEST_F(CliTest, ExportUnknownLayerFails) {
    const CliRun r = run({"export", model(), "--layer", "warp", "-o", temp_path("x.dot")});
    EXPECT_EQ(r.exit_code, 1);
}


TEST_F(CliTest, TraceReportsRequirements) {
    const std::string eco = temp_path("cli_trace_eco.json");
    ASSERT_EQ(run({"demo", "ecotwin", "-o", eco}).exit_code, 0);
    const CliRun r = run({"trace", eco});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_NE(r.out.find("FSR-LAT-01"), std::string::npos);
    EXPECT_NE(r.out.find("[satisfied]"), std::string::npos);
}

TEST_F(CliTest, TraceFlagsViolations) {
    // fig3 has no FSR tags: trivially satisfied (no requirements), exit 0.
    const CliRun r = run({"trace", model()});
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.out.find("without an FSR"), std::string::npos);
}

TEST_F(CliTest, FmeaRanksResources) {
    const CliRun r = run({"fmea", model()});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_NE(r.out.find("camera_hw"), std::string::npos);
    EXPECT_NE(r.out.find("[SPOF]"), std::string::npos);
    // Sensors first (highest Fussell-Vesely).
    EXPECT_LT(r.out.find("camera_hw"), r.out.find("ecu1"));
}


TEST_F(CliTest, DiffReportsTransformationFootprint) {
    const std::string eco = temp_path("cli_diff_eco.json");
    ASSERT_EQ(run({"demo", "ecotwin", "-o", eco}).exit_code, 0);
    const std::string expanded = temp_path("cli_diff_expanded.json");
    ASSERT_EQ(run({"expand", eco, "--node", "world_model", "-o", expanded}).exit_code, 0);
    const CliRun r = run({"diff", eco, expanded});
    EXPECT_EQ(r.exit_code, 1);  // differences found
    EXPECT_NE(r.out.find("- world_model"), std::string::npos);
    EXPECT_NE(r.out.find("+ world_model_1"), std::string::npos);
    const CliRun same = run({"diff", eco, eco});
    EXPECT_EQ(same.exit_code, 0);
    EXPECT_NE(same.out.find("no differences"), std::string::npos);
}

TEST_F(CliTest, ExportGraphml) {
    const std::string path = temp_path("cli_app.graphml");
    const CliRun r = run({"export", model(), "--layer", "app", "--format", "graphml", "-o", path});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    std::ifstream in(path);
    std::string first_line;
    std::getline(in, first_line);
    EXPECT_NE(first_line.find("<?xml"), std::string::npos);
    const CliRun bad = run({"export", model(), "--layer", "ftree", "--format", "graphml", "-o",
                            temp_path("x.graphml")});
    EXPECT_EQ(bad.exit_code, 1);
}

TEST_F(CliTest, StatsPrintsMetricCatalogue) {
    const CliRun r = run({"stats", model()});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_NE(r.out.find("P(system failure)"), std::string::npos);
    // The analysis populated all pipeline layers of the registry.
    for (const char* id : {"engine.analyze_calls", "ftree.trees_built", "bdd.apply_lookups",
                           "bdd.node_high_water", "engine.analyze_ns"}) {
        EXPECT_NE(r.out.find(id), std::string::npos) << id;
    }
}

TEST_F(CliTest, StatsJsonFormat) {
    const CliRun r = run({"stats", model(), "--format", "json"});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_NE(r.out.find("\"counters\""), std::string::npos);
    EXPECT_NE(r.out.find("\"engine.analyze_calls\""), std::string::npos);
}

// `stats` with no model never analyzes: it dumps whatever the registry
// holds — possibly nothing — as a well-formed document and exits 0.
// Plain TESTs (not TEST_F) so the fixture's demo run can't populate the
// registry first when a case runs in its own ctest process.
TEST(StatsEmptyRegistry, TextExitsZero) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(run_cli({"stats"}, out, err), 0) << err.str();
}

TEST(StatsEmptyRegistry, JsonIsWellFormed) {
    std::ostringstream out;
    std::ostringstream err;
    ASSERT_EQ(run_cli({"stats", "--format", "json"}, out, err), 0) << err.str();
    const io::Json doc = io::Json::parse(out.str());
    EXPECT_TRUE(doc.at("counters").is_object());
    EXPECT_TRUE(doc.at("gauges").is_object());
    EXPECT_TRUE(doc.at("histograms").is_object());
}

TEST_F(CliTest, StatsProfilePrintsHotSpans) {
    const CliRun r = run({"stats", model(), "--profile"});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    // The profile replaces the metrics document and names the analysis
    // pipeline's spans.
    EXPECT_NE(r.out.find("analyze"), std::string::npos);
    EXPECT_NE(r.out.find("evaluate_module"), std::string::npos);
    EXPECT_NE(r.out.find("edges:"), std::string::npos);
    EXPECT_EQ(r.out.find("engine.analyze_calls"), std::string::npos);
}

TEST_F(CliTest, StatsProfileOutWritesFoldedStacks) {
    const std::string folded = temp_path("cli_profile.folded");
    const CliRun r = run({"stats", model(), "--profile-out", folded});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    std::ifstream in(folded);
    ASSERT_TRUE(in.good());
    std::size_t lines = 0;
    for (std::string line; std::getline(in, line); ++lines) {
        // Brendan Gregg folded format: "root;child;leaf <self_ns>".
        const std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_EQ(line.find_first_not_of("0123456789", space + 1), std::string::npos)
            << line;
    }
    EXPECT_GT(lines, 0u);
}

TEST_F(CliTest, StatsProfileUnknownFormatFails) {
    const CliRun r = run({"stats", model(), "--profile", "--profile-format", "bogus"});
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("profile format"), std::string::npos);
}

TEST_F(CliTest, TraceAndMetricsOptionsWriteFiles) {
    const std::string trace = temp_path("cli_trace.json");
    const std::string metrics = temp_path("cli_metrics.json");
    const CliRun r = run({"analyze", model(), "--trace", trace, "--metrics", metrics});
    EXPECT_EQ(r.exit_code, 0) << r.err;

    std::ifstream trace_in(trace);
    ASSERT_TRUE(trace_in.good());
    std::stringstream trace_buf;
    trace_buf << trace_in.rdbuf();
    const std::string t = trace_buf.str();
    EXPECT_NE(t.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(t.find("\"ph\":\"B\""), std::string::npos);
    // `analyze` runs through the engine: fault-tree generation is the
    // incremental builder's "assemble" span.
    EXPECT_NE(t.find("\"assemble\""), std::string::npos);

    std::ifstream metrics_in(metrics);
    ASSERT_TRUE(metrics_in.good());
    std::stringstream metrics_buf;
    metrics_buf << metrics_in.rdbuf();
    EXPECT_NE(metrics_buf.str().find("\"ftree.trees_built\""), std::string::npos);
}

TEST_F(CliTest, ExploreTraceCoversAllLayers) {
    const std::string eco = temp_path("cli_eco_trace_model.json");
    ASSERT_EQ(run({"demo", "ecotwin", "-o", eco}).exit_code, 0);
    const std::string trace = temp_path("cli_explore_trace.json");
    const CliRun r =
        run({"explore", eco, "--nodes", "wm_eth,wm_can,lateral_control", "--trace", trace});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    std::ifstream in(trace);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string t = buf.str();
    for (const char* cat : {"\"cat\":\"explore\"", "\"cat\":\"engine\"", "\"cat\":\"ftree\"",
                            "\"cat\":\"bdd\""}) {
        EXPECT_NE(t.find(cat), std::string::npos) << cat;
    }
}

TEST_F(CliTest, SearchOptimizesAndStreamsFront) {
    const std::string eco = temp_path("cli_search_model.json");
    ASSERT_EQ(run({"demo", "ecotwin", "-o", eco}).exit_code, 0);
    const std::string front = temp_path("cli_search_front.ndjson");
    const std::string optimized = temp_path("cli_search_out.json");
    const CliRun r = run({"search", eco, "--approximate", "--stream-front", front, "-o",
                          optimized});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_NE(r.out.find("merges"), std::string::npos);
    EXPECT_NE(r.out.find("front stream written to"), std::string::npos);
    // The stream is NDJSON: one complete JSON object per line, the first
    // being the initial state.
    std::ifstream in(front);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        const io::Json parsed = io::Json::parse(line);
        EXPECT_TRUE(parsed.is_object());
        EXPECT_TRUE(parsed.contains("cost"));
        EXPECT_TRUE(parsed.contains("failure_probability"));
        EXPECT_TRUE(parsed.contains("front_size"));
        if (lines == 0) {
            EXPECT_EQ(parsed.at("label").as_string(), "initial");
        }
        ++lines;
    }
    EXPECT_GE(lines, 1u);
    EXPECT_NO_THROW((void)io::load_model(optimized));
}

TEST_F(CliTest, ExploreStreamsFront) {
    const std::string eco = temp_path("cli_explore_front_model.json");
    ASSERT_EQ(run({"demo", "ecotwin", "-o", eco}).exit_code, 0);
    const std::string front = temp_path("cli_explore_front.ndjson");
    const CliRun r =
        run({"explore", eco, "--nodes", "wm_eth,wm_can", "--stream-front", front});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    std::ifstream in(front);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        EXPECT_TRUE(io::Json::parse(line).is_object());
        ++lines;
    }
    EXPECT_GE(lines, 1u);
}

TEST_F(CliTest, SimulateReportsEstimateAndInterval) {
    const CliRun r = run({"simulate", model(), "--trials", "20000", "--seed", "7",
                          "--rate-scale", "1e6"});
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.out.find("P(system failure)"), std::string::npos);
    EXPECT_NE(r.out.find("95% CI"), std::string::npos);
    EXPECT_NE(r.out.find("effective samples"), std::string::npos);
}

TEST_F(CliTest, SimulateJsonHasEstimatorFields) {
    const CliRun r = run({"simulate", model(), "--trials", "10000", "--format", "json"});
    EXPECT_EQ(r.exit_code, 0);
    const io::Json doc = io::Json::parse(r.out);
    EXPECT_TRUE(doc.contains("estimate"));
    EXPECT_TRUE(doc.contains("ci95_high"));
    EXPECT_TRUE(doc.contains("ess"));
    EXPECT_EQ(doc.at("trials").as_number(), 10000.0);
    EXPECT_FALSE(doc.at("importance_sampled").as_bool());
}

TEST_F(CliTest, SimulateImportanceSamplingAtRealRates) {
    // Unscaled automotive rates: the plain estimator would see ~0
    // failures in 20k trials; the --is proposal must still resolve a
    // positive estimate.
    const CliRun r = run({"simulate", model(), "--trials", "20000", "--is",
                          "--format", "json"});
    EXPECT_EQ(r.exit_code, 0);
    const io::Json doc = io::Json::parse(r.out);
    EXPECT_TRUE(doc.at("importance_sampled").as_bool());
    EXPECT_GT(doc.at("estimate").as_number(), 0.0);
    EXPECT_LT(doc.at("estimate").as_number(), 1e-4);
}

TEST_F(CliTest, SimulateNaiveEngineAndBadEngine) {
    EXPECT_EQ(run({"simulate", model(), "--trials", "1000", "--engine", "naive"}).exit_code, 0);
    const CliRun bad = run({"simulate", model(), "--engine", "warp"});
    EXPECT_EQ(bad.exit_code, 1);
    EXPECT_NE(bad.err.find("unknown engine"), std::string::npos);
}

TEST_F(CliTest, OptionNeedingValueAtEndFails) {
    const CliRun r = run({"analyze", model(), "--hours"});
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("needs a value"), std::string::npos);
}

// Option errors: every option comes from one declared table, and a bad
// one fails the run (exit 1) with a message naming the option and the
// offending value, before any command starts.
TEST_F(CliTest, UnknownOptionFails) {
    const CliRun r = run({"analyze", model(), "--no-such-option", "x"});
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_EQ(r.out, "");
    EXPECT_EQ(r.err, "error: io error: unknown option --no-such-option\n");
}

TEST_F(CliTest, IntegerOptionRejectsSign) {
    for (const char* value : {"-5", "+5"}) {
        const CliRun r = run({"simulate", model(), "--trials", value});
        EXPECT_EQ(r.exit_code, 1) << value;
        EXPECT_EQ(r.err, "error: io error: option --trials expects a non-negative integer, got '" +
                             std::string(value) + "'\n");
    }
}

TEST_F(CliTest, IntegerOptionRejectsTrailingText) {
    for (const char* value : {"abc", "12abc", "1.5", ""}) {
        const CliRun r = run({"simulate", model(), "--trials", value});
        EXPECT_EQ(r.exit_code, 1) << value;
        EXPECT_EQ(r.err, "error: io error: option --trials expects a non-negative integer, got '" +
                             std::string(value) + "'\n");
    }
}

TEST_F(CliTest, IntegerOptionRejectsOverflow) {
    const CliRun wide = run({"simulate", model(), "--seed", "18446744073709551616"});
    EXPECT_EQ(wide.exit_code, 1);
    EXPECT_EQ(wide.err,
              "error: io error: option --seed expects an integer below 2^64, got "
              "'18446744073709551616'\n");
    // Fits 64 bits but not the 32-bit thread count it configures.
    const CliRun narrow = run({"simulate", model(), "--threads", "4294967296"});
    EXPECT_EQ(narrow.exit_code, 1);
    EXPECT_EQ(narrow.err,
              "error: io error: option --threads expects an integer up to 4294967295, got "
              "'4294967296'\n");
}

TEST_F(CliTest, RealOptionRejectsTrailingText) {
    for (const char* value : {"abc", "1.5h", "2,5"}) {
        const CliRun r = run({"analyze", model(), "--hours", value});
        EXPECT_EQ(r.exit_code, 1) << value;
        EXPECT_EQ(r.err, "error: io error: option --hours expects a finite number, got '" +
                             std::string(value) + "'\n");
    }
}

TEST_F(CliTest, RealOptionRejectsNonFinite) {
    for (const char* value : {"inf", "nan", "1e999"}) {
        const CliRun r = run({"simulate", model(), "--rate-scale", value});
        EXPECT_EQ(r.exit_code, 1) << value;
        EXPECT_EQ(r.err, "error: io error: option --rate-scale expects a finite number, got '" +
                             std::string(value) + "'\n");
    }
}

TEST_F(CliTest, NumericOptionsStillParse) {
    const CliRun r = run({"simulate", model(), "--trials", "4096", "--seed", "18446744073709551615",
                          "--rate-scale", "1e6", "--hours", "0.25e1", "--format", "json"});
    ASSERT_EQ(r.exit_code, 0) << r.err;
    const io::Json doc = io::Json::parse(r.out);
    EXPECT_EQ(doc.at("trials").as_number(), 4096.0);
    EXPECT_EQ(doc.at("mission_hours").as_number(), 2.5);
    EXPECT_EQ(doc.at("rate_scale").as_number(), 1e6);
}

TEST_F(CliTest, StatsUnknownFormatFails) {
    const CliRun r = run({"stats", model(), "--format", "yaml"});
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("unknown format 'yaml' (expected text or json)"),
              std::string::npos)
        << r.err;
}

TEST_F(CliTest, DeeplyNestedModelFailsWithNamedError) {
    const std::string path = temp_path("cli_nested.json");
    {
        std::ofstream nested(path);
        nested << std::string(200000, '[');
    }
    const CliRun r = run({"analyze", path});
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("line 1, column 2049: nesting deeper than 2048"), std::string::npos)
        << r.err;
}

}  // namespace
}  // namespace asilkit::cli
