#include "model/validation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/error.h"
#include "explore/driver.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/longitudinal.h"
#include "scenarios/micro.h"
#include "scenarios/synthetic.h"

namespace asilkit {
namespace {

ArchitectureModel valid_chain() { return scenarios::chain_1in_1out(); }

TEST(Validation, CleanModelPasses) {
    const ValidationReport report = validate(valid_chain());
    EXPECT_TRUE(report.ok()) << report.issues.size() << " issues";
    EXPECT_NO_THROW((void)validate_or_throw(valid_chain()));
}

TEST(Validation, Fig3Passes) {
    const ValidationReport report = validate(scenarios::fig3_camera_gps_fusion());
    EXPECT_EQ(report.error_count(), 0u);
}

TEST(Validation, UnmappedNodeIsError) {
    ArchitectureModel m = valid_chain();
    const NodeId orphan = m.add_app_node({"orphan", NodeKind::Functional, AsilTag{Asil::B}, {}});
    const NodeId n = m.find_app_node("n");
    m.connect_app(n, orphan);
    m.connect_app(orphan, n);
    const ValidationReport report = validate(m);
    EXPECT_TRUE(report.has(IssueCode::UnmappedNode));
    EXPECT_GE(report.error_count(), 1u);
    EXPECT_THROW((void)validate_or_throw(m), ModelError);
}

TEST(Validation, UnderImplementedAsilIsWarning) {
    ArchitectureModel m = valid_chain();
    const NodeId n = m.find_app_node("n");
    // Downgrade the implementing resource below the requirement.
    m.resources().node(m.mapped_resources(n).front()).asil = Asil::A;
    const ValidationReport report = validate(m);
    EXPECT_TRUE(report.has(IssueCode::UnderImplementedAsil));
    EXPECT_EQ(report.error_count(), 0u);  // warning only
}

TEST(Validation, UnplacedResourceIsWarning) {
    ArchitectureModel m = valid_chain();
    m.add_resource({"spare", ResourceKind::Functional, Asil::B, {}, {}});
    const ValidationReport report = validate(m);
    EXPECT_TRUE(report.has(IssueCode::UnplacedResource));
}

TEST(Validation, SplitterDegreeChecked) {
    ArchitectureModel m = valid_chain();
    const LocationId loc = m.find_location("front");
    const NodeId s = m.add_node_with_dedicated_resource(
        {"bad_split", NodeKind::Splitter, AsilTag{Asil::D}, {}}, loc);
    m.connect_app(m.find_app_node("c_in"), s);  // 1 input, 0 outputs
    const ValidationReport report = validate(m);
    EXPECT_TRUE(report.has(IssueCode::BadSplitterDegree));
}

TEST(Validation, MergerDegreeChecked) {
    ArchitectureModel m = valid_chain();
    const LocationId loc = m.find_location("front");
    const NodeId g = m.add_node_with_dedicated_resource(
        {"bad_merge", NodeKind::Merger, AsilTag{Asil::D}, {}}, loc);
    m.connect_app(m.find_app_node("c_in"), g);
    m.connect_app(g, m.find_app_node("c_out"));  // only 1 input
    const ValidationReport report = validate(m);
    EXPECT_TRUE(report.has(IssueCode::BadMergerDegree));
}

TEST(Validation, MergerWithoutSplitterIsIllFormedBlock) {
    ArchitectureModel m("bad-block");
    const LocationId loc = m.add_location({"zone", kDefaultLocationLambda, {}});
    const NodeId s1 = m.add_node_with_dedicated_resource(
        {"s1", NodeKind::Sensor, AsilTag{Asil::B}, {}}, loc);
    const NodeId s2 = m.add_node_with_dedicated_resource(
        {"s2", NodeKind::Sensor, AsilTag{Asil::B}, {}}, loc);
    const NodeId merge = m.add_node_with_dedicated_resource(
        {"merge", NodeKind::Merger, AsilTag{Asil::D}, {}}, loc);
    const NodeId act = m.add_node_with_dedicated_resource(
        {"act", NodeKind::Actuator, AsilTag{Asil::D}, {}}, loc);
    m.connect_app(s1, merge);
    m.connect_app(s2, merge);
    m.connect_app(merge, act);
    const ValidationReport report = validate(m);
    EXPECT_TRUE(report.has(IssueCode::IllFormedBlock));
}

TEST(Validation, UnreachableActuatorWarned) {
    ArchitectureModel m = valid_chain();
    const LocationId loc = m.find_location("front");
    const NodeId lonely = m.add_node_with_dedicated_resource(
        {"lonely_act", NodeKind::Actuator, AsilTag{Asil::B}, {}}, loc);
    (void)lonely;
    const ValidationReport report = validate(m);
    EXPECT_TRUE(report.has(IssueCode::UnreachableActuator));
}

TEST(Validation, DanglingSensorWarned) {
    ArchitectureModel m = valid_chain();
    const LocationId loc = m.find_location("front");
    m.add_node_with_dedicated_resource({"lonely_sensor", NodeKind::Sensor, AsilTag{Asil::B}, {}}, loc);
    const ValidationReport report = validate(m);
    EXPECT_TRUE(report.has(IssueCode::DanglingSensor));
}

TEST(Validation, InvalidDecompositionWarned) {
    // Branches at A + A only reach B < inherited D.
    ArchitectureModel m("weak-block");
    const LocationId loc = m.add_location({"zone", kDefaultLocationLambda, {}});
    auto add = [&](const char* name, NodeKind kind, AsilTag tag) {
        return m.add_node_with_dedicated_resource({name, kind, tag, {}}, loc);
    };
    const NodeId sens = add("sens", NodeKind::Sensor, AsilTag{Asil::D});
    const NodeId split = add("split", NodeKind::Splitter, AsilTag{Asil::D});
    const NodeId b1 = add("b1", NodeKind::Functional, AsilTag{Asil::A, Asil::D});
    const NodeId b2 = add("b2", NodeKind::Functional, AsilTag{Asil::A, Asil::D});
    const NodeId merge = add("merge", NodeKind::Merger, AsilTag{Asil::D});
    const NodeId act = add("act", NodeKind::Actuator, AsilTag{Asil::D});
    m.connect_app(sens, split);
    m.connect_app(split, b1);
    m.connect_app(split, b2);
    m.connect_app(b1, merge);
    m.connect_app(b2, merge);
    m.connect_app(merge, act);
    const ValidationReport report = validate(m);
    EXPECT_TRUE(report.has(IssueCode::InvalidDecomposition));
}

TEST(Validation, CleanModelsHaveNoReachabilityOrBlockIssues) {
    // Negative coverage for the warning-level checks: a connected chain
    // and the fig3 block structure must not trip any of them.
    for (const ArchitectureModel& m : {valid_chain(), scenarios::fig3_camera_gps_fusion()}) {
        const ValidationReport report = validate(m);
        EXPECT_FALSE(report.has(IssueCode::DanglingSensor)) << m.name();
        EXPECT_FALSE(report.has(IssueCode::UnreachableActuator)) << m.name();
        EXPECT_FALSE(report.has(IssueCode::IllFormedBlock)) << m.name();
    }
}

TEST(Validation, DanglingSensorIsWarningNotError) {
    ArchitectureModel m = valid_chain();
    const LocationId loc = m.find_location("front");
    m.add_node_with_dedicated_resource({"lonely_sensor", NodeKind::Sensor, AsilTag{Asil::B}, {}}, loc);
    const ValidationReport report = validate(m);
    EXPECT_TRUE(report.has(IssueCode::DanglingSensor));
    EXPECT_EQ(report.error_count(), 0u);
    EXPECT_NO_THROW((void)validate_or_throw(m));  // warnings never throw
}

TEST(Validation, UnreachableActuatorIsWarningNotError) {
    ArchitectureModel m = valid_chain();
    const LocationId loc = m.find_location("front");
    m.add_node_with_dedicated_resource({"lonely_act", NodeKind::Actuator, AsilTag{Asil::B}, {}}, loc);
    const ValidationReport report = validate(m);
    EXPECT_TRUE(report.has(IssueCode::UnreachableActuator));
    EXPECT_EQ(report.error_count(), 0u);
}

TEST(Validation, IllFormedBlockIsError) {
    ArchitectureModel m("bad-block");
    const LocationId loc = m.add_location({"zone", kDefaultLocationLambda, {}});
    const NodeId s1 =
        m.add_node_with_dedicated_resource({"s1", NodeKind::Sensor, AsilTag{Asil::B}, {}}, loc);
    const NodeId s2 =
        m.add_node_with_dedicated_resource({"s2", NodeKind::Sensor, AsilTag{Asil::B}, {}}, loc);
    const NodeId merge =
        m.add_node_with_dedicated_resource({"merge", NodeKind::Merger, AsilTag{Asil::D}, {}}, loc);
    const NodeId act =
        m.add_node_with_dedicated_resource({"act", NodeKind::Actuator, AsilTag{Asil::D}, {}}, loc);
    m.connect_app(s1, merge);
    m.connect_app(s2, merge);
    m.connect_app(merge, act);
    const ValidationReport report = validate(m);
    EXPECT_TRUE(report.has(IssueCode::IllFormedBlock));
    EXPECT_GE(report.error_count(), 1u);
    EXPECT_THROW((void)validate_or_throw(m), ModelError);
}

/// The DuplicateName issues of `m`'s report.
std::vector<ValidationIssue> duplicate_names(const ArchitectureModel& m) {
    std::vector<ValidationIssue> out;
    for (const ValidationIssue& issue : validate(m).issues) {
        if (issue.code == IssueCode::DuplicateName) out.push_back(issue);
    }
    return out;
}

TEST(Validation, DuplicateNamesAreErrors) {
    // One error per shared name, anchored at the first element carrying
    // it: a node, a resource (three of one name) and a location.
    ArchitectureModel m = valid_chain();
    const NodeId act = m.find_app_node("act");
    const NodeId sens = m.find_app_node("sens");
    const ResourceId hw = m.mapped_resources(act).front();
    const LocationId front = m.find_location("front");
    m.app().node(sens).name = "act";
    const std::string hw_name = m.resources().node(hw).name;
    const ResourceId twin = m.add_resource({hw_name, ResourceKind::Actuator, Asil::B, {}, {}});
    const ResourceId triplet = m.add_resource({hw_name, ResourceKind::Actuator, Asil::B, {}, {}});
    m.place_resource(twin, front);
    m.place_resource(triplet, front);
    const LocationId second = m.add_location({"front", kDefaultLocationLambda, {}});

    const std::vector<ValidationIssue> issues = duplicate_names(m);
    ASSERT_EQ(issues.size(), 3u);
    for (const ValidationIssue& issue : issues) EXPECT_EQ(issue.severity, IssueSeverity::Error);
    const NodeId first = std::min(act, sens);
    EXPECT_EQ(issues[0].message, "application nodes " + std::to_string(first.value()) + " and " +
                                     std::to_string(std::max(act, sens).value()) +
                                     " share the name 'act'");
    EXPECT_EQ(issues[0].node, first);
    EXPECT_EQ(issues[1].message, "resources " + std::to_string(hw.value()) + ", " +
                                     std::to_string(twin.value()) + " and " +
                                     std::to_string(triplet.value()) + " share the name '" +
                                     hw_name + "'");
    EXPECT_EQ(issues[1].resource, hw);
    EXPECT_FALSE(issues[1].node.valid());
    EXPECT_EQ(issues[2].message, "locations " + std::to_string(front.value()) + " and " +
                                     std::to_string(second.value()) + " share the name 'front'");
    EXPECT_EQ(issues[2].location, front);
    EXPECT_FALSE(issues[2].resource.valid());
    EXPECT_THROW((void)validate_or_throw(m), ModelError);
}

TEST(Validation, DemoSyntheticAndExploredModelsHaveNoDuplicateNames) {
    std::vector<ArchitectureModel> models{
        scenarios::fig3_camera_gps_fusion(), scenarios::fig3_with_shared_ecu_ccf(),
        scenarios::ecotwin_lateral_control(), scenarios::ecotwin_longitudinal_control()};
    for (std::uint32_t seed = 1; seed <= 8; ++seed) {
        scenarios::SyntheticOptions options;
        options.seed = seed;
        models.push_back(scenarios::synthetic_model(options));
    }
    for (const DecompositionStrategy strategy :
         {DecompositionStrategy::BB, DecompositionStrategy::AC, DecompositionStrategy::RND}) {
        explore::ExplorationOptions options;
        options.strategy = strategy;
        models.push_back(explore::run_exploration(scenarios::ecotwin_lateral_control(),
                                                  scenarios::ecotwin_decision_nodes(), options)
                             .final_model);
        models.push_back(explore::run_exploration(scenarios::ecotwin_longitudinal_control(),
                                                  scenarios::longitudinal_decision_nodes(), options)
                             .final_model);
    }
    for (const ArchitectureModel& m : models) {
        EXPECT_TRUE(duplicate_names(m).empty()) << m.name();
    }
}

TEST(Validation, ReportCountsAndToString) {
    ArchitectureModel m = valid_chain();
    m.add_resource({"spare", ResourceKind::Functional, Asil::B, {}, {}});
    const ValidationReport report = validate(m);
    EXPECT_EQ(report.error_count() + report.warning_count(), report.issues.size());
    for (const auto& issue : report.issues) {
        EXPECT_FALSE(std::string(to_string(issue.code)).empty());
        EXPECT_FALSE(issue.message.empty());
    }
}

}  // namespace
}  // namespace asilkit
