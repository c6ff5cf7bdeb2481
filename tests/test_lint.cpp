#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "helpers.h"
#include "io/sarif.h"
#include "lint/emit.h"
#include "model/validation.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/longitudinal.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

namespace asilkit::lint {
namespace {

// ---- fixtures --------------------------------------------------------------

/// sensor -> c_in -> n -> c_out -> actuator, all ASIL D, fully mapped
/// and placed: triggers no rule.
ArchitectureModel clean_chain() { return scenarios::chain_1in_1out(); }

/// Branches at A(D) + A(D) under an inherited D requirement: triggers
/// asil.decomposition.under-achieved AND .invalid-pattern (A+A only
/// reaches B, and no Fig. 2 pattern sequence produces D -> A+A).
ArchitectureModel weak_block() {
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
    return m;
}

/// splitter wired straight to the merger on both outputs: a well-formed
/// block whose branches are all empty.
ArchitectureModel dead_pair() {
    ArchitectureModel m("dead-pair");
    const LocationId loc = m.add_location({"zone", kDefaultLocationLambda, {}});
    auto add = [&](const char* name, NodeKind kind) {
        return m.add_node_with_dedicated_resource({name, kind, AsilTag{Asil::D}, {}}, loc);
    };
    const NodeId sens = add("sens", NodeKind::Sensor);
    const NodeId split = add("split", NodeKind::Splitter);
    const NodeId merge = add("merge", NodeKind::Merger);
    const NodeId act = add("act", NodeKind::Actuator);
    m.connect_app(sens, split);
    m.connect_app(split, merge);
    m.connect_app(split, merge);
    m.connect_app(merge, act);
    return m;
}

/// sensor -> c1 -> c2 -> actuator: a directly reducible pair.
ArchitectureModel comm_pair() {
    ArchitectureModel m("comm-pair");
    const LocationId loc = m.add_location({"zone", kDefaultLocationLambda, {}});
    const NodeId s =
        m.add_node_with_dedicated_resource({"sens", NodeKind::Sensor, AsilTag{Asil::D}, {}}, loc);
    const NodeId c1 = m.add_node_with_dedicated_resource(
        {"c1", NodeKind::Communication, AsilTag{Asil::D}, {}}, loc);
    const NodeId c2 = m.add_node_with_dedicated_resource(
        {"c2", NodeKind::Communication, AsilTag{Asil::D}, {}}, loc);
    const NodeId a =
        m.add_node_with_dedicated_resource({"act", NodeKind::Actuator, AsilTag{Asil::D}, {}}, loc);
    m.connect_app(s, c1);
    m.connect_app(c1, c2);
    m.connect_app(c2, a);
    return m;
}

/// weak_block() plus one defect per validate() check, so all ten
/// validator rules fire.
ArchitectureModel damaged_fixture() {
    ArchitectureModel m = weak_block();
    m.set_name("damaged");
    const LocationId loc = m.find_location("zone");
    const NodeId sens = m.find_app_node("sens");
    const NodeId act = m.find_app_node("act");
    m.add_app_node({"orphan", NodeKind::Functional, AsilTag{Asil::B}, {}});
    m.resources().node(m.mapped_resources(act).front()).kind = ResourceKind::Functional;
    m.resources().node(m.mapped_resources(sens).front()).asil = Asil::B;
    m.add_resource({"spare", ResourceKind::Functional, Asil::B, {}, {}});
    const NodeId stray_split = m.add_node_with_dedicated_resource(
        {"stray_split", NodeKind::Splitter, AsilTag{Asil::D}, {}}, loc);
    m.connect_app(sens, stray_split);
    const NodeId stray_merge = m.add_node_with_dedicated_resource(
        {"stray_merge", NodeKind::Merger, AsilTag{Asil::D}, {}}, loc);
    m.connect_app(sens, stray_merge);
    m.connect_app(stray_merge, act);
    m.add_node_with_dedicated_resource({"lone_act", NodeKind::Actuator, AsilTag{Asil::B}, {}},
                                       loc);
    m.add_node_with_dedicated_resource({"lone_sens", NodeKind::Sensor, AsilTag{Asil::B}, {}},
                                       loc);
    return m;
}

/// The lint rule id of each validate() IssueCode, in IssueCode order.
constexpr std::array<std::string_view, 11> kValidatorRuleIds{
    "map.unmapped-node",
    "map.incompatible-mapping",
    "map.under-implemented-asil",
    "map.unplaced-resource",
    "app.bad-splitter-degree",
    "app.bad-merger-degree",
    "app.ill-formed-block",
    "asil.decomposition.under-achieved",
    "app.unreachable-actuator",
    "app.dangling-sensor",
    "model.duplicate-name"};

bool is_validator_rule(std::string_view id) {
    return std::find(kValidatorRuleIds.begin(), kValidatorRuleIds.end(), id) !=
           kValidatorRuleIds.end();
}

/// 0-6 seeded edits, each of a kind validate() flags: unmap a node, give
/// a mapped resource an incompatible kind, drop a resource to QM
/// readiness, add an unplaced spare, drop an edge, add a lone sensor or
/// actuator, hang a one-output splitter or one-input merger off a node,
/// or repeat the first name of a layer (a new location, a new resource,
/// or a node renamed).
ArchitectureModel damaged(ArchitectureModel m, std::uint32_t seed) {
    std::mt19937 rng(seed);
    const LocationId loc = m.physical().node_ids().front();
    const std::uint32_t edits = rng() % 7;
    for (std::uint32_t e = 0; e < edits; ++e) {
        const std::vector<NodeId> nodes = m.app().node_ids();
        const NodeId n = nodes[rng() % nodes.size()];
        const std::string tag = std::to_string(e);
        auto add = [&](const std::string& name, NodeKind kind) {
            return m.add_node_with_dedicated_resource({name, kind, AsilTag{Asil::B}, {}}, loc);
        };
        const std::uint32_t kind = rng() % 10;
        switch (kind) {
            case 0:
                m.remap_node(n, {});
                break;
            case 1:
                if (m.mapped_resources(n).empty()) break;
                m.resources().node(m.mapped_resources(n).front()).kind =
                    m.app().node(n).kind == NodeKind::Sensor ? ResourceKind::Actuator
                                                             : ResourceKind::Sensor;
                break;
            case 2: {
                const std::vector<ResourceId> rs = m.resources().node_ids();
                m.resources().node(rs[rng() % rs.size()]).asil = Asil::QM;
                break;
            }
            case 3:
                m.add_resource({"spare" + tag, ResourceKind::Functional, Asil::B, {}, {}});
                break;
            case 4: {
                const std::vector<ChannelId> edges = m.app().edge_ids();
                if (!edges.empty()) m.app().erase_edge(edges[rng() % edges.size()]);
                break;
            }
            case 5:
                add("lone_sensor" + tag, NodeKind::Sensor);
                break;
            case 6:
                add("lone_actuator" + tag, NodeKind::Actuator);
                break;
            case 9:
                if (rng() % 3 == 0) {
                    m.add_location({m.physical().node(loc).name, kDefaultLocationLambda, {}});
                } else if (rng() % 2 == 0) {
                    const ResourceId first = m.resources().node_ids().front();
                    m.add_resource(
                        {m.resources().node(first).name, ResourceKind::Functional, Asil::B, {}, {}});
                } else if (n != nodes.front()) {
                    m.app().node(n).name = m.app().node(nodes.front()).name;
                }
                break;
            default: {
                // 7: splitter, 8: merger; n -> x -> (a successor of n,
                // when n has one), which closes no cycle.
                const std::vector<NodeId> next = m.app().successors(n);
                const bool splitter = kind == 7;
                const NodeId x = add((splitter ? "stray_split" : "stray_merge") + tag,
                                     splitter ? NodeKind::Splitter : NodeKind::Merger);
                m.connect_app(n, x);
                if (!next.empty()) m.connect_app(x, next.front());
                break;
            }
        }
    }
    return m;
}

/// The first single-quoted name of a message: the element each of the
/// eleven validate() messages is about.
std::string first_quoted(const std::string& message) {
    const std::size_t begin = message.find('\'') + 1;
    return message.substr(begin, message.find('\'', begin) - begin);
}

// ---- the non-triggering fixture for every rule id --------------------------

TEST(Lint, CleanFig3TriggersNoRule) {
    const LintReport report = run_lint(scenarios::fig3_camera_gps_fusion());
    for (const RuleInfo& rule : rules()) {
        EXPECT_FALSE(report.has(rule.id)) << rule.id;
    }
    EXPECT_TRUE(report.clean());
    EXPECT_TRUE(report.diagnostics.empty());
}

TEST(Lint, CleanChainTriggersNoRule) {
    const LintReport report = run_lint(clean_chain());
    for (const RuleInfo& rule : rules()) {
        EXPECT_FALSE(report.has(rule.id)) << rule.id;
    }
    EXPECT_TRUE(report.clean());
}

// ---- one triggering fixture per rule ----------------------------------------

TEST(LintRules, UnmappedNode) {
    ArchitectureModel m = clean_chain();
    m.add_app_node({"orphan", NodeKind::Functional, AsilTag{Asil::B}, {}});
    const LintReport report = run_lint(m);
    EXPECT_TRUE(report.has("map.unmapped-node"));
    EXPECT_GE(report.error_count(), 1u);
}

TEST(LintRules, IncompatibleMapping) {
    ArchitectureModel m = clean_chain();
    // Mutate the resource kind after mapping (map_node itself refuses
    // incompatible pairs, but a loaded or edited model can carry them).
    const NodeId n = m.find_app_node("n");
    m.resources().node(m.mapped_resources(n).front()).kind = ResourceKind::Sensor;
    const LintReport report = run_lint(m);
    EXPECT_TRUE(report.has("map.incompatible-mapping"));
}

TEST(LintRules, UnderImplementedAsil) {
    ArchitectureModel m = clean_chain();
    const NodeId n = m.find_app_node("n");
    m.resources().node(m.mapped_resources(n).front()).asil = Asil::A;
    const LintReport report = run_lint(m);
    EXPECT_TRUE(report.has("map.under-implemented-asil"));
    EXPECT_EQ(report.error_count(), 0u);  // warning by default
}

TEST(LintRules, UnplacedResource) {
    ArchitectureModel m = clean_chain();
    m.add_resource({"spare", ResourceKind::Functional, Asil::B, {}, {}});
    const LintReport report = run_lint(m);
    EXPECT_TRUE(report.has("map.unplaced-resource"));
}

TEST(LintRules, BadSplitterDegree) {
    ArchitectureModel m = clean_chain();
    const LocationId loc = m.find_location("front");
    const NodeId s =
        m.add_node_with_dedicated_resource({"bad_split", NodeKind::Splitter, AsilTag{Asil::D}, {}}, loc);
    m.connect_app(m.find_app_node("c_in"), s);  // 1 input, 0 outputs
    const LintReport report = run_lint(m);
    EXPECT_TRUE(report.has("app.bad-splitter-degree"));
}

TEST(LintRules, BadMergerDegree) {
    ArchitectureModel m = clean_chain();
    const LocationId loc = m.find_location("front");
    const NodeId g =
        m.add_node_with_dedicated_resource({"bad_merge", NodeKind::Merger, AsilTag{Asil::D}, {}}, loc);
    m.connect_app(m.find_app_node("c_in"), g);
    m.connect_app(g, m.find_app_node("c_out"));  // only 1 input
    const LintReport report = run_lint(m);
    EXPECT_TRUE(report.has("app.bad-merger-degree"));
}

TEST(LintRules, IllFormedBlock) {
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
    const LintReport report = run_lint(m);
    EXPECT_TRUE(report.has("app.ill-formed-block"));
    EXPECT_GE(report.error_count(), 1u);
}

TEST(LintRules, UnderAchievedDecomposition) {
    const LintReport report = run_lint(weak_block());
    EXPECT_TRUE(report.has("asil.decomposition.under-achieved"));
}

TEST(LintRules, UnreachableActuator) {
    ArchitectureModel m = clean_chain();
    const LocationId loc = m.find_location("front");
    m.add_node_with_dedicated_resource({"lonely_act", NodeKind::Actuator, AsilTag{Asil::B}, {}}, loc);
    const LintReport report = run_lint(m);
    EXPECT_TRUE(report.has("app.unreachable-actuator"));
}

TEST(LintRules, DanglingSensor) {
    ArchitectureModel m = clean_chain();
    const LocationId loc = m.find_location("front");
    m.add_node_with_dedicated_resource({"lonely_sensor", NodeKind::Sensor, AsilTag{Asil::B}, {}}, loc);
    const LintReport report = run_lint(m);
    EXPECT_TRUE(report.has("app.dangling-sensor"));
}

TEST(LintRules, DuplicateName) {
    ArchitectureModel m = clean_chain();
    const LocationId twin = m.add_location({"front", kDefaultLocationLambda, {}});
    const LintReport report = run_lint(m);
    std::vector<Diagnostic> found;
    for (const Diagnostic& d : report.diagnostics) {
        if (d.rule_id == "model.duplicate-name") found.push_back(d);
    }
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].severity, Severity::Error);
    EXPECT_EQ(found[0].message, "locations " + std::to_string(m.find_location("front").value()) +
                                    " and " + std::to_string(twin.value()) +
                                    " share the name 'front'");
    EXPECT_EQ(found[0].location.qualified_name(), "physical:front");
    EXPECT_EQ(found[0].fixit, "rename all but one of the locations named 'front'");
}

TEST(LintRules, InvalidPatternFromTagSanity) {
    ArchitectureModel m = clean_chain();
    // "ASIL D(B)": the assigned level may never exceed the origin.
    m.app().node(m.find_app_node("n")).asil = AsilTag{Asil::D, Asil::B};
    const LintReport report = run_lint(m);
    EXPECT_TRUE(report.has("asil.decomposition.invalid-pattern"));
}

TEST(LintRules, InvalidPatternFromCatalogue) {
    // D -> A+A is not derivable from the Fig. 2 catalogue.
    const LintReport report = run_lint(weak_block());
    EXPECT_TRUE(report.has("asil.decomposition.invalid-pattern"));
    EXPECT_GE(report.error_count(), 1u);
}

TEST(LintRules, SharedResourceBranch) {
    const LintReport report = run_lint(scenarios::fig3_with_shared_ecu_ccf());
    EXPECT_TRUE(report.has("ccf.shared-resource-branch"));
    EXPECT_GE(report.error_count(), 1u);
}

TEST(LintRules, SharedLocationBranch) {
    ArchitectureModel m = clean_chain();
    const LocationId shared = m.add_location({"shared_bay", kDefaultLocationLambda, {}});
    transform::ExpandOptions options;
    options.branch_locations = {shared, shared};
    transform::expand(m, m.find_app_node("n"), options);
    const LintReport report = run_lint(m);
    EXPECT_TRUE(report.has("ccf.shared-location-branch"));
    EXPECT_FALSE(report.has("ccf.shared-resource-branch"));
}

TEST(LintRules, SharedEnvironmentBranch) {
    ArchitectureModel m = clean_chain();
    Environment noisy;
    noisy.vibration_zone = 3;
    const LocationId bay1 = m.add_location({"bay1", kDefaultLocationLambda, noisy});
    const LocationId bay2 = m.add_location({"bay2", kDefaultLocationLambda, noisy});
    transform::ExpandOptions options;
    options.branch_locations = {bay1, bay2};
    transform::expand(m, m.find_app_node("n"), options);
    const LintReport report = run_lint(m);
    EXPECT_TRUE(report.has("ccf.shared-environment-branch"));
    EXPECT_FALSE(report.has("ccf.shared-location-branch"));
}

TEST(LintRules, PathInconsistency) {
    ArchitectureModel m = clean_chain();
    // n produces at A, c_out consumes at D: the channel under-delivers.
    m.app().node(m.find_app_node("n")).asil = AsilTag{Asil::A};
    const LintReport report = run_lint(m);
    EXPECT_TRUE(report.has("asil.propagation.path-inconsistency"));
}

TEST(LintRules, PathIntoBlockBoundaryIsNotInconsistent) {
    // Decomposed branch levels legitimately drop below the merger's
    // level: the expanded chain must stay silent.
    ArchitectureModel m = clean_chain();
    transform::expand(m, m.find_app_node("n"));
    const LintReport report = run_lint(m);
    EXPECT_FALSE(report.has("asil.propagation.path-inconsistency"));
}

TEST(LintRules, DeadSplitterMerger) {
    const LintReport report = run_lint(dead_pair());
    EXPECT_TRUE(report.has("transform.dead-splitter-merger"));
}

TEST(LintRules, ReduciblePair) {
    const LintReport report = run_lint(comm_pair());
    EXPECT_TRUE(report.has("transform.reducible-pair"));
    EXPECT_GE(report.note_count(), 1u);
    EXPECT_TRUE(report.clean());  // notes do not dirty a model
}

TEST(LintRules, EffectiveAsilRegression) {
    ArchitectureModel m = clean_chain();
    transform::expand(m, m.find_app_node("n"));
    const std::vector<RedundantBlock> blocks = find_redundant_blocks(m);
    ASSERT_EQ(blocks.size(), 1u);
    // Implement the merger on hardware below the inherited D.
    const NodeId merger = blocks.front().merger;
    m.resources().node(m.mapped_resources(merger).front()).asil = Asil::B;
    const LintReport report = run_lint(m);
    EXPECT_TRUE(report.has("map.effective-asil-regression"));
}

// ---- the validator rules are validate()'s checks ---------------------------

TEST(Lint, ValidatorRulesReportValidateIssues) {
    // On the four demo models and seeded damaged copies, the eleven
    // validator rules report exactly validate()'s issues, grouped by
    // IssueCode in rule order: message, severity and anchor.
    std::array<std::size_t, 11> fired{};
    for (const ArchitectureModel& demo :
         {scenarios::fig3_camera_gps_fusion(), scenarios::fig3_with_shared_ecu_ccf(),
          scenarios::ecotwin_lateral_control(), scenarios::ecotwin_longitudinal_control()}) {
        for (std::uint32_t seed = 0; seed <= 40; ++seed) {
            const ArchitectureModel m = seed == 0 ? demo : damaged(demo, seed);
            std::vector<ValidationIssue> expected = validate(m).issues;
            std::stable_sort(expected.begin(), expected.end(),
                             [](const ValidationIssue& a, const ValidationIssue& b) {
                                 return a.code < b.code;
                             });
            std::vector<Diagnostic> actual;
            for (const Diagnostic& d : run_lint(m).diagnostics) {
                if (is_validator_rule(d.rule_id)) actual.push_back(d);
            }
            const std::string where = m.name() + " seed " + std::to_string(seed);
            ASSERT_EQ(actual.size(), expected.size()) << where;
            for (std::size_t k = 0; k < actual.size(); ++k) {
                const ValidationIssue& issue = expected[k];
                const Diagnostic& d = actual[k];
                const auto code = static_cast<std::size_t>(issue.code);
                ++fired[code];
                EXPECT_EQ(d.rule_id, kValidatorRuleIds[code]) << where;
                EXPECT_EQ(d.message, issue.message) << where;
                EXPECT_EQ(d.severity, issue.severity == IssueSeverity::Error ? Severity::Error
                                                                             : Severity::Warning)
                    << where;
                EXPECT_EQ(d.location.layer, issue.resource.valid()   ? Layer::Resource
                                            : issue.location.valid() ? Layer::Physical
                                                                     : Layer::Application)
                    << where;
                EXPECT_EQ(issue.resource.valid(), issue.code == IssueCode::UnplacedResource ||
                                                      (issue.code == IssueCode::DuplicateName &&
                                                       !issue.node.valid() &&
                                                       !issue.location.valid()))
                    << where;
                EXPECT_EQ(d.location.name, first_quoted(issue.message)) << where;
            }
        }
    }
    for (std::size_t code = 0; code < fired.size(); ++code) {
        EXPECT_GT(fired[code], 0u) << kValidatorRuleIds[code] << " never fired";
    }
}

TEST(Lint, GoldenDamagedReport) {
    // All ten validator rules fire; the text report, fix-its included,
    // is pinned byte for byte.
    const ArchitectureModel m = damaged_fixture();
    EXPECT_EQ(to_text(run_lint(m), m.name()), R"(damaged:
error [map.unmapped-node] app:orphan: application node 'orphan' is not mapped to any resource
  fix-it: map_node('orphan') onto an ASIL B-ready functional resource
error [map.incompatible-mapping] app:act: node 'act' (actuator) mapped on incompatible resource 'act_hw' (functional)
  fix-it: remap 'act' onto a actuator resource
warning [map.under-implemented-asil] app:sens: node 'sens' requires ASIL D but its mapping only provides ASIL B
  fix-it: remap 'sens' onto ASIL D-ready resources, or raise the readiness of its current ones
warning [map.unplaced-resource] resource:spare: resource 'spare' has no physical location
  fix-it: place_resource('spare') at a physical-layer location
error [app.bad-splitter-degree] app:stray_split: splitter 'stray_split' must have >=1 input and >=2 outputs
  fix-it: rewire 'stray_split' into a redundant block, or erase the leftover
error [app.bad-merger-degree] app:stray_merge: merger 'stray_merge' must have >=2 inputs and >=1 output
  fix-it: rewire 'stray_merge' into a redundant block, or erase the leftover
error [app.ill-formed-block] app:stray_merge: block at merger 'stray_merge': branch starting at 'sens' reaches source 'sens' without crossing a splitter
  fix-it: restore the splitter/branches/merger structure (re-run transform::Expand, or erase the stray edges)
error [app.ill-formed-block] app:stray_merge: block at merger 'stray_merge': merger 'stray_merge' has fewer than two inputs
  fix-it: restore the splitter/branches/merger structure (re-run transform::Expand, or erase the stray edges)
warning [asil.decomposition.under-achieved] app:merge: block at merger 'merge' achieves ASIL B but inherits a ASIL D requirement
  fix-it: raise the branch implementations (remap onto stronger hardware) or re-Expand with pattern D -> C(D) + A(D)
warning [app.unreachable-actuator] app:lone_act: actuator 'lone_act' is not fed by any sensor
  fix-it: connect_app a sensing path into 'lone_act'
warning [app.dangling-sensor] app:lone_sens: sensor 'lone_sens' does not reach any actuator
  fix-it: connect_app 'lone_sens' toward an actuator, or erase_app_node it
error [asil.decomposition.invalid-pattern] app:merge: block at merger 'merge' decomposes an inherited ASIL D requirement into A+A, which no sequence of Fig. 2 catalogue patterns produces
  fix-it: re-Expand with pattern D -> C(D) + A(D)
warning [ccf.shared-location-branch] app:merge: branches {0, 1} of the block at merger 'merge' are both placed at location 'zone'
  fix-it: place_resource the branch hardware at distinct locations (branches {0, 1} currently share 'zone')
7 errors, 6 warnings, 0 notes
)");
}

// ---- registry / severities --------------------------------------------------

TEST(LintRegistry, BuiltinIdsAreUniqueAndWellFormed) {
    EXPECT_GE(rules().size(), 18u);
    std::set<std::string_view> ids;
    for (const RuleInfo& info : rules()) {
        EXPECT_TRUE(ids.insert(info.id).second) << "duplicate id " << info.id;
        EXPECT_NE(info.id.find('.'), std::string_view::npos) << info.id;
        EXPECT_FALSE(info.summary.empty()) << info.id;
        EXPECT_FALSE(info.layers.empty()) << info.id;
        EXPECT_EQ(find_rule(info.id), &info);
    }
    EXPECT_EQ(find_rule("no.such-rule"), nullptr);
}

TEST(LintSeverity, StringRoundTrip) {
    EXPECT_EQ(severity_from_string("off"), Severity::Off);
    EXPECT_EQ(severity_from_string("note"), Severity::Note);
    EXPECT_EQ(severity_from_string("warning"), Severity::Warning);
    EXPECT_EQ(severity_from_string("error"), Severity::Error);
    EXPECT_EQ(to_string(Severity::Warning), "warning");
    EXPECT_THROW((void)severity_from_string("fatal"), IoError);
}

// ---- configuration ----------------------------------------------------------

TEST(LintConfigTest, OverrideDisablesRule) {
    ArchitectureModel m = clean_chain();
    m.add_resource({"spare", ResourceKind::Functional, Asil::B, {}, {}});
    LintOptions options;
    options.config =
        lint_config_from_json_text(R"({"rules": {"map.unplaced-resource": "off"}})");
    const LintReport report = run_lint(m, options);
    EXPECT_FALSE(report.has("map.unplaced-resource"));
    EXPECT_TRUE(report.clean());
}

TEST(LintConfigTest, OverridePromotesSeverity) {
    ArchitectureModel m = clean_chain();
    m.add_resource({"spare", ResourceKind::Functional, Asil::B, {}, {}});
    LintOptions options;
    options.config =
        lint_config_from_json_text(R"({"rules": {"map.unplaced-resource": "error"}})");
    const LintReport report = run_lint(m, options);
    EXPECT_TRUE(report.has("map.unplaced-resource"));
    EXPECT_GE(report.error_count(), 1u);
    EXPECT_EQ(report.warning_count(), 0u);
}

TEST(LintConfigTest, UnknownRuleIdRejected) {
    EXPECT_THROW((void)lint_config_from_json_text(R"({"rules": {"map.tpyo": "off"}})"), IoError);
}

TEST(LintConfigTest, MalformedDocumentIsANamedError) {
    // Each of these used to load as a config without overrides.
    for (const char* text : {"[]", "\"x\"", "7", R"({"rulez": {}})"}) {
        EXPECT_THROW((void)lint_config_from_json_text(text), IoError) << text;
    }
    try {
        (void)lint_config_from_json_text(R"({"rulez": {"map.unplaced-resource": "off"}})");
        ADD_FAILURE() << "misspelled key accepted";
    } catch (const IoError& e) {
        EXPECT_NE(std::string(e.what()).find("unknown key 'rulez'"), std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(lint_config_from_json_text("{}").overrides.empty());
}

TEST(LintConfigTest, MutatedConfigsLoadOrFailWithANamedError) {
    // 1-4 seeded byte edits of a config naming every rule: each text
    // loads or throws asilkit::Error, never another exception.  Edits
    // inside the indentation keep some texts valid.
    static constexpr const char* kSeverities[] = {"off", "note", "warning", "error"};
    std::string config = "{\n  \"rules\": {";
    for (std::size_t i = 0; i < rules().size(); ++i) {
        config += i > 0 ? ",\n    \"" : "\n    \"";
        config += std::string(rules()[i].id) + "\":    \"" + kSeverities[i % 4] + "\"";
    }
    config += "\n  }\n}\n";
    ASSERT_EQ(lint_config_from_json_text(config).overrides.size(), rules().size());
    std::size_t loaded = 0;
    std::size_t rejected = 0;
    for (std::uint32_t seed = 1; seed <= 2000; ++seed) {
        try {
            (void)lint_config_from_json_text(asilkit::testing::mutate(config, seed));
            ++loaded;
        } catch (const Error&) {
            ++rejected;
        } catch (const std::exception& e) {
            ADD_FAILURE() << "seed " << seed << ": " << e.what();
        }
    }
    EXPECT_GT(loaded, 0u) << "no mutation kept the config valid";
    EXPECT_GT(rejected, 0u);
}

// ---- diagnostics / determinism ----------------------------------------------

TEST(LintReportTest, DiagnosticsCarryLocationAndFixit) {
    ArchitectureModel m = clean_chain();
    m.add_app_node({"orphan", NodeKind::Functional, AsilTag{Asil::B}, {}});
    const LintReport report = run_lint(m);
    ASSERT_FALSE(report.diagnostics.empty());
    bool found = false;
    for (const Diagnostic& d : report.diagnostics) {
        if (d.rule_id != "map.unmapped-node") continue;
        found = true;
        EXPECT_EQ(d.location.layer, Layer::Application);
        EXPECT_EQ(d.location.name, "orphan");
        EXPECT_EQ(d.location.qualified_name(), "app:orphan");
        EXPECT_NE(d.fixit.find("map_node"), std::string::npos);
        std::ostringstream os;
        os << d;
        EXPECT_NE(os.str().find("map.unmapped-node"), std::string::npos);
    }
    EXPECT_TRUE(found);
}

TEST(LintReportTest, OrderIsDeterministic) {
    ArchitectureModel m = weak_block();
    m.add_resource({"spare", ResourceKind::Functional, Asil::B, {}, {}});
    const std::string first = to_text(run_lint(m), m.name());
    const std::string second = to_text(run_lint(m), m.name());
    EXPECT_EQ(first, second);
}

// ---- emitters ----------------------------------------------------------------

TEST(LintEmit, TextSummaryLine) {
    ArchitectureModel m = clean_chain();
    m.add_resource({"spare", ResourceKind::Functional, Asil::B, {}, {}});
    const std::string text = to_text(run_lint(m), m.name());
    EXPECT_NE(text.find(m.name()), std::string::npos);
    EXPECT_NE(text.find("map.unplaced-resource"), std::string::npos);
    EXPECT_NE(text.find("0 errors, 1 warnings, 0 notes"), std::string::npos);
}

TEST(LintEmit, JsonShape) {
    ArchitectureModel m = clean_chain();
    m.add_resource({"spare", ResourceKind::Functional, Asil::B, {}, {}});
    const io::Json doc = to_json(run_lint(m), m.name());
    EXPECT_EQ(doc.at("model").as_string(), m.name());
    EXPECT_EQ(doc.at("summary").at("warnings").as_int(), 1);
    ASSERT_EQ(doc.at("diagnostics").size(), 1u);
    const io::Json& entry = doc.at("diagnostics").as_array().front();
    EXPECT_EQ(entry.at("rule").as_string(), "map.unplaced-resource");
    EXPECT_EQ(entry.at("severity").as_string(), "warning");
    EXPECT_EQ(entry.at("element").as_string(), "spare");
}

/// The acceptance test: the SARIF emitter's output must satisfy the
/// required-properties subset of the SARIF 2.1.0 schema.  (No network /
/// jsonschema dependency: the constraints below are transcribed from
/// sarif-schema-2.1.0.json — required members, enum values, types.)
TEST(LintEmit, SarifValidatesAgainstSchema210) {
    ArchitectureModel m = weak_block();
    m.add_resource({"spare", ResourceKind::Functional, Asil::B, {}, {}});
    const LintReport report = run_lint(m);
    ASSERT_FALSE(report.diagnostics.empty());

    // Validate what a consumer parses, not the in-memory tree.
    const io::Json doc = io::Json::parse(to_sarif(report).dump(2));
    const std::set<std::string> kLevels{"none", "note", "warning", "error"};

    // sarifLog: required ["version"]; $schema must be the 2.1.0 URI.
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(doc.at("$schema").as_string(), io::kSarifSchemaUri);
    EXPECT_EQ(doc.at("version").as_string(), "2.1.0");

    // runs: array of run objects; run requires "tool".
    ASSERT_TRUE(doc.at("runs").is_array());
    ASSERT_EQ(doc.at("runs").size(), 1u);
    const io::Json& run = doc.at("runs").as_array().front();

    // tool requires "driver"; toolComponent requires "name".
    const io::Json& driver = run.at("tool").at("driver");
    EXPECT_FALSE(driver.at("name").as_string().empty());
    EXPECT_FALSE(driver.at("version").as_string().empty());

    // reportingDescriptor requires "id"; the whole catalogue is declared.
    ASSERT_TRUE(driver.at("rules").is_array());
    EXPECT_EQ(driver.at("rules").size(), rules().size());
    std::vector<std::string> declared_ids;
    for (const io::Json& rule : driver.at("rules").as_array()) {
        declared_ids.push_back(rule.at("id").as_string());
        EXPECT_FALSE(rule.at("shortDescription").at("text").as_string().empty());
        EXPECT_TRUE(kLevels.contains(rule.at("defaultConfiguration").at("level").as_string()));
    }

    // result requires "message"; level is the schema enum; ruleIndex must
    // agree with the driver rule table; logical locations carry the
    // model anchor.
    ASSERT_TRUE(run.at("results").is_array());
    EXPECT_EQ(run.at("results").size(), report.diagnostics.size());
    for (const io::Json& result : run.at("results").as_array()) {
        EXPECT_FALSE(result.at("message").at("text").as_string().empty());
        EXPECT_TRUE(kLevels.contains(result.at("level").as_string()));
        const std::string& rule_id = result.at("ruleId").as_string();
        const auto index = static_cast<std::size_t>(result.at("ruleIndex").as_int());
        ASSERT_LT(index, declared_ids.size());
        EXPECT_EQ(declared_ids[index], rule_id);
        ASSERT_TRUE(result.at("locations").is_array());
        const io::Json& logical =
            result.at("locations").as_array().front().at("logicalLocations").as_array().front();
        EXPECT_NE(logical.at("fullyQualifiedName").as_string().find(':'), std::string::npos);
        EXPECT_FALSE(logical.at("kind").as_string().empty());
    }
}

TEST(LintEmit, SarifCleanRunStillDeclaresCatalogue) {
    const io::Json doc = to_sarif(run_lint(clean_chain()));
    const io::Json& run = doc.at("runs").as_array().front();
    EXPECT_EQ(run.at("results").size(), 0u);
    EXPECT_EQ(run.at("tool").at("driver").at("rules").size(), rules().size());
}

}  // namespace
}  // namespace asilkit::lint
