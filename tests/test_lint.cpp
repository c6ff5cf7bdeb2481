#include "lint/lint.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "io/sarif.h"
#include "lint/emit.h"
#include "scenarios/fig3.h"
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

// ---- the non-triggering fixture for every rule id --------------------------

TEST(Lint, CleanFig3TriggersNoRule) {
    const LintReport report = run_lint(scenarios::fig3_camera_gps_fusion());
    for (const auto& rule : RuleRegistry::builtin().rules()) {
        EXPECT_FALSE(report.has(rule->info().id)) << rule->info().id;
    }
    EXPECT_TRUE(report.clean());
    EXPECT_TRUE(report.diagnostics.empty());
}

TEST(Lint, CleanChainTriggersNoRule) {
    const LintReport report = run_lint(clean_chain());
    for (const auto& rule : RuleRegistry::builtin().rules()) {
        EXPECT_FALSE(report.has(rule->info().id)) << rule->info().id;
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

// ---- registry / severities --------------------------------------------------

TEST(LintRegistry, BuiltinIdsAreUniqueAndWellFormed) {
    const RuleRegistry& registry = RuleRegistry::builtin();
    EXPECT_GE(registry.rules().size(), 18u);
    std::set<std::string_view> ids;
    for (const auto& rule : registry.rules()) {
        const RuleInfo& info = rule->info();
        EXPECT_TRUE(ids.insert(info.id).second) << "duplicate id " << info.id;
        EXPECT_NE(info.id.find('.'), std::string_view::npos) << info.id;
        EXPECT_FALSE(info.summary.empty()) << info.id;
        EXPECT_FALSE(info.layers.empty()) << info.id;
        EXPECT_NE(registry.find(info.id), nullptr);
    }
    EXPECT_EQ(registry.find("no.such-rule"), nullptr);
}

TEST(LintRegistry, DuplicateIdThrows) {
    class Dummy final : public Rule {
    public:
        [[nodiscard]] const RuleInfo& info() const noexcept override {
            static const RuleInfo kInfo{"dup.rule", Severity::Note, "app", "dummy"};
            return kInfo;
        }
        void run(const LintContext&, std::vector<Finding>&) const override {}
    };
    RuleRegistry registry;
    registry.add(std::make_unique<Dummy>());
    EXPECT_THROW((void)registry.add(std::make_unique<Dummy>()), ModelError);
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
    EXPECT_EQ(driver.at("rules").size(), RuleRegistry::builtin().rules().size());
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
    EXPECT_EQ(run.at("tool").at("driver").at("rules").size(),
              RuleRegistry::builtin().rules().size());
}

}  // namespace
}  // namespace asilkit::lint
