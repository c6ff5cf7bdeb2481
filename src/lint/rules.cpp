// The built-in rule catalogue (see docs/lint.md for the table) and the
// lint run over it.
//
// The first eleven rules report what validate() finds (one rule per
// IssueCode, adding a location and a fix-it); the remaining rules cover
// cross-layer soundness the validator cannot express.  Every rule is
// purely structural — no fault tree, no BDD — so the whole catalogue
// runs in (near-)linear time over the model.
#include <algorithm>
#include <array>

#include "core/decomposition.h"
#include "lint/lint.h"
#include "model/validation.h"
#include "transform/reduce.h"

namespace asilkit::lint {
namespace {

// ---- validate()'s checks ---------------------------------------------------

/// Where a validate() issue points: its resource or location when it
/// has one, else its application node.
ModelLocation validator_anchor(const ArchitectureModel& m, const ValidationIssue& issue) {
    if (issue.resource.valid()) return ModelLocation::resource(m, issue.resource);
    if (issue.location.valid()) return ModelLocation::location(m, issue.location);
    return ModelLocation::app_node(m, issue.node);
}

/// The operation that repairs a validate() issue, phrased at its anchor.
std::string validator_fixit(const ArchitectureModel& m, const ValidationIssue& issue,
                            const ModelLocation& anchor) {
    if (issue.code == IssueCode::UnplacedResource) {
        return "place_resource('" + anchor.name + "') at a physical-layer location";
    }
    if (issue.code == IssueCode::DuplicateName) {
        const char* what = issue.resource.valid()   ? "resources"
                           : issue.location.valid() ? "locations"
                                                    : "application nodes";
        return "rename all but one of the " + std::string(what) + " named '" + anchor.name + "'";
    }
    const AppNode& node = m.app().node(issue.node);
    switch (issue.code) {
        case IssueCode::UnmappedNode:
            return "map_node('" + node.name + "') onto an " + to_long_string(node.asil.level) +
                   "-ready " + std::string(to_string(default_resource_kind(node.kind))) +
                   " resource";
        case IssueCode::IncompatibleMapping:
            return "remap '" + node.name + "' onto a " +
                   std::string(to_string(default_resource_kind(node.kind))) + " resource";
        case IssueCode::UnderImplementedAsil:
            return "remap '" + node.name + "' onto " + to_long_string(node.asil.level) +
                   "-ready resources, or raise the readiness of its current ones";
        case IssueCode::BadSplitterDegree:
        case IssueCode::BadMergerDegree:
            return "rewire '" + node.name + "' into a redundant block, or erase the leftover";
        case IssueCode::IllFormedBlock:
            return "restore the splitter/branches/merger structure (re-run transform::Expand, or "
                   "erase the stray edges)";
        case IssueCode::InvalidDecomposition:
            return "raise the branch implementations (remap onto stronger hardware) or "
                   "re-Expand with pattern " +
                   to_string(decompositions_of(
                                 inherited_asil(m, find_block_at_merger(m, issue.node)))
                                 .front());
        case IssueCode::UnreachableActuator:
            return "connect_app a sensing path into '" + node.name + "'";
        case IssueCode::DanglingSensor:
            return "connect_app '" + node.name + "' toward an actuator, or erase_app_node it";
        case IssueCode::UnplacedResource:
        case IssueCode::DuplicateName:
            break;
    }
    return {};
}

Finding validator_finding(const ArchitectureModel& m, ValidationIssue&& issue) {
    ModelLocation anchor = validator_anchor(m, issue);
    std::string fixit = validator_fixit(m, issue, anchor);
    return {std::move(issue.message), std::move(anchor), std::move(fixit)};
}

// ---- cross-layer rules -----------------------------------------------------

void check_invalid_pattern(const LintContext& ctx, std::vector<Finding>& out) {
    const ArchitectureModel& m = ctx.model();
    // Tag sanity: the assigned level X of an "ASIL X(Y)" tag can never
    // exceed the origin level Y.
    for (NodeId n : m.app().node_ids()) {
        const AppNode& node = m.app().node(n);
        if (asil_value(node.asil.level) <= asil_value(node.asil.inherited)) continue;
        out.push_back({"node '" + node.name + "' carries ASIL " + to_string(node.asil) +
                           ": the assigned level cannot exceed the original requirement",
                       ModelLocation::app_node(m, n),
                       "retag '" + node.name + "' as " +
                           to_string(AsilTag{node.asil.inherited})});
    }
    // Catalogue validity per block: the branch requirement levels must be
    // derivable from the Fig. 2 patterns for the inherited parent level.
    for (const RedundantBlock& block : ctx.blocks()) {
        if (!block.well_formed || block.branches.size() < 2) continue;
        const Asil parent = inherited_asil(m, block);
        std::vector<Asil> branch_levels;
        branch_levels.reserve(block.branches.size());
        for (const Branch& b : block.branches) {
            // An empty branch (splitter wired straight to the merger) is
            // neutral, matching branch_asil(): bounded by the splitter.
            Asil level = Asil::D;
            for (NodeId n : b.nodes) level = asil_min(level, m.app().node(n).asil.level);
            branch_levels.push_back(level);
        }
        if (is_valid_decomposition(parent, branch_levels)) continue;
        const std::string& merger_name = m.app().node(block.merger).name;
        std::string levels_text;
        for (Asil level : branch_levels) {
            if (!levels_text.empty()) levels_text += "+";
            levels_text += to_string(level);
        }
        out.push_back({"block at merger '" + merger_name + "' decomposes an inherited " +
                           to_long_string(parent) + " requirement into " + levels_text +
                           ", which no sequence of Fig. 2 catalogue patterns produces",
                       ModelLocation::app_node(m, block.merger),
                       "re-Expand with pattern " +
                           to_string(decompositions_of(parent).front())});
    }
}

void emit_ccf_findings(const LintContext& ctx, analysis::CcfKind kind, const char* fixit_verb,
                       std::vector<Finding>& out) {
    const ArchitectureModel& m = ctx.model();
    for (const analysis::CcfFinding& f : ctx.ccf().findings) {
        if (f.kind != kind) continue;
        std::string branches;
        for (std::size_t i : f.branch_indices) {
            if (!branches.empty()) branches += ", ";
            branches += std::to_string(i);
        }
        out.push_back({f.message, ModelLocation::app_node(m, f.merger),
                       std::string(fixit_verb) + " (branches {" + branches + "} currently share '" +
                           f.subject + "')"});
    }
}

void check_shared_resource_branch(const LintContext& ctx, std::vector<Finding>& out) {
    emit_ccf_findings(ctx, analysis::CcfKind::SharedResource,
                      "remap one branch onto a disjoint resource set", out);
}

void check_shared_location_branch(const LintContext& ctx, std::vector<Finding>& out) {
    emit_ccf_findings(ctx, analysis::CcfKind::SharedLocation,
                      "place_resource the branch hardware at distinct locations", out);
}

void check_shared_environment_branch(const LintContext& ctx, std::vector<Finding>& out) {
    emit_ccf_findings(ctx, analysis::CcfKind::SharedEnvironment,
                      "move one branch out of the shared environmental zone", out);
}

void check_path_inconsistency(const LintContext& ctx, std::vector<Finding>& out) {
    const ArchitectureModel& m = ctx.model();
    const AppGraph& g = m.app();
    for (NodeId u : g.node_ids()) {
        const AppNode& from = g.node(u);
        // A merger re-establishes the inherited level on its output, and
        // edges entering redundancy management legitimately carry the
        // decomposed (lower) branch levels.
        if (from.kind == NodeKind::Merger) continue;
        for (NodeId v : g.successors(u)) {
            const AppNode& to = g.node(v);
            if (to.kind == NodeKind::Merger || to.kind == NodeKind::Splitter) continue;
            if (asil_value(from.asil.level) >= asil_value(to.asil.level)) continue;
            out.push_back({"channel '" + from.name + "' -> '" + to.name + "': data required at " +
                               to_long_string(to.asil.level) + " is produced at " +
                               to_long_string(from.asil.level),
                           ModelLocation::app_node(m, u),
                           "raise '" + from.name + "' to " + to_long_string(to.asil.level) +
                               ", or Expand('" + from.name + "') into redundant branches"});
        }
    }
}

void check_dead_splitter_merger(const LintContext& ctx, std::vector<Finding>& out) {
    const ArchitectureModel& m = ctx.model();
    for (const RedundantBlock& block : ctx.blocks()) {
        if (!block.well_formed || block.branches.empty()) continue;
        const bool all_empty = std::all_of(block.branches.begin(), block.branches.end(),
                                           [](const Branch& b) { return b.nodes.empty(); });
        if (!all_empty) continue;
        const std::string& merger_name = m.app().node(block.merger).name;
        out.push_back({"block at merger '" + merger_name +
                           "' has only empty branches: the merger compares copies of a single "
                           "data path, so the pair adds hardware without redundancy",
                       ModelLocation::app_node(m, block.merger),
                       "remove the dead pair (transform::Reduce after rewiring), or Expand the "
                       "branches with real replicas"});
    }
}

void check_reducible_pair(const LintContext& ctx, std::vector<Finding>& out) {
    const ArchitectureModel& m = ctx.model();
    const AppGraph& g = m.app();
    for (NodeId u : g.node_ids()) {
        for (NodeId v : g.successors(u)) {
            if (!transform::can_reduce(m, u, v)) continue;
            out.push_back({"communication pair '" + g.node(u).name + "' -> '" + g.node(v).name +
                               "' carries the same information twice",
                           ModelLocation::app_node(m, u),
                           "transform::Reduce('" + g.node(u).name + "', '" + g.node(v).name +
                               "')"});
        }
    }
}

void check_effective_asil_regression(const LintContext& ctx, std::vector<Finding>& out) {
    const ArchitectureModel& m = ctx.model();
    for (const RedundantBlock& block : ctx.blocks()) {
        if (!block.well_formed) continue;
        const Asil inherited = inherited_asil(m, block);
        std::vector<NodeId> management = block.splitters;
        management.push_back(block.merger);
        for (NodeId n : management) {
            if (m.mapped_resources(n).empty()) continue;  // map.unmapped-node covers it
            const Asil eff = m.effective_asil(n);
            if (asil_value(eff) >= asil_value(inherited)) continue;
            const AppNode& node = m.app().node(n);
            out.push_back(
                {"redundancy-management node '" + node.name + "' of the block at merger '" +
                     m.app().node(block.merger).name + "' is implemented at effective " +
                     to_long_string(eff) + " (Eq. 3), below the inherited " +
                     to_long_string(inherited) +
                     " requirement the decomposition must be assessed at",
                 ModelLocation::app_node(m, n),
                 "remap '" + node.name + "' onto " + to_long_string(inherited) +
                     "-ready hardware"});
        }
    }
}

/// IssueCode i (DuplicateName is the last) is reported by catalogue row i.
constexpr std::size_t kValidatorRules = static_cast<std::size_t>(IssueCode::DuplicateName) + 1;

constexpr auto kRules = std::to_array<RuleInfo>({
    // validate()'s checks, in IssueCode order.
    {"map.unmapped-node", Severity::Error, "mapping",
     "application node with no implementing resource"},
    {"map.incompatible-mapping", Severity::Error, "mapping",
     "node kind cannot run on the mapped resource kind"},
    {"map.under-implemented-asil", Severity::Warning, "mapping",
     "effective ASIL (Eq. 3) below the node's requirement"},
    {"map.unplaced-resource", Severity::Warning, "resource+physical",
     "resource hosted at no physical location"},
    {"app.bad-splitter-degree", Severity::Error, "app",
     "splitter without >=1 input and >=2 outputs"},
    {"app.bad-merger-degree", Severity::Error, "app",
     "merger without >=2 inputs and >=1 output"},
    {"app.ill-formed-block", Severity::Error, "app",
     "redundant block structure broken (overlap / missing splitter)"},
    {"asil.decomposition.under-achieved", Severity::Warning, "app+mapping",
     "block ASIL (Eq. 4) below the inherited requirement"},
    {"app.unreachable-actuator", Severity::Warning, "app", "actuator not fed by any sensor"},
    {"app.dangling-sensor", Severity::Warning, "app", "sensor with no path to any actuator"},
    {"model.duplicate-name", Severity::Error, "app+resource+physical",
     "two application nodes, resources or locations share a name"},
    // Cross-layer rules beyond the validator.
    {"asil.decomposition.invalid-pattern", Severity::Error, "app",
     "decomposition tags outside the Fig. 2 catalogue", check_invalid_pattern},
    {"ccf.shared-resource-branch", Severity::Error, "app+resource",
     "decomposed branches share a hardware resource", check_shared_resource_branch},
    {"ccf.shared-location-branch", Severity::Warning, "app+resource+physical",
     "decomposed branches share a physical location", check_shared_location_branch},
    {"ccf.shared-environment-branch", Severity::Warning, "app+resource+physical",
     "decomposed branches share an environmental stressor zone",
     check_shared_environment_branch},
    {"asil.propagation.path-inconsistency", Severity::Warning, "app",
     "channel feeds a higher-ASIL consumer from a lower-ASIL producer", check_path_inconsistency},
    {"transform.dead-splitter-merger", Severity::Warning, "app",
     "splitter/merger pair whose branches are all empty", check_dead_splitter_merger},
    {"transform.reducible-pair", Severity::Note, "app+resource",
     "consecutive communication pair Reduce() would collapse", check_reducible_pair},
    {"map.effective-asil-regression", Severity::Warning, "app+resource+mapping",
     "mapping drops redundancy management below the inherited level",
     check_effective_asil_regression},
});

constexpr bool validator_rows_first() {
    for (std::size_t i = 0; i < kRules.size(); ++i) {
        if ((kRules[i].check == nullptr) != (i < kValidatorRules)) return false;
    }
    return true;
}
static_assert(validator_rows_first());

}  // namespace

std::span<const RuleInfo> rules() noexcept { return kRules; }

const RuleInfo* find_rule(std::string_view id) noexcept {
    const auto it = std::find_if(kRules.begin(), kRules.end(),
                                 [id](const RuleInfo& rule) { return rule.id == id; });
    return it == kRules.end() ? nullptr : &*it;
}

LintReport run_lint(const ArchitectureModel& m, const LintOptions& options) {
    // validate() interleaves checks that share a loop; lint reports rule
    // by rule, so bucket its issues by code first.
    ValidationReport validation = validate(m);
    std::array<std::vector<ValidationIssue>, kValidatorRules> issues;
    for (ValidationIssue& issue : validation.issues) {
        issues[static_cast<std::size_t>(issue.code)].push_back(std::move(issue));
    }
    const LintContext ctx(m);
    LintReport report;
    std::vector<Finding> findings;
    for (std::size_t i = 0; i < kRules.size(); ++i) {
        const RuleInfo& rule = kRules[i];
        const Severity severity = options.config.effective(rule);
        if (severity == Severity::Off) continue;
        findings.clear();
        if (rule.check != nullptr) {
            rule.check(ctx, findings);
        } else {
            for (ValidationIssue& issue : issues[i]) {
                findings.push_back(validator_finding(m, std::move(issue)));
            }
        }
        for (Finding& f : findings) {
            report.diagnostics.push_back({std::string(rule.id), severity, std::move(f.message),
                                          std::move(f.location), std::move(f.fixit)});
        }
    }
    return report;
}

}  // namespace asilkit::lint
