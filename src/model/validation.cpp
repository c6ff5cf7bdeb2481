#include "model/validation.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "core/error.h"
#include "graph/algorithms.h"
#include "model/blocks.h"

namespace asilkit {

std::string_view to_string(IssueCode c) noexcept {
    switch (c) {
        case IssueCode::UnmappedNode: return "unmapped-node";
        case IssueCode::IncompatibleMapping: return "incompatible-mapping";
        case IssueCode::UnderImplementedAsil: return "under-implemented-asil";
        case IssueCode::UnplacedResource: return "unplaced-resource";
        case IssueCode::BadSplitterDegree: return "bad-splitter-degree";
        case IssueCode::BadMergerDegree: return "bad-merger-degree";
        case IssueCode::IllFormedBlock: return "ill-formed-block";
        case IssueCode::InvalidDecomposition: return "invalid-decomposition";
        case IssueCode::UnreachableActuator: return "unreachable-actuator";
        case IssueCode::DanglingSensor: return "dangling-sensor";
        case IssueCode::DuplicateName: return "duplicate-name";
    }
    return "?";
}

std::string_view to_string(IssueSeverity s) noexcept {
    return s == IssueSeverity::Error ? "error" : "warning";
}

std::ostream& operator<<(std::ostream& os, const ValidationIssue& issue) {
    return os << to_string(issue.severity) << " [" << to_string(issue.code) << "] "
              << issue.message;
}

std::size_t ValidationReport::error_count() const noexcept {
    return static_cast<std::size_t>(std::count_if(
        issues.begin(), issues.end(),
        [](const ValidationIssue& i) { return i.severity == IssueSeverity::Error; }));
}

std::size_t ValidationReport::warning_count() const noexcept {
    return issues.size() - error_count();
}

bool ValidationReport::has(IssueCode c) const noexcept {
    return std::any_of(issues.begin(), issues.end(),
                       [c](const ValidationIssue& i) { return i.code == c; });
}

namespace {

void check_mapping(const ArchitectureModel& m, ValidationReport& report) {
    for (NodeId n : m.app().node_ids()) {
        const AppNode& node = m.app().node(n);
        const auto& rs = m.mapped_resources(n);
        if (rs.empty()) {
            report.issues.push_back({IssueSeverity::Error, IssueCode::UnmappedNode,
                                     "application node '" + node.name + "' is not mapped to any resource",
                                     n, {}, {}});
            continue;
        }
        for (ResourceId r : rs) {
            const Resource& res = m.resources().node(r);
            if (!mapping_compatible(node.kind, res.kind)) {
                report.issues.push_back(
                    {IssueSeverity::Error, IssueCode::IncompatibleMapping,
                     "node '" + node.name + "' (" + std::string(to_string(node.kind)) +
                         ") mapped on incompatible resource '" + res.name + "' (" +
                         std::string(to_string(res.kind)) + ")",
                     n, {}, {}});
            }
        }
        const Asil eff = m.effective_asil(n);
        if (asil_value(eff) < asil_value(node.asil.level)) {
            report.issues.push_back(
                {IssueSeverity::Warning, IssueCode::UnderImplementedAsil,
                 "node '" + node.name + "' requires " + to_long_string(node.asil.level) +
                     " but its mapping only provides " + to_long_string(eff),
                 n, {}, {}});
        }
    }
    for (ResourceId r : m.resources().node_ids()) {
        if (m.resource_locations(r).empty()) {
            report.issues.push_back({IssueSeverity::Warning, IssueCode::UnplacedResource,
                                     "resource '" + m.resources().node(r).name +
                                         "' has no physical location",
                                     {}, r, {}});
        }
    }
}

void check_degrees(const ArchitectureModel& m, ValidationReport& report) {
    const AppGraph& g = m.app();
    for (NodeId n : g.node_ids()) {
        const AppNode& node = g.node(n);
        if (node.kind == NodeKind::Splitter &&
            (g.in_degree(n) < 1 || g.out_degree(n) < 2)) {
            report.issues.push_back({IssueSeverity::Error, IssueCode::BadSplitterDegree,
                                     "splitter '" + node.name + "' must have >=1 input and >=2 outputs",
                                     n, {}, {}});
        }
        if (node.kind == NodeKind::Merger &&
            (g.in_degree(n) < 2 || g.out_degree(n) < 1)) {
            report.issues.push_back({IssueSeverity::Error, IssueCode::BadMergerDegree,
                                     "merger '" + node.name + "' must have >=2 inputs and >=1 output",
                                     n, {}, {}});
        }
    }
}

void check_blocks(const ArchitectureModel& m, ValidationReport& report) {
    for (const RedundantBlock& block : find_redundant_blocks(m)) {
        const std::string merger_name = m.app().node(block.merger).name;
        if (!block.well_formed) {
            for (const std::string& why : block.issues) {
                report.issues.push_back({IssueSeverity::Error, IssueCode::IllFormedBlock,
                                         "block at merger '" + merger_name + "': " + why,
                                         block.merger, {}, {}});
            }
            continue;
        }
        // The block must still satisfy the requirement it decomposes:
        // verify Eq. 4 reaches the inherited level.
        const Asil inherited = inherited_asil(m, block);
        const Asil achieved = block_asil(m, block);
        if (asil_value(achieved) < asil_value(inherited)) {
            report.issues.push_back(
                {IssueSeverity::Warning, IssueCode::InvalidDecomposition,
                 "block at merger '" + merger_name + "' achieves " + to_long_string(achieved) +
                     " but inherits a " + to_long_string(inherited) + " requirement",
                 block.merger, {}, {}});
        }
    }
}

void check_reachability(const ArchitectureModel& m, ValidationReport& report) {
    const AppGraph& g = m.app();
    std::vector<NodeId> sensors;
    std::vector<NodeId> actuators;
    for (NodeId n : g.node_ids()) {
        const NodeKind k = g.node(n).kind;
        if (k == NodeKind::Sensor) sensors.push_back(n);
        if (k == NodeKind::Actuator) actuators.push_back(n);
    }
    std::unordered_set<NodeId> fed;  // nodes reachable from any sensor
    for (NodeId s : sensors) {
        for (NodeId n : graph::reachable_from(g, s)) fed.insert(n);
    }
    std::unordered_set<NodeId> feeding;  // nodes reaching any actuator
    for (NodeId a : actuators) {
        for (NodeId n : graph::reaching(g, a)) feeding.insert(n);
    }
    for (NodeId a : actuators) {
        if (!fed.contains(a)) {
            report.issues.push_back({IssueSeverity::Warning, IssueCode::UnreachableActuator,
                                     "actuator '" + g.node(a).name + "' is not fed by any sensor",
                                     a, {}, {}});
        }
    }
    for (NodeId s : sensors) {
        if (!feeding.contains(s)) {
            report.issues.push_back({IssueSeverity::Warning, IssueCode::DanglingSensor,
                                     "sensor '" + g.node(s).name + "' does not reach any actuator",
                                     s, {}, {}});
        }
    }
}

/// One DuplicateName error per name that several elements of `graph`
/// carry (`what`, plural), listing their ids ascending, anchored at the
/// first through `anchor`; in name order.  Each element is its own
/// basic event, but reports and CLI options name them.
template <class Graph>
void check_layer_names(const Graph& graph, const char* what,
                       typename Graph::node_id ValidationIssue::*anchor,
                       ValidationReport& report) {
    std::vector<std::pair<std::string_view, typename Graph::node_id>> named;
    for (const auto id : graph.node_ids()) named.emplace_back(graph.node(id).name, id);
    std::sort(named.begin(), named.end());
    for (std::size_t i = 0, j = 0; i < named.size(); i = j) {
        std::string ids = std::to_string(named[i].second.value());
        for (j = i + 1; j < named.size() && named[j].first == named[i].first; ++j) {
            ids += (j + 1 < named.size() && named[j + 1].first == named[i].first ? ", " : " and ") +
                   std::to_string(named[j].second.value());
        }
        if (j - i == 1) continue;
        ValidationIssue issue{IssueSeverity::Error, IssueCode::DuplicateName,
                              std::string(what) + " " + ids + " share the name '" +
                                  std::string(named[i].first) + "'",
                              {}, {}, {}};
        issue.*anchor = named[i].second;
        report.issues.push_back(std::move(issue));
    }
}

void check_names(const ArchitectureModel& m, ValidationReport& report) {
    check_layer_names(m.app(), "application nodes", &ValidationIssue::node, report);
    check_layer_names(m.resources(), "resources", &ValidationIssue::resource, report);
    check_layer_names(m.physical(), "locations", &ValidationIssue::location, report);
}

}  // namespace

ValidationReport validate(const ArchitectureModel& m) {
    ValidationReport report;
    check_mapping(m, report);
    check_degrees(m, report);
    check_blocks(m, report);
    check_reachability(m, report);
    check_names(m, report);
    return report;
}

void validate_or_throw(const ArchitectureModel& m) {
    const ValidationReport report = validate(m);
    if (report.error_count() == 0) return;
    std::ostringstream oss;
    oss << "model '" << m.name() << "' failed validation:";
    for (const ValidationIssue& issue : report.issues) {
        if (issue.severity == IssueSeverity::Error) oss << "\n  " << issue;
    }
    throw ModelError(oss.str());
}

}  // namespace asilkit
