#include "model/blocks.h"

#include <algorithm>
#include <ostream>
#include <unordered_set>
#include <utility>

namespace asilkit {
namespace {

/// Traces one branch backwards from `start` (a predecessor of the merger)
/// until splitters; appends discovered splitters to `splitters`.
Branch trace_branch(const ArchitectureModel& m, NodeId start,
                    std::vector<NodeId>& splitters, std::vector<std::string>& issues) {
    const AppGraph& g = m.app();
    Branch branch;
    std::unordered_set<NodeId> seen;
    std::vector<NodeId> stack{start};
    while (!stack.empty()) {
        const NodeId n = stack.back();
        stack.pop_back();
        if (!seen.insert(n).second) continue;
        const AppNode& node = g.node(n);
        if (node.kind == NodeKind::Splitter) {
            if (std::find(splitters.begin(), splitters.end(), n) == splitters.end()) {
                splitters.push_back(n);
            }
            if (std::find(branch.feeding_splitters.begin(), branch.feeding_splitters.end(), n) ==
                branch.feeding_splitters.end()) {
                branch.feeding_splitters.push_back(n);
            }
            continue;  // block boundary
        }
        if (node.kind == NodeKind::Merger) {
            // A nested merger ends this branch: its own block is a unit
            // inside the branch.  We keep it as a branch node and do not
            // traverse past it.
            branch.nodes.push_back(n);
            continue;
        }
        branch.nodes.push_back(n);
        const auto preds = g.predecessors(n);
        if (preds.empty()) {
            // A branch must be bounded by a splitter; hitting a source
            // node first means the merger compares non-replicated inputs.
            issues.push_back("branch starting at '" + g.node(start).name + "' reaches source '" +
                             node.name + "' without crossing a splitter");
        }
        for (NodeId p : preds) stack.push_back(p);
    }
    return branch;
}

/// One use per id of the (id, branch) pairs, by ascending id, each with
/// its branches ascending and once.
template <typename Id>
std::vector<BranchUse<Id>> group_uses(std::vector<std::pair<Id, std::size_t>>& pairs) {
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    std::vector<BranchUse<Id>> uses;
    for (const auto& [id, branch] : pairs) {
        if (uses.empty() || uses.back().id != id) uses.push_back({id, {}});
        uses.back().branches.push_back(branch);
    }
    return uses;
}

}  // namespace

RedundantBlock find_block_at_merger(const ArchitectureModel& m, NodeId merger) {
    const AppGraph& g = m.app();
    RedundantBlock block;
    block.merger = merger;
    if (g.node(merger).kind != NodeKind::Merger) {
        block.well_formed = false;
        block.issues.push_back("node '" + g.node(merger).name + "' is not a merger");
        return block;
    }
    for (ChannelId e : g.in_edges(merger)) {
        block.branches.push_back(trace_branch(m, g.edge(e).source, block.splitters, block.issues));
    }
    // No block-level "must have a splitter" rule: a branch may be bounded
    // by a NESTED merger instead (a block inside the branch), which the
    // per-branch trace records by ending at that merger.  A branch that
    // reaches a source without any boundary was already reported above.
    if (block.branches.size() < 2) {
        block.issues.push_back("merger '" + g.node(merger).name + "' has fewer than two inputs");
    }
    // Branch disjointness: shared nodes break the independence argument.
    std::unordered_set<NodeId> all;
    for (const Branch& b : block.branches) {
        for (NodeId n : b.nodes) {
            if (!all.insert(n).second) {
                block.issues.push_back("node '" + g.node(n).name + "' is shared between branches");
            }
        }
    }
    block.well_formed = block.issues.empty();
    return block;
}

std::vector<RedundantBlock> find_redundant_blocks(const ArchitectureModel& m) {
    std::vector<RedundantBlock> out;
    for (NodeId n : m.app().node_ids()) {
        if (m.app().node(n).kind == NodeKind::Merger) {
            out.push_back(find_block_at_merger(m, n));
        }
    }
    return out;
}

BranchUsage branch_usage(const ArchitectureModel& m, const RedundantBlock& block) {
    std::vector<std::pair<ResourceId, std::size_t>> resources;
    std::vector<std::pair<LocationId, std::size_t>> locations;
    for (std::size_t i = 0; i < block.branches.size(); ++i) {
        for (const NodeId n : block.branches[i].nodes) {
            for (const ResourceId r : m.mapped_resources(n)) {
                resources.emplace_back(r, i);
                for (const LocationId p : m.resource_locations(r)) locations.emplace_back(p, i);
            }
        }
    }
    return {group_uses(resources), group_uses(locations)};
}

Asil branch_asil(const ArchitectureModel& m, const Branch& b) {
    if (b.nodes.empty()) return Asil::D;  // neutral: bounded by splitter/merger in Eq. 4
    Asil a = Asil::D;
    for (NodeId n : b.nodes) a = asil_min(a, m.effective_asil(n));
    return a;
}

Asil inherited_asil(const ArchitectureModel& m, const RedundantBlock& block) {
    Asil inherited = m.app().node(block.merger).asil.inherited;
    for (NodeId s : block.splitters) {
        inherited = asil_max(inherited, m.app().node(s).asil.inherited);
    }
    return inherited;
}

Asil block_asil(const ArchitectureModel& m, const RedundantBlock& block) {
    Asil bound = Asil::D;
    for (NodeId s : block.splitters) bound = asil_min(bound, m.effective_asil(s));
    bound = asil_min(bound, m.effective_asil(block.merger));
    Asil sum = Asil::QM;
    for (const Branch& b : block.branches) sum = asil_sum(sum, branch_asil(m, b));
    return asil_min(bound, sum);
}

std::ostream& operator<<(std::ostream& os, const RedundantBlock& b) {
    os << "block(merger=" << b.merger << ", splitters=" << b.splitters.size() << ", branches=[";
    for (std::size_t i = 0; i < b.branches.size(); ++i) {
        if (i) os << ", ";
        os << b.branches[i].nodes.size();
    }
    os << "]" << (b.well_formed ? "" : ", ill-formed") << ")";
    return os;
}

}  // namespace asilkit
