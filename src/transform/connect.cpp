#include "transform/connect.h"

#include <algorithm>
#include <optional>

#include "core/error.h"
#include "model/blocks.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace asilkit::transform {
namespace {

struct ConnectPlan {
    RedundantBlock block1;
    RedundantBlock block2;
    NodeId comm;      ///< c
    NodeId splitter;  ///< f_s
    /// (block-1 branch tail, block-2 branch head) pairs, ASIL-matched.
    std::vector<std::pair<NodeId, NodeId>> stitched;
};

/// Index of the branch whose nodes contain `n`; nullopt when absent.
std::optional<std::size_t> branch_of(const RedundantBlock& block, NodeId n) {
    for (std::size_t i = 0; i < block.branches.size(); ++i) {
        const auto& nodes = block.branches[i].nodes;
        if (std::find(nodes.begin(), nodes.end(), n) != nodes.end()) return i;
    }
    return std::nullopt;
}

/// Builds the full plan or explains why it cannot be built; `blocks` is
/// find_redundant_blocks(m).
std::optional<ConnectPlan> plan_connect(const ArchitectureModel& m, NodeId merger,
                                        const std::vector<RedundantBlock>& blocks,
                                        std::string* why) {
    auto fail = [&](std::string reason) -> std::optional<ConnectPlan> {
        if (why) *why = std::move(reason);
        return std::nullopt;
    };
    const AppGraph& g = m.app();
    if (!g.contains(merger) || g.node(merger).kind != NodeKind::Merger) {
        return fail("node is not a merger");
    }

    // Locate the n_m -> c -> f_s chain.
    if (g.out_degree(merger) != 1) return fail("merger must have exactly one output");
    const NodeId comm = g.successors(merger).front();
    if (g.node(comm).kind != NodeKind::Communication) {
        return fail("merger's successor is not a communication node");
    }
    // Condition 3: c touches nothing but n_m and f_s.
    if (g.in_degree(comm) != 1 || g.out_degree(comm) != 1) {
        return fail("middle communication node '" + g.node(comm).name +
                    "' is connected to external nodes");
    }
    const NodeId splitter = g.successors(comm).front();
    if (g.node(splitter).kind != NodeKind::Splitter) {
        return fail("communication node's successor is not a splitter");
    }
    if (g.in_degree(splitter) != 1) return fail("downstream splitter has external inputs");

    ConnectPlan plan;
    plan.comm = comm;
    plan.splitter = splitter;
    const auto upper = std::find_if(blocks.begin(), blocks.end(),
                                    [&](const RedundantBlock& b) { return b.merger == merger; });
    plan.block1 = *upper;  // every merger heads one block
    if (!plan.block1.well_formed) return fail("upstream block is ill-formed");

    // The downstream block: the (unique) block having f_s among its splitters.
    const RedundantBlock* below = nullptr;
    for (const RedundantBlock& candidate : blocks) {
        if (std::find(candidate.splitters.begin(), candidate.splitters.end(), splitter) !=
            candidate.splitters.end()) {
            if (below) return fail("downstream splitter feeds more than one block");
            below = &candidate;
        }
    }
    if (!below) return fail("no redundant block found downstream of the splitter");
    if (!below->well_formed) return fail("downstream block is ill-formed");
    plan.block2 = *below;

    // Condition 2: same number of branches.
    if (plan.block1.branches.size() != plan.block2.branches.size()) {
        return fail("blocks have different branch counts");
    }
    // Condition 1: same block ASIL.
    if (block_asil(m, plan.block1) != block_asil(m, plan.block2)) {
        return fail("blocks have different ASIL values");
    }

    // Identify branch tails of block 1 (merger-side neighbours) and branch
    // heads of block 2 (splitter-side neighbours).
    struct Endpoint {
        NodeId node;
        std::size_t branch;
        Asil asil;
    };
    std::vector<Endpoint> tails;
    for (NodeId tail : g.predecessors(merger)) {
        const auto b = branch_of(plan.block1, tail);
        if (!b) return fail("merger input does not belong to any branch of its block");
        tails.push_back({tail, *b, branch_asil(m, plan.block1.branches[*b])});
    }
    std::vector<Endpoint> heads;
    for (NodeId head : g.successors(splitter)) {
        const auto b = branch_of(plan.block2, head);
        if (!b) return fail("splitter output does not belong to any branch of its block");
        heads.push_back({head, *b, branch_asil(m, plan.block2.branches[*b])});
    }
    if (tails.size() != heads.size()) {
        return fail("merger input count differs from splitter output count");
    }

    // Condition 4: ASIL-matched pairing (sort both sides by level).
    auto by_asil = [](const Endpoint& a, const Endpoint& b) {
        if (a.asil != b.asil) return asil_value(a.asil) < asil_value(b.asil);
        return a.node < b.node;
    };
    std::sort(tails.begin(), tails.end(), by_asil);
    std::sort(heads.begin(), heads.end(), by_asil);
    for (std::size_t i = 0; i < tails.size(); ++i) {
        if (tails[i].asil != heads[i].asil) {
            return fail("no branch-by-branch ASIL match between the two blocks");
        }
        plan.stitched.emplace_back(tails[i].node, heads[i].node);
    }
    return plan;
}

}  // namespace

bool can_connect(const ArchitectureModel& m, NodeId merger, std::string* why) {
    return plan_connect(m, merger, find_redundant_blocks(m), why).has_value();
}

ConnectResult connect(ArchitectureModel& m, NodeId merger) {
    static obs::Counter& ops = obs::Registry::global().counter("transform.connect.ops");
    ops.inc();
    const obs::ObsSpan span("connect", "transform");
    std::string why;
    auto plan = plan_connect(m, merger, find_redundant_blocks(m), &why);
    if (!plan) {
        throw TransformError("Connect(" +
                             (m.app().contains(merger) ? m.app().node(merger).name
                                                       : std::string("<unknown>")) +
                             "): " + why);
    }
    ConnectResult result;
    result.removed_merger = merger;
    result.removed_comm = plan->comm;
    result.removed_splitter = plan->splitter;
    result.stitched = plan->stitched;

    for (const auto& [tail, head] : plan->stitched) {
        m.connect_app(tail, head);
    }
    m.erase_app_node(merger, /*drop_dedicated_resources=*/true);
    m.erase_app_node(plan->comm, /*drop_dedicated_resources=*/true);
    m.erase_app_node(plan->splitter, /*drop_dedicated_resources=*/true);
    return result;
}

std::vector<NodeId> find_connectable(const ArchitectureModel& m) {
    const std::vector<RedundantBlock> blocks = find_redundant_blocks(m);
    std::vector<NodeId> out;
    for (const RedundantBlock& block : blocks) {
        if (plan_connect(m, block.merger, blocks, nullptr)) out.push_back(block.merger);
    }
    return out;
}

std::size_t connect_all(ArchitectureModel& m) {
    std::size_t merges = 0;
    for (;;) {
        const std::vector<NodeId> candidates = find_connectable(m);
        if (candidates.empty()) return merges;
        connect(m, candidates.front());
        ++merges;
    }
}

}  // namespace asilkit::transform
