#include "ftree/builder.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "core/hash.h"
#include "model/blocks.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace asilkit::ftree {
namespace {

/// Collects the base-event names an application node would contribute
/// (used for the branch-independence check before approximating a block).
void collect_event_names(const ArchitectureModel& m, NodeId n, bool with_locations,
                         std::unordered_set<std::string>& out) {
    for (ResourceId r : m.mapped_resources(n)) {
        out.insert(std::string(kResourceEventPrefix) + m.resources().node(r).name);
        if (with_locations) {
            for (LocationId p : m.resource_locations(r)) {
                out.insert(std::string(kLocationEventPrefix) + m.physical().node(p).name);
            }
        }
    }
}

[[nodiscard]] std::uint64_t double_bits(double d) noexcept {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

/// Up to 8 bytes at `p` as one little-endian word, zero-padded.
[[nodiscard]] std::uint64_t le_word(const char* p, std::size_t n) noexcept {
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < n; ++b) {
        word |= std::uint64_t{static_cast<unsigned char>(p[b])} << (8 * b);
    }
    return word;
}

/// Deterministic string fold (std::hash is implementation-defined, and a
/// fingerprint should not drift across standard libraries): the length,
/// then one mix per little-endian 8-byte word, the last one zero-padded.
/// The length keeps trailing NUL bytes apart from the padding.
[[nodiscard]] std::uint64_t string_hash(std::string_view s) noexcept {
    std::uint64_t h = hash::combine(0x737472ull /* "str" */, s.size());
    std::size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) h = hash::combine(h, le_word(s.data() + i, 8));
    if (i < s.size()) h = hash::combine(h, le_word(s.data() + i, s.size() - i));
    return h;
}

[[nodiscard]] std::uint64_t option_bits(const FtBuildOptions& o) noexcept {
    return (o.approximate ? 1u : 0u) | (o.include_location_events ? 2u : 0u) |
           (o.include_qm_actuators ? 4u : 0u);
}

class Builder {
public:
    Builder(const ArchitectureModel& m, const FtBuildOptions& options, BuildWorkspace& ws)
        : m_(m),
          options_(options),
          memo_(ws.gate_of_node),
          on_stack_(ws.on_stack),
          resource_event_(ws.resource_event),
          location_event_(ws.location_event) {
        memo_.assign(m.app().node_capacity(), std::nullopt);
        on_stack_.assign(m.app().node_capacity(), 0);
        resource_event_.assign(m.resources().node_capacity(), std::nullopt);
        location_event_.assign(m.physical().node_capacity(), std::nullopt);
        // At most one event per resource and location, and per node its
        // gate plus, for a merger, an AND gate and one approximated
        // input per in-edge; one more for the top OR.
        std::size_t gates = 1;
        for (const NodeId n : m.app().node_ids()) {
            gates += m.app().node(n).kind == NodeKind::Merger ? 2 + m.app().in_edges(n).size() : 1;
        }
        result_.tree.reserve(m.resources().node_count() + m.physical().node_count(), gates);
    }

    FtBuildResult run() {
        std::vector<NodeId> actuators;
        std::vector<NodeId> qm_actuators;
        for (NodeId n : m_.app().node_ids()) {
            if (m_.app().node(n).kind != NodeKind::Actuator) continue;
            if (m_.app().node(n).asil.level == Asil::QM && !options_.include_qm_actuators) {
                qm_actuators.push_back(n);
            } else {
                actuators.push_back(n);
            }
        }
        if (actuators.empty()) actuators = std::move(qm_actuators);
        if (actuators.empty()) {
            throw AnalysisError("fault-tree generation requires at least one actuator node");
        }
        if (options_.approximate) index_blocks();

        std::vector<FtRef> tops;
        for (NodeId a : actuators) {
            if (auto g = gate_for(a)) tops.push_back(*g);
        }
        if (tops.size() == 1) {
            result_.tree.set_top(tops.front());
        } else {
            result_.tree.set_top(result_.tree.add_gate("system_failure", GateKind::Or, tops));
        }
        return std::move(result_);
    }

private:
    /// Caches the block headed by each merger and whether it may be
    /// approximated (well-formed + branch base-event independence).
    void index_blocks() {
        for (RedundantBlock& block : find_redundant_blocks(m_)) {
            bool collapsible = block.well_formed;
            if (collapsible) {
                // Branch independence: pairwise disjoint base-event sets.
                std::vector<std::unordered_set<std::string>> branch_events;
                for (const Branch& b : block.branches) {
                    std::unordered_set<std::string> events;
                    for (NodeId n : b.nodes) {
                        collect_event_names(m_, n, options_.include_location_events, events);
                    }
                    branch_events.push_back(std::move(events));
                }
                for (std::size_t i = 0; collapsible && i < branch_events.size(); ++i) {
                    for (std::size_t j = i + 1; collapsible && j < branch_events.size(); ++j) {
                        for (const std::string& e : branch_events[i]) {
                            if (branch_events[j].contains(e)) {
                                result_.warnings.push_back(
                                    "approximation disabled for block at merger '" +
                                    m_.app().node(block.merger).name +
                                    "': branches share base event '" + e +
                                    "' (potential common cause fault)");
                                collapsible = false;
                                break;
                            }
                        }
                    }
                }
                for (const Branch& b : block.branches) {
                    if (b.feeding_splitters.empty()) collapsible = false;
                }
            }
            const NodeId merger = block.merger;
            blocks_.emplace(merger, std::pair{std::move(block), collapsible});
        }
    }

    /// Resource `r`'s res: event, added on its first reference.
    FtRef resource_event(ResourceId r) {
        std::optional<FtRef>& event = resource_event_[r.value()];
        if (!event) {
            const Resource& res = m_.resources().node(r);
            event = result_.tree.add_basic_event(std::string(kResourceEventPrefix) + res.name,
                                                 options_.rates.resource_rate(res));
        }
        return *event;
    }

    /// Location `p`'s loc: event, added on its first reference.
    FtRef location_event(LocationId p) {
        std::optional<FtRef>& event = location_event_[p.value()];
        if (!event) {
            const Location& loc = m_.physical().node(p);
            event = result_.tree.add_basic_event(std::string(kLocationEventPrefix) + loc.name,
                                                 options_.rates.location_rate(loc));
        }
        return *event;
    }

    /// Adds the intrinsic base events of `n` to `children`: per mapped
    /// resource its res: event, then one loc: event per hosting location.
    void add_intrinsic_events(NodeId n, std::vector<FtRef>& children) {
        const auto& resources = m_.mapped_resources(n);
        if (resources.empty()) {
            result_.warnings.push_back("node '" + m_.app().node(n).name +
                                       "' has no mapped resource; it contributes no base event");
        }
        for (ResourceId r : resources) {
            children.push_back(resource_event(r));
            if (options_.include_location_events) {
                for (LocationId p : m_.resource_locations(r)) children.push_back(location_event(p));
            }
        }
        // A resource mapped twice (e.g. a node on two shared ECUs in one
        // location) must not OR the same event twice; dedup keeps gate
        // child lists canonical.
        std::sort(children.begin(), children.end(), [](FtRef a, FtRef b) {
            return std::pair{a.kind, a.index} < std::pair{b.kind, b.index};
        });
        children.erase(std::unique(children.begin(), children.end()), children.end());
    }

    /// How many events add_intrinsic_events adds for `n` before dedup.
    [[nodiscard]] std::size_t intrinsic_event_count(NodeId n) const {
        std::size_t count = 0;
        for (ResourceId r : m_.mapped_resources(n)) {
            count += 1 + (options_.include_location_events ? m_.resource_locations(r).size() : 0);
        }
        return count;
    }

    /// OR of a gate set, hash-consed on the (sorted, deduplicated) child
    /// set so that structurally identical inputs yield the same FtRef.
    FtRef or_of(std::vector<FtRef> gates, const std::string& name) {
        std::sort(gates.begin(), gates.end(), [](FtRef a, FtRef b) {
            return std::pair{a.kind, a.index} < std::pair{b.kind, b.index};
        });
        gates.erase(std::unique(gates.begin(), gates.end()), gates.end());
        if (gates.size() == 1) return gates.front();
        std::vector<std::uint64_t> key;
        key.reserve(gates.size());
        for (FtRef g : gates) {
            key.push_back((static_cast<std::uint64_t>(g.kind) << 32) | g.index);
        }
        if (auto it = or_cache_.find(key); it != or_cache_.end()) return it->second;
        const FtRef gate = result_.tree.add_gate(name, GateKind::Or, std::move(gates));
        or_cache_.emplace(std::move(key), gate);
        return gate;
    }

    /// One application node whose failure gate is under construction:
    /// the recursion "intrinsic events, then each input's gate, then the
    /// node's OR gate" with its locals on the heap.  A merger gathers its
    /// AND inputs in `inputs` — its predecessors' gates or, under the
    /// approximation (`block` set), the current branch's splitter gates,
    /// each finished branch leaving their OR in `branch_inputs`.
    struct Frame {
        NodeId node;
        bool merger = false;
        const RedundantBlock* block = nullptr;
        std::vector<FtRef> children;
        std::vector<FtRef> inputs;
        std::vector<FtRef> branch_inputs;
        std::size_t branch = 0;
        std::size_t next = 0;  ///< next in-edge, or next splitter of `branch`
    };

    /// Failure gate of application node `root`; nullopt when `root` is on
    /// the traversal stack (cycle cut).  A depth-first walk on an
    /// explicit frame stack, so a deep application graph costs heap, not
    /// call stack.  It issues add_basic_event/add_gate in the order of
    /// the recursive definition — intrinsic events on entry, each
    /// approximated branch's OR right after its last splitter returns,
    /// the AND gate and then the node gate on exit — and that order fixes
    /// every event and gate index.
    std::optional<FtRef> gate_for(NodeId root) {
        std::optional<FtRef> answer;
        if (!answered(root, answer)) enter(root);
        while (!stack_.empty()) {
            if (const std::optional<NodeId> input = next_input(stack_.back())) {
                if (!answered(*input, answer)) {
                    enter(*input);
                    continue;
                }
            } else {
                answer = leave(stack_.back());
                stack_.pop_back();
                if (stack_.empty()) break;
            }
            Frame& caller = stack_.back();
            if (answer) (caller.merger ? caller.inputs : caller.children).push_back(*answer);
        }
        return answer;
    }

    /// A call answered without a frame: a memoised gate, or nullopt for a
    /// node already on the stack (a back edge, cut).
    bool answered(NodeId n, std::optional<FtRef>& answer) {
        if (memo_[n.value()]) {
            answer = memo_[n.value()];
            return true;
        }
        if (on_stack_[n.value()]) {
            ++result_.cycles_cut;
            answer.reset();
            return true;
        }
        return false;
    }

    void enter(NodeId n) {
        on_stack_[n.value()] = true;
        Frame frame;
        frame.node = n;
        frame.merger = m_.app().node(n).kind == NodeKind::Merger;
        // The gate's child list is final once reserved: its events, then
        // each input's gate, or a merger's one AND input.
        const std::size_t inputs = m_.app().in_edges(n).size();
        frame.children.reserve(intrinsic_event_count(n) + (frame.merger ? 1 : inputs));
        add_intrinsic_events(n, frame.children);
        if (frame.merger && options_.approximate) {
            if (auto it = blocks_.find(n); it != blocks_.end() && it->second.second) {
                frame.block = &it->second.first;
            }
        }
        if (frame.merger && frame.block == nullptr) frame.inputs.reserve(inputs);
        stack_.push_back(std::move(frame));
    }

    /// The next node whose gate `f` needs, or nullopt when all are in.
    /// An approximated merger's inputs are the splitters feeding each of
    /// its branches in turn; one input per branch — the (OR of the)
    /// splitter gates — is formed as soon as that branch is done.
    std::optional<NodeId> next_input(Frame& f) {
        if (f.block == nullptr) {
            const AppGraph& g = m_.app();
            const std::vector<ChannelId>& in = g.in_edges(f.node);
            if (f.next < in.size()) return g.edge(in[f.next++]).source;
            return std::nullopt;
        }
        for (; f.branch < f.block->branches.size(); ++f.branch, f.next = 0) {
            const Branch& b = f.block->branches[f.branch];
            if (f.next < b.feeding_splitters.size()) return b.feeding_splitters[f.next++];
            if (!f.inputs.empty()) {
                f.branch_inputs.push_back(
                    or_of(std::move(f.inputs), "approx_in:" + m_.app().node(f.node).name));
                f.inputs.clear();
            }
        }
        return std::nullopt;
    }

    /// Closes `f`: a merger's AND gate, then the node's OR gate.
    FtRef leave(Frame& f) {
        const AppNode& node = m_.app().node(f.node);
        if (f.merger) {
            if (auto input = merger_input_gate(f, node.name)) f.children.push_back(*input);
        }
        const FtRef gate = result_.tree.add_gate(std::string(kNodeGatePrefix) + node.name,
                                                 GateKind::Or, std::move(f.children));
        on_stack_[f.node.value()] = false;
        memo_[f.node.value()] = gate;
        return gate;
    }

    /// The AND gate over a merger's redundant inputs — collapsed to the
    /// feeding splitters when the Section V approximation applies.
    std::optional<FtRef> merger_input_gate(Frame& f, const std::string& name) {
        if (f.block != nullptr) {
            // Branches fed by the same splitters collapse to the SAME
            // gate, and AND(g, g) == g, so the AND is dropped when every
            // branch reduces to one shared input — this is what halves
            // the path count per decomposition (Sec. V).
            std::vector<FtRef>& branch_inputs = f.branch_inputs;
            std::sort(branch_inputs.begin(), branch_inputs.end(), [](FtRef a, FtRef b) {
                return std::pair{a.kind, a.index} < std::pair{b.kind, b.index};
            });
            branch_inputs.erase(std::unique(branch_inputs.begin(), branch_inputs.end()),
                                branch_inputs.end());
            ++result_.approximated_blocks;
            if (branch_inputs.empty()) return std::nullopt;
            if (branch_inputs.size() == 1) return branch_inputs.front();
            return result_.tree.add_gate("and:" + name, GateKind::And, std::move(branch_inputs));
        }
        if (f.inputs.empty()) return std::nullopt;
        return result_.tree.add_gate("and:" + name, GateKind::And, std::move(f.inputs));
    }

    const ArchitectureModel& m_;
    const FtBuildOptions& options_;
    FtBuildResult result_;
    /// The workspace's tables (BuildWorkspace).
    std::vector<std::optional<FtRef>>& memo_;
    std::vector<char>& on_stack_;
    std::vector<std::optional<FtRef>>& resource_event_;
    std::vector<std::optional<FtRef>>& location_event_;
    std::vector<Frame> stack_;
    std::unordered_map<NodeId, std::pair<RedundantBlock, bool>> blocks_;
    std::map<std::vector<std::uint64_t>, FtRef> or_cache_;
};

}  // namespace

FtBuildResult build_fault_tree(const ArchitectureModel& m, const FtBuildOptions& options) {
    BuildWorkspace workspace;
    return build_fault_tree(m, options, workspace);
}

FtBuildResult build_fault_tree(const ArchitectureModel& m, const FtBuildOptions& options,
                               BuildWorkspace& workspace) {
    const obs::ObsSpan span("build_fault_tree", "ftree");
    static obs::Counter& trees = obs::Registry::global().counter("ftree.trees_built");
    static obs::Counter& gates = obs::Registry::global().counter("ftree.gates_built");
    static obs::Counter& cycles = obs::Registry::global().counter("ftree.cycles_cut");
    static obs::Counter& approx = obs::Registry::global().counter("ftree.approx_blocks");
    static obs::Gauge& tree_nodes = obs::Registry::global().gauge("ftree.tree_nodes");
    FtBuildResult result = Builder(m, options, workspace).run();
    trees.inc();
    gates.add(result.tree.gates().size());
    cycles.add(result.cycles_cut);
    approx.add(result.approximated_blocks);
    tree_nodes.set(static_cast<double>(result.tree.basic_events().size() +
                                       result.tree.gates().size()));
    return result;
}

std::uint64_t fragment_key(const ArchitectureModel& m, NodeId n, const FtBuildOptions& options) {
    const AppNode& node = m.app().node(n);
    std::uint64_t h = hash::combine(0x66726167ull /* "frag" */, option_bits(options));
    h = hash::combine(h, string_hash(node.name));
    h = hash::combine(h, static_cast<std::uint64_t>(node.kind));
    h = hash::combine(h, static_cast<std::uint64_t>(node.asil.level));
    // Inport wiring: the in-order predecessor list is part of the key,
    // because the node's failure gate ORs its inputs' gates in exactly
    // this order — a connectivity edit moves the sink's key.
    for (const ChannelId e : m.app().in_edges(n)) {
        h = hash::combine(h, 0x70726564ull /* "pred" */);
        h = hash::combine(h, m.app().edge(e).source.value());
    }
    // Intrinsic events: resolved rates, not table identity, so a custom
    // rate table or a lambda_override moves exactly the keys of the
    // nodes whose events change.
    for (const ResourceId r : m.mapped_resources(n)) {
        const Resource& res = m.resources().node(r);
        h = hash::combine(h, string_hash(res.name));
        h = hash::combine(h, double_bits(options.rates.resource_rate(res)));
        if (options.include_location_events) {
            for (const LocationId p : m.resource_locations(r)) {
                const Location& loc = m.physical().node(p);
                h = hash::combine(h, string_hash(loc.name));
                h = hash::combine(h, double_bits(options.rates.location_rate(loc)));
            }
        }
    }
    return h;
}

std::uint64_t composition_key(const ArchitectureModel& m, const FtBuildOptions& options) {
    std::uint64_t h = hash::combine(0x636F6D70ull /* "comp" */, option_bits(options));
    for (const NodeId n : m.app().node_ids()) {
        h = hash::combine(h, n.value());
        h = hash::combine(h, fragment_key(m, n, options));
    }
    return h;
}

}  // namespace asilkit::ftree
