// Fault-tree data structure (paper Section V).
//
// A fault tree here is a rooted DAG: interior nodes are AND/OR gates,
// leaves are basic events with a failure rate lambda (failures/hour).
// DAG — not tree — because a resource shared by several application nodes
// contributes ONE basic event referenced from several gates; that sharing
// is precisely what the Common-Cause-Fault analysis looks for and what
// makes the Fig. 9 mapping experiment behave.
//
// Nodes are index-addressed within the owning FaultTree; FtRef is a typed
// (kind, index) handle.  Every gate is numbered after its children, so
// the DAG is acyclic by construction and bottom-up passes are loops in
// index order; no pass recurses, so a deep tree costs memory, not stack.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/error.h"

namespace asilkit::ftree {

enum class GateKind : std::uint8_t { Or, And };

[[nodiscard]] std::string_view to_string(GateKind k) noexcept;

/// Reference to a node inside a FaultTree.
struct FtRef {
    enum class Kind : std::uint8_t { Basic, Gate } kind = Kind::Basic;
    std::uint32_t index = 0;

    friend bool operator==(const FtRef&, const FtRef&) = default;
};

struct BasicEvent {
    std::string name;
    double lambda = 0.0;  ///< failures/hour
};

struct Gate {
    std::string name;
    GateKind kind = GateKind::Or;
    std::vector<FtRef> children;
};

/// Statistics of a fault tree; `dag_nodes` counts each shared node once,
/// `expanded_nodes` and `paths` treat the structure as a tree (the
/// quantities the paper reports: the Fig. 3 example goes from 87 to 51
/// nodes under the approximation, and the number of root-to-leaf paths
/// doubles per ASIL decomposition without it).
struct FaultTreeStats {
    std::size_t basic_events = 0;
    std::size_t gates = 0;
    std::size_t dag_nodes = 0;
    std::uint64_t expanded_nodes = 0;  ///< saturates at 2^62
    std::uint64_t paths = 0;           ///< saturates at 2^62
    std::size_t depth = 0;
};

std::ostream& operator<<(std::ostream& os, const FaultTreeStats& s);

struct CanonicalWorkspace;

class FaultTree {
public:
    /// Adds (or finds) a basic event by name.  Re-adding an existing name
    /// with a different lambda is an error: one physical cause, one rate.
    FtRef add_basic_event(std::string name, double lambda);

    /// Adds a gate over existing children; more may follow via
    /// add_child.  Throws AnalysisError naming the gate and the child
    /// when a child does not exist yet.
    FtRef add_gate(std::string name, GateKind kind, std::vector<FtRef> children = {});

    /// Reserves room for `events` basic events and `gates` gates, so a
    /// builder that knows its sizes appends without regrowing.
    void reserve(std::size_t events, std::size_t gates);

    /// Appends `child` to `gate`'s children.  Throws AnalysisError naming
    /// both when `gate` is not a gate, `child` does not exist, or
    /// `child` is a gate that does not come before `gate` (a cycle or a
    /// forward reference).
    void add_child(FtRef gate, FtRef child);

    /// Throws AnalysisError when `top` does not exist.
    void set_top(FtRef top);
    [[nodiscard]] FtRef top() const;
    [[nodiscard]] bool has_top() const noexcept { return has_top_; }

    [[nodiscard]] const BasicEvent& basic_event(std::uint32_t index) const;
    [[nodiscard]] const Gate& gate(std::uint32_t index) const;
    [[nodiscard]] const BasicEvent& basic_event(FtRef r) const;
    [[nodiscard]] const Gate& gate(FtRef r) const;

    [[nodiscard]] std::span<const BasicEvent> basic_events() const noexcept { return basics_; }
    [[nodiscard]] std::span<const Gate> gates() const noexcept { return gates_; }

    /// Finds a basic event by name; returns {Basic, index} or throws.
    [[nodiscard]] FtRef find_basic_event(std::string_view name) const;
    [[nodiscard]] bool has_basic_event(std::string_view name) const noexcept;

    /// Statistics over the subtree reachable from top().
    [[nodiscard]] FaultTreeStats stats() const;

    /// 64-bit structural hash of the DAG reachable from top().
    ///
    /// Two fault trees hash equal when they are isomorphic as shared
    /// DAGs with identical gate kinds, child order, event sharing and
    /// failure rates — event *names* are deliberately ignored, since the
    /// top-event probability is a function of structure and rates only.
    /// Sharing matters: OR(a, a) and OR(a, b) hash differently even when
    /// a and b carry the same rate, because basic events are numbered by
    /// first occurrence in a depth-first traversal from the top.  This
    /// is the key of the engine's evaluation memo: candidate moves that
    /// generate isomorphic trees (ubiquitous in steepest-descent mapping
    /// search) reuse a previously computed probability.  Throws when the
    /// tree has no top event.  A tree from canonical_form carries the
    /// value its rebuild walk computed; any other tree, or one mutated
    /// since, computes it here without storing it.
    [[nodiscard]] std::uint64_t structural_hash() const;
    /// Whether structural_hash() returns a stored value: true from
    /// canonical_form until the first mutation.
    [[nodiscard]] bool stores_structural_hash() const noexcept {
        return structural_hash_.has_value();
    }

    /// The basic events reachable from `root` (deduplicated, by index).
    [[nodiscard]] std::vector<std::uint32_t> reachable_basic_events(FtRef root) const;

    /// The gates reachable from `root`, ascending, so every gate comes
    /// after its gate children; empty when `root` is a basic event.  One
    /// backward sweep from root.index marks them.
    [[nodiscard]] std::vector<std::uint32_t> reachable_gates(FtRef root) const;

private:
    friend FaultTree canonical_form(const FaultTree& ft, CanonicalWorkspace& workspace);

    /// canonical_form's name-free appends: the node gets no name and no
    /// name-map entry.  append_gate keeps add_gate's children-first checks.
    FtRef append_event(double lambda);
    FtRef append_gate(GateKind kind, std::vector<FtRef> children);

    std::vector<BasicEvent> basics_;
    std::vector<Gate> gates_;
    std::unordered_map<std::string, std::uint32_t> basic_by_name_;
    FtRef top_{};
    bool has_top_ = false;
    /// structural_hash(), when canonical_form set it; every mutation clears it.
    std::optional<std::uint64_t> structural_hash_;
};

/// The heap stack of depth_first: (gate, next child) pairs.
using DepthFirstStack = std::vector<std::pair<std::uint32_t, std::size_t>>;

/// What canonical_form reuses from one call to the next: its reference
/// counts, its four ordering-hash families, the sorted child lists and
/// the renumbering tables, all indexed by the source tree, and its walk
/// stack.  The result does not depend on what an earlier call left here.
struct CanonicalWorkspace {
    /// One child's sort key: (rate-blind hash, rate-inclusive hash,
    /// position), compared in that order.
    struct ChildKey {
        std::uint64_t shape;
        std::uint64_t hash;
        std::uint32_t index;
        friend auto operator<=>(const ChildKey&, const ChildKey&) = default;
    };
    std::vector<std::uint8_t> marked;
    std::vector<std::uint32_t> reachable;
    std::vector<std::uint32_t> gate_refs;
    std::vector<std::uint32_t> event_refs;
    std::vector<std::uint64_t> prelim_event;
    std::vector<std::uint64_t> shape_event;
    std::vector<std::uint64_t> prelim_gate;
    std::vector<std::uint64_t> shape_gate;
    std::vector<std::uint32_t> parent_begin;
    std::vector<std::uint32_t> parent;
    std::vector<std::uint32_t> parent_next;
    std::vector<std::uint64_t> refined_event;
    std::vector<std::uint64_t> refined_shape_event;
    std::vector<std::uint64_t> refined_gate;
    std::vector<std::uint64_t> refined_shape_gate;
    std::vector<std::uint64_t> sort_keys;
    std::vector<std::uint32_t> sorted_begin;
    std::vector<FtRef> sorted;
    std::vector<ChildKey> order;
    std::vector<std::uint32_t> new_event;
    std::vector<std::uint32_t> new_gate;
    std::vector<std::uint64_t> event_hash;
    std::vector<std::uint64_t> gate_hash;
    std::vector<FtRef> children;
    DepthFirstStack stack;
};

/// Canonical form under gate commutativity: rebuilds the DAG reachable
/// from top() with every gate's children stably sorted by a
/// sharing-blind bottom-up subtree hash.  The result is anonymous: its
/// events carry only their rates and its gates only kind and children,
/// so find_basic_event on it throws.  The rebuild walk also computes the
/// result's structural_hash(), which the result carries.
///
/// AND/OR are commutative, so the canonical tree represents the same
/// boolean function and the same top-event probability — but candidate
/// architectures that differ only by a symmetry (a merge in branch 1 vs
/// the mirror merge in branch 2, a merge of sibling chains in a sensor
/// fan) collapse onto ONE canonical tree.  Evaluating the canonical form therefore makes
/// structural_hash() a sound memoisation key for exact probabilities:
/// equal hashes mean the same canonical tree, hence bit-identical BDD
/// construction and Shannon evaluation.  This is how the engine's
/// evaluation memo turns the steepest-descent candidate sweep — where
/// symmetric moves are ubiquitous — into tree hits.
///
/// Children sort by a rate-blind hash first and a rate-inclusive hash
/// second.  Any deterministic order would be exact; this one is kept
/// because it fixes today's child order, and with it the BDD variable
/// orders and the result bits the OnePath.* golden tests pin.  The
/// ordering keys are refined with a context signature (each event's
/// sorted multiset of parent-gate hashes), so the canonical tree — and
/// with it structural_hash() — is invariant under the
/// component and edge *declaration order* of the source model even when
/// distinct shared events carry equal rates and reference counts (the
/// Table-I norm).  tests/test_ftree.cpp and tests/test_ftree_builder.cpp
/// hold shuffled-but-isomorphic builds to hash equality.  Emits the
/// "canonical_form" span.
[[nodiscard]] FaultTree canonical_form(const FaultTree& ft);

/// The same on `workspace`'s buffers.
[[nodiscard]] FaultTree canonical_form(const FaultTree& ft, CanonicalWorkspace& workspace);

/// The one depth-first walk over a fault tree: children left to right
/// from `root`, on `stack` (emptied first; a caller that walks often
/// keeps one).  `arrive(FtRef)` runs on every arrival, the root's
/// included, and says whether to expand a gate (ignored for basic
/// events); `finish(std::uint32_t gate)` runs once an expanded gate's
/// children are done.  `children(gate)` yields the list to walk: the
/// tree's own, or a reordering (canonical_form's sorted lists).
template <class Children, class Arrive, class Finish>
void depth_first(FtRef root, Children&& children, Arrive&& arrive, Finish&& finish,
                 DepthFirstStack& stack) {
    stack.clear();
    if (!arrive(root) || root.kind == FtRef::Kind::Basic) return;
    stack.emplace_back(root.index, 0);
    while (!stack.empty()) {
        const std::uint32_t gate = stack.back().first;
        const std::span<const FtRef> kids = children(gate);
        if (stack.back().second == kids.size()) {
            stack.pop_back();
            finish(gate);
            continue;
        }
        const FtRef child = kids[stack.back().second++];
        if (arrive(child) && child.kind == FtRef::Kind::Gate) stack.emplace_back(child.index, 0);
    }
}

/// depth_first over the tree's own child lists.
template <class Arrive, class Finish>
void depth_first(const FaultTree& ft, FtRef root, Arrive&& arrive, Finish&& finish,
                 DepthFirstStack& stack) {
    depth_first(
        root,
        [&ft](std::uint32_t gate) -> std::span<const FtRef> { return ft.gates()[gate].children; },
        arrive, finish, stack);
}

}  // namespace asilkit::ftree
