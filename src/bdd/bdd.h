// Reduced Ordered Binary Decision Diagram (ROBDD) engine.
//
// The paper converts the generated fault tree into a BDD through an
// If-Then-Else (ITE) structure: every basic event b becomes ITE(b, 1, 0),
// OR gates combine operands with <op> = "+" and AND gates with "*", using
// the two ITE composition rules (paper Eqs. 1 and 2) that recurse on the
// smaller variable.  That construction is exactly Bryant's apply()
// algorithm; this manager implements it with the two standard dynamic
// programming tables:
//   * a unique table hash-consing (var, high, low) triples, which makes
//     equality O(1) and keeps the diagram reduced, and
//   * an apply cache memoising (op, f, g) results, which bounds apply()
//     by O(|f|*|g|) instead of the naive exponential recursion the paper
//     describes (Section V reports that cost growing exponentially with
//     the number of redundant blocks).
//
// Both tables are open-addressing flat tables with power-of-two capacity
// (linear probing, grow-by-rehash, no tombstones — entries are never
// individually erased), and nodes live in a contiguous arena indexed by
// BddRef.  Probing uses a full 64-bit splitmix64-style finalizer so that
// the near-identical (var, high, low) / (f, g) keys produced by
// incremental construction do not cluster in power-of-two tables.
//
// The exact top-event probability is evaluated on the BDD by the
// Shannon expansion P(f) = p_v * P(f_high) + (1 - p_v) * P(f_low), which
// — unlike summing rates on the fault tree — is exact for repeated events.
// The arena is append-only and children always precede parents, so
// probability() computes the per-node probabilities in one bottom-up
// sweep.
//
// A manager is NOT thread-safe; every evaluation builds a manager of its
// own (one per module in bdd::evaluate_modules), which keeps the apply
// hot path lock-free.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/error.h"
#include "core/hash.h"

namespace asilkit::bdd {

/// Handle to a BDD node within a manager.  0 and 1 are the terminals.
using BddRef = std::uint32_t;

inline constexpr BddRef kFalse = 0;
inline constexpr BddRef kTrue = 1;

enum class BddOp : std::uint8_t { Or, And };

namespace detail {

/// splitmix64 finalizer (see core/hash.h).  Used for every table probe
/// so that keys differing in a few low bits land far apart in
/// power-of-two tables (the old multiply-then-add scheme let small
/// (f, g) deltas collide after the mask).
using asilkit::hash::mix64;

/// Mix of a (var, high, low) node triple.
[[nodiscard]] constexpr std::uint64_t mix_node_key(std::uint32_t var, std::uint32_t high,
                                                   std::uint32_t low) noexcept {
    const std::uint64_t hl = (static_cast<std::uint64_t>(high) << 32) | low;
    return mix64(mix64(hl) ^ var);
}

}  // namespace detail

class BddManager {
public:
    /// `variable_count` fixes the variable order: variable 0 is tested
    /// first (the paper orders variables by a top-down, left-to-right
    /// traversal of the fault tree so that events nearest the top event
    /// come first).
    explicit BddManager(std::uint32_t variable_count);

    [[nodiscard]] std::uint32_t variable_count() const noexcept { return variable_count_; }

    /// The BDD for a single variable: ITE(var, 1, 0).
    [[nodiscard]] BddRef variable(std::uint32_t var);

    /// Reduced node (var, high, low); returns `high` when high == low.
    [[nodiscard]] BddRef make(std::uint32_t var, BddRef high, BddRef low);

    [[nodiscard]] BddRef apply(BddOp op, BddRef f, BddRef g);
    [[nodiscard]] BddRef apply_or(BddRef f, BddRef g) { return apply(BddOp::Or, f, g); }
    [[nodiscard]] BddRef apply_and(BddRef f, BddRef g) { return apply(BddOp::And, f, g); }
    [[nodiscard]] BddRef apply_not(BddRef f);

    /// Exact probability that the function is true, given independent
    /// per-variable probabilities (size must equal variable_count()).
    [[nodiscard]] double probability(BddRef f, std::span<const double> var_probability) const;

    /// Number of interior nodes reachable from `f` (terminals excluded).
    [[nodiscard]] std::size_t node_count(BddRef f) const;

    /// Total interior nodes ever created in this manager.
    [[nodiscard]] std::size_t size() const noexcept { return nodes_.size() - 2; }

    /// Evaluates f under a complete truth assignment (for property tests
    /// against brute-force enumeration).
    [[nodiscard]] bool evaluate(BddRef f, const std::vector<bool>& assignment) const;

    struct NodeView {
        std::uint32_t var;
        BddRef high;
        BddRef low;
    };
    [[nodiscard]] NodeView node(BddRef f) const;
    [[nodiscard]] static bool is_terminal(BddRef f) noexcept { return f <= kTrue; }

    /// Folds this manager's local instrumentation tallies (apply-cache
    /// lookups/hits, table resizes, nodes created) into the process-
    /// global obs registry ("bdd.*" ids) and zeroes them, and updates
    /// the bdd.node_high_water / bdd.unique_load_factor gauges.  Called
    /// at natural completion points (end of a module evaluation, end of
    /// a whole-tree analysis); cheap enough to call per evaluation —
    /// a handful of relaxed atomic adds.  Const because observability
    /// never changes observable BDD state; tallies are plain members
    /// written only by the owning thread (a manager is single-threaded
    /// by contract).
    void flush_obs() const;

private:
    /// Arena slot.  Nodes are append-only and children are created before
    /// their parents, so `high < ref` and `low < ref` for every interior
    /// node — the invariant the bottom-up probability sweep relies on.
    struct Node {
        std::uint32_t var;
        BddRef high;
        BddRef low;
    };

    /// Open-addressing unique table.  Stores only node refs: the key
    /// (var, high, low) is read back from the arena, keeping a slot at
    /// 4 bytes.  kFalse (never hash-consed) marks an empty slot.
    struct UniqueTable {
        std::vector<BddRef> slots;
        std::size_t entries = 0;
    };

    /// Open-addressing apply cache, one per operation so the packed
    /// (f, g) pair is the whole key.  key == 0 marks an empty slot
    /// (terminal operands never reach the cache, so f >= 2 and the
    /// packed key is always >= 2^33).
    struct ApplyCache {
        struct Slot {
            std::uint64_t key = 0;
            BddRef result = kFalse;
        };
        std::vector<Slot> slots;
        std::size_t entries = 0;
    };

    [[nodiscard]] BddRef unique_lookup_or_insert(std::uint32_t var, BddRef high, BddRef low);
    void unique_grow();
    // Members (not statics): growing a table is an observable event the
    // tracer marks and the resize tallies count.
    [[nodiscard]] BddRef* apply_slot(ApplyCache& cache, std::uint64_t key);
    void apply_grow(ApplyCache& cache);

    [[nodiscard]] std::uint32_t var_of(BddRef f) const noexcept {
        // Terminals sort after every variable.
        return f <= kTrue ? variable_count_ : nodes_[f].var;
    }

    std::uint32_t variable_count_;
    std::vector<Node> nodes_;  // contiguous arena; [0]=false, [1]=true
    UniqueTable unique_;
    ApplyCache apply_cache_[2];  // indexed by BddOp

    // Local observability tallies: plain (non-atomic) increments on the
    // apply hot path — a manager is single-threaded, so the only cost is
    // one register add next to a hash probe.  flush_obs() folds them
    // into the global registry and zeroes them.
    struct ObsTally {
        std::uint64_t apply_lookups = 0;
        std::uint64_t apply_hits = 0;
        std::uint64_t unique_resizes = 0;
        std::uint64_t apply_resizes = 0;
    };
    mutable ObsTally obs_tally_;
    mutable std::size_t obs_nodes_flushed_ = 0;  // arena size at last flush
};

}  // namespace asilkit::bdd
