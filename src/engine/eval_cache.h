// Evaluation cache: structural-hash -> failure-probability memo.
//
// Candidate moves in steepest-descent mapping search overwhelmingly
// generate fault trees isomorphic to ones already scored (only one
// merge differs per candidate, and symmetric replicas produce
// identical trees), so the DSE loop re-derives the same exact BDD
// probability thousands of times.  This cache keys whole canonical
// trees (ftree::FaultTree::structural_hash() mixed with the mission
// time, see engine.h); a hit returns a bitwise-identical probability
// without touching the BDD layer.
//
// Bounded FIFO eviction keeps memory flat on long explorations; a
// cached value is always exactly what a fresh evaluation would compute,
// so eviction affects speed, never results.  Thread-safe: lookups and
// inserts take a mutex, which is negligible next to a fault-tree->BDD
// compilation and keeps worker-owned BDD managers lock-free where it
// matters.
//
// The hit/miss/eviction ledger lives in the process-global obs metrics
// registry ("engine.cache.*"), so `asilkit stats` and --metrics
// snapshots see cache behaviour without extra plumbing.  Stats() stays
// a per-instance view: each cache remembers the registry values at
// construction (and at clear()) and reports the delta — exact whenever
// one cache is active at a time, which every search/exploration flow
// guarantees (one engine per search).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>

#include "analysis/probability.h"
#include "core/sync.h"
#include "obs/metrics.h"

namespace asilkit::engine {

/// The BDD-derived quantities of one tree evaluation (everything
/// analysis::ProbabilityResult cannot recompute cheaply from the tree).
using EvalValue = analysis::TreeEvaluation;

class EvalCache {
public:
    /// `capacity` bounds the number of cached evaluations; 0 disables
    /// the cache entirely (every lookup misses, inserts are dropped).
    explicit EvalCache(std::size_t capacity);

    [[nodiscard]] std::optional<EvalValue> lookup(std::uint64_t key);

    /// Inserting an existing key overwrites (the value is identical by
    /// construction — concurrent workers may race on the same miss).
    void insert(std::uint64_t key, const EvalValue& value);

    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t size = 0;
        std::size_t capacity = 0;

        [[nodiscard]] double hit_rate() const noexcept {
            const std::uint64_t total = hits + misses;
            return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
        }
    };
    [[nodiscard]] Stats stats() const;

    void clear();

private:
    std::size_t capacity_;  ///< immutable after construction: read lock-free
    mutable core::Mutex mutex_;
    std::unordered_map<std::uint64_t, EvalValue> map_ GUARDED_BY(mutex_);
    /// Insertion order, oldest first.
    std::deque<std::uint64_t> fifo_ GUARDED_BY(mutex_);
    // Registry-backed counters ("engine.cache.hits" etc.) plus the
    // registry values captured at construction/clear(); stats() reports
    // the delta so per-instance accounting stays exact.  The counters
    // are process-global atomics (unguarded by design); the snapshot
    // bases move only under mutex_.
    obs::Counter& hits_;
    obs::Counter& misses_;
    obs::Counter& evictions_;
    std::uint64_t hits_base_ GUARDED_BY(mutex_) = 0;
    std::uint64_t misses_base_ GUARDED_BY(mutex_) = 0;
    std::uint64_t evictions_base_ GUARDED_BY(mutex_) = 0;
};

}  // namespace asilkit::engine
