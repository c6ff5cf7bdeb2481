// The evaluation engine: candidate scoring as a batched, parallel,
// memoised, *incremental* service.
//
// Design-space exploration (paper Section IX) and the mapping search
// evaluate thousands of candidate architectures, each requiring a
// model -> fault tree -> BDD -> exact probability pipeline.  The engine
// makes that pipeline scale:
//   * a fixed thread pool (core/thread_pool.h) evaluates independent
//     candidates concurrently — every evaluation owns its BddManagers,
//     so no locks sit on the apply path;
//   * per-thread component-fragment builders (ftree/cft.h) generate
//     each candidate's canonical tree incrementally: an edit regenerates
//     only the fragments whose model facts changed, and a repeat
//     composition reuses the finished tree and its module decomposition;
//   * an evaluation cache memoises whole canonical trees (a hit skips
//     every BDD), backed by a non-evicting candidate memo that serves
//     trees the LRU has already evicted (see eval_cache.h);
//   * a whole-tree miss runs the one evaluation path,
//     analysis::modular_probability: independent modules bottom-up, one
//     fresh BDD manager per module.
//
// Determinism contract: for a fixed model and options, results are
// bitwise identical regardless of thread count and cache capacity, and
// bitwise identical to analysis::analyze_failure_probability — a cache
// hit, a memo hit and a fresh evaluation all produce the same doubles;
// callers that batch through the pool reduce their results in input
// order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/sync.h"
#include "core/thread_pool.h"

#include "analysis/probability.h"
#include "engine/eval_cache.h"
#include "ftree/cft.h"
#include "ftree/modules.h"
#include "model/architecture.h"
#include "obs/metrics.h"

namespace asilkit::engine {

struct EngineOptions {
    /// Evaluation lanes (including the calling thread).  0 = take the
    /// ASILKIT_THREADS environment variable, falling back to
    /// std::thread::hardware_concurrency().
    unsigned threads = 0;
    /// Maximum number of cached evaluations; 0 disables the cache.
    std::size_t cache_capacity = std::size_t{1} << 16;
};

class EvalEngine {
public:
    explicit EvalEngine(const EngineOptions& options = {});

    /// Evaluation lanes actually available, env var applied.
    [[nodiscard]] unsigned threads() const noexcept { return pool_.thread_count(); }

    /// analysis::analyze_failure_probability, bitwise, memoised by the
    /// structural hash of the canonical fault tree.  Thread-safe: may be
    /// called concurrently from pool tasks.
    [[nodiscard]] analysis::ProbabilityResult analyze(const ArchitectureModel& m,
                                                      const analysis::ProbabilityOptions& options);

    /// Scores every model of a batch concurrently; results in input
    /// order.  Null entries are skipped (default-constructed result).
    [[nodiscard]] std::vector<analysis::ProbabilityResult> analyze_batch(
        std::span<const ArchitectureModel* const> models,
        const analysis::ProbabilityOptions& options);

    /// The pool, for callers that parallelise more than the analysis
    /// itself (e.g. building the trial model inside the task).
    [[nodiscard]] core::ThreadPool& pool() noexcept { return pool_; }

    /// Everything the engine counts, in one snapshot.  `cache` is the
    /// raw LRU lookup ledger; the engine counters split the calls: a
    /// tree hit (LRU, candidate memo or an equal key earlier in the same
    /// batch) ends the evaluation, a tree miss runs the modular
    /// evaluation.
    ///
    /// The counters themselves live in the process-global obs registry
    /// (ids "engine.analyze_calls", "engine.tree_hits", ... — see
    /// docs/observability.md); this snapshot is the per-instance view,
    /// computed against the registry values captured at construction.
    struct Stats {
        EvalCache::Stats cache;
        std::uint64_t analyze_calls = 0;
        std::uint64_t tree_hits = 0;
        std::uint64_t tree_misses = 0;
        /// Always 0: per-module cache keys are gone (a module is no
        /// longer cached on its own).  Kept for existing readers.
        std::uint64_t module_hits = 0;
        std::uint64_t module_misses = 0;
        /// Evaluations served by the non-evicting candidate memo after
        /// an LRU miss ("explore.dedup_hits"); a subset of tree_hits.
        /// Zero while the LRU never evicts.
        std::uint64_t dedup_hits = 0;
        /// Always 0: persistent BDD compilation (subtree memo, GC) and
        /// rate-variant batching are gone.  Kept for existing readers.
        std::uint64_t subtree_memo_hits = 0;
        std::uint64_t subtree_memo_misses = 0;
        std::uint64_t gc_collections = 0;
        std::uint64_t batch_lanes = 0;
        /// Incremental tree generation view: component fragments
        /// regenerated vs reused by the per-thread builders
        /// ("ftree.fragment.built" / "ftree.fragment.reused") and whole
        /// compositions served from the finished-tree memo
        /// ("ftree.memo_hits").
        std::uint64_t fragments_built = 0;
        std::uint64_t fragments_reused = 0;
        std::uint64_t ftree_memo_hits = 0;
    };
    [[nodiscard]] Stats stats() const;

    [[nodiscard]] EvalCache::Stats cache_stats() const { return cache_.stats(); }
    void clear_cache() { cache_.clear(); }

private:
    /// One model through fragments -> canonical tree -> key, the
    /// thread-safe front half of analyze(); `finish` is the back half
    /// (cache lookups, modular evaluation, inserts).
    struct PreparedModel {
        analysis::ProbabilityResult result;  ///< ft_stats / warnings filled
        /// Canonical tree and its module decomposition, shared by
        /// reference with the incremental builders' composition memo
        /// (repeat candidates alias ONE immutable tree instead of each
        /// carrying a copy).
        std::shared_ptr<const ftree::FaultTree> canonical;
        std::shared_ptr<const ftree::ModuleDecomposition> modules;
        std::uint64_t tree_key = 0;
    };
    [[nodiscard]] PreparedModel prepare(const ArchitectureModel& m,
                                        const analysis::ProbabilityOptions& options);
    void finish(PreparedModel& p, const analysis::ProbabilityOptions& options);

    /// The calling thread's incremental tree builder, created on first
    /// use.  Each builder is used by exactly one thread; the mutex
    /// guards only the map.
    [[nodiscard]] ftree::IncrementalTreeBuilder& ftree_lane();

    /// Candidate memo lookup/insert, guarded by dedup_mutex_ — the memo
    /// sits behind the LRU, so traffic is bounded by tree misses, not
    /// lookups.
    [[nodiscard]] std::optional<EvalValue> dedup_lookup(std::uint64_t key);
    void dedup_insert(std::uint64_t key, const EvalValue& value);

    core::ThreadPool pool_;
    EvalCache cache_;
    core::Mutex dedup_mutex_;
    std::unordered_map<std::uint64_t, EvalValue> dedup_map_ GUARDED_BY(dedup_mutex_);
    // The lane map is guarded; the builders the unique_ptrs own are
    // not — each is created once under the mutex and then used by
    // exactly one thread (its key), so pointees are thread-confined by
    // construction, not by locking.
    core::Mutex ftree_lanes_mutex_;
    std::unordered_map<std::thread::id, std::unique_ptr<ftree::IncrementalTreeBuilder>>
        ftree_lanes_ GUARDED_BY(ftree_lanes_mutex_);
    // Registry-backed counters (relaxed atomic adds: analyze() runs
    // concurrently from pool tasks; stats() is a monitoring snapshot,
    // not a synchronisation point).  `base_` anchors the per-instance
    // stats() view against the process-global registry values.
    obs::Counter& analyze_calls_;
    obs::Counter& tree_hits_;
    obs::Counter& tree_misses_;
    obs::Counter& dedup_hits_;
    obs::Counter& fragments_built_;
    obs::Counter& fragments_reused_;
    obs::Counter& ftree_memo_hits_;
    Stats base_;
};

}  // namespace asilkit::engine
