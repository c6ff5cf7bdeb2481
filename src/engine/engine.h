// The evaluation engine: candidate scoring as a batched, parallel,
// memoised service.
//
// Design-space exploration (paper Section IX) and the mapping search
// evaluate thousands of candidate architectures, each requiring a
// model -> fault tree -> BDD -> exact probability pipeline.  The engine
// makes that pipeline scale:
//   * a fixed thread pool (core/thread_pool.h) evaluates independent
//     candidates concurrently — every evaluation owns its BddManagers,
//     so no locks sit on the apply path;
//   * per-thread tree builders (ftree/cft.h) fingerprint each
//     candidate's composition and serve a repeat from a memo of finished
//     trees; a new composition goes through build_fault_tree, the same
//     generator analysis::analyze_failure_probability uses;
//   * one non-evicting memo keyed by the canonical tree's structural
//     hash stores every evaluation, so a repeated tree skips every BDD;
//   * a memo miss runs the one evaluation path,
//     analysis::modular_probability: independent modules bottom-up, one
//     fresh BDD manager per module.
//
// Determinism contract: for a fixed model and options, results are
// bitwise identical regardless of thread count, and bitwise identical
// to analysis::analyze_failure_probability — a memo hit and a fresh
// evaluation produce the same doubles; callers that batch through the
// pool reduce their results in input order.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/sync.h"
#include "core/thread_pool.h"

#include "analysis/probability.h"
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

    /// Everything this engine counted, in one snapshot.  Each analyze
    /// call ends as exactly one tree hit (the memo, or an equal key
    /// earlier in the same batch) or one tree miss (the modular
    /// evaluation).  The counts are this engine's own; the same
    /// increments also feed the process-global obs registry ids
    /// "engine.analyze_calls", "engine.tree_hits" and
    /// "engine.tree_misses" (docs/observability.md).
    struct Stats {
        std::uint64_t analyze_calls = 0;
        std::uint64_t tree_hits = 0;
        std::uint64_t tree_misses = 0;
        /// Always 0, kept for existing readers: per-module cache keys,
        /// persistent BDD compilation (subtree memo, GC), rate-variant
        /// batching, the candidate memo behind a bounded cache and
        /// component-fragment assembly are gone.
        std::uint64_t module_hits = 0;
        std::uint64_t module_misses = 0;
        std::uint64_t dedup_hits = 0;
        std::uint64_t subtree_memo_hits = 0;
        std::uint64_t subtree_memo_misses = 0;
        std::uint64_t gc_collections = 0;
        std::uint64_t batch_lanes = 0;
        std::uint64_t fragments_built = 0;
        std::uint64_t fragments_reused = 0;
        /// Compositions the per-thread tree builders served whole from
        /// their finished-tree memo (zero gates built).
        std::uint64_t ftree_memo_hits = 0;
    };
    [[nodiscard]] Stats stats() const;

private:
    /// One model through fingerprint -> canonical tree -> key, the
    /// thread-safe front half of analyze(); `finish` is the back half
    /// (memo lookup, modular evaluation, insert).
    struct PreparedModel {
        analysis::ProbabilityResult result;  ///< ft_stats / warnings filled
        /// Canonical tree and its module decomposition, shared by
        /// reference with the tree builders' composition memo (repeat
        /// candidates alias ONE immutable tree instead of each carrying
        /// a copy).
        std::shared_ptr<const ftree::FaultTree> canonical;
        std::shared_ptr<const ftree::ModuleDecomposition> modules;
        std::uint64_t tree_key = 0;
    };
    [[nodiscard]] PreparedModel prepare(const ArchitectureModel& m,
                                        const analysis::ProbabilityOptions& options);
    void finish(PreparedModel& p, const analysis::ProbabilityOptions& options);

    /// The calling thread's tree builder, created on first use.  Each
    /// builder is used by exactly one thread; the mutex guards only the
    /// map.
    [[nodiscard]] ftree::IncrementalTreeBuilder& ftree_lane();

    /// One engine counter: this engine's own count, read by stats(), and
    /// the registry counter it feeds.  Both are relaxed atomic adds:
    /// analyze() runs concurrently from pool tasks, and stats() is a
    /// monitoring snapshot, not a synchronisation point.
    struct Tally {
        explicit Tally(obs::Counter& registry) : global(registry) {}
        void inc() noexcept {
            local.inc();
            global.inc();
        }
        obs::Counter local;
        obs::Counter& global;
    };

    core::ThreadPool pool_;
    /// Tree key -> evaluation, never evicted: traffic is one lookup per
    /// batch leader plus one insert per tree miss.
    core::Mutex memo_mutex_;
    std::unordered_map<std::uint64_t, analysis::TreeEvaluation> memo_ GUARDED_BY(memo_mutex_);
    // The lane map is guarded; the builders the unique_ptrs own are
    // not — each is created once under the mutex and then used by
    // exactly one thread (its key), so pointees are thread-confined by
    // construction, not by locking.
    core::Mutex ftree_lanes_mutex_;
    std::unordered_map<std::thread::id, std::unique_ptr<ftree::IncrementalTreeBuilder>>
        ftree_lanes_ GUARDED_BY(ftree_lanes_mutex_);
    Tally analyze_calls_;
    Tally tree_hits_;
    Tally tree_misses_;
    /// Local only: the builders feed "ftree.memo_hits" themselves.
    obs::Counter ftree_memo_hits_;
};

}  // namespace asilkit::engine
