// The evaluation engine: candidate scoring as a memoised service.
//
// Design-space exploration (paper Section IX) and the mapping search
// evaluate thousands of candidate architectures, each requiring a
// model -> fault tree -> BDD -> exact probability pipeline, one
// candidate at a time.  The engine makes repeats cheap:
//   * its tree builder (ftree/cft.h) fingerprints each candidate's
//     composition and serves a repeat from a memo of finished trees; a
//     new composition goes through build_fault_tree, the same generator
//     analysis::analyze_failure_probability uses;
//   * one non-evicting memo keyed by the canonical tree's structural
//     hash stores every evaluation, so a repeated tree skips every BDD;
//   * a memo miss runs the one evaluation path,
//     analysis::modular_probability: independent modules bottom-up, one
//     fresh BDD manager per module.
//
// Threading contract: an engine is used by one thread at a time, like a
// standard container; callers that want threads give each thread its
// own engine.
//
// Determinism contract: for a fixed model and options, results are
// bitwise identical to analysis::analyze_failure_probability, on a fresh
// engine or a warm one — a memo hit and a fresh evaluation produce the
// same doubles.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "analysis/probability.h"
#include "ftree/cft.h"
#include "model/architecture.h"

namespace asilkit::engine {

class EvalEngine {
public:
    /// Always 1: the engine runs on its caller's thread.  Kept for
    /// bench_e2e, which reports it as "engine.threads".
    [[nodiscard]] unsigned threads() const noexcept { return 1; }

    /// analysis::analyze_failure_probability, bitwise, memoised by the
    /// structural hash of the canonical fault tree.
    [[nodiscard]] analysis::ProbabilityResult analyze(const ArchitectureModel& m,
                                                      const analysis::ProbabilityOptions& options);

    /// Everything this engine counted.  Each analyze call ends as
    /// exactly one tree hit (the memo) or one tree miss (the modular
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
        /// Compositions the tree builder served whole from its
        /// finished-tree memo (zero gates built).
        std::uint64_t ftree_memo_hits = 0;
    };
    [[nodiscard]] Stats stats() const noexcept { return stats_; }

private:
    ftree::IncrementalTreeBuilder builder_;
    /// Tree key -> evaluation, never evicted: one lookup per analyze
    /// call plus one insert per tree miss.
    std::unordered_map<std::uint64_t, analysis::TreeEvaluation> memo_;
    Stats stats_;
};

}  // namespace asilkit::engine
