// The evaluation engine: candidate scoring as a memoised service.
//
// Design-space exploration (paper Section IX) and the mapping search
// evaluate thousands of candidate architectures, each requiring a
// model -> fault tree -> BDD -> exact probability pipeline, one
// candidate at a time.  The engine owns every memo a sweep shares; each
// is keyed once, never evicted, and lives as long as the engine:
//   * a composition memo of finished results, keyed by
//     ftree::composition_key and the mission time, so a repeat
//     candidate builds no tree at all;
//   * a tree-key memo keyed by the canonical tree's structural hash, so
//     a new composition whose canonical tree was already scored skips
//     every BDD;
//   * a cut-set memo of the raw trees the search's bound contexts
//     enumerate (explore/bounds.h), under the same composition key,
//     with the event indices and rates the contexts read beside them,
//     so a memoised composition builds no tree there either.
// A miss of the first two runs the one evaluation path: build_fault_tree
// -> canonical_form (analysis::build_canonical_tree) ->
// analysis::modular_probability, the code
// analysis::analyze_failure_probability runs, here on the engine's one
// analysis::EvalWorkspace: every miss reuses its BDD manager and its
// build, canonical-form and module buffers.  The canonical tree is
// anonymous and carries its structural hash from the rebuild walk, so a
// miss copies no name and walks the tree for its key only once.
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
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/cutsets.h"
#include "analysis/probability.h"
#include "ftree/builder.h"
#include "model/architecture.h"

namespace asilkit::engine {

class EvalEngine {
public:
    /// Always 1: the engine runs on its caller's thread.  Kept for
    /// bench_e2e, which reports it as "engine.threads".
    [[nodiscard]] unsigned threads() const noexcept { return 1; }

    /// analysis::analyze_failure_probability, bitwise, memoised by the
    /// composition and by the structural hash of the canonical tree.
    [[nodiscard]] analysis::ProbabilityResult analyze(const ArchitectureModel& m,
                                                      const analysis::ProbabilityOptions& options);

    /// The minimal cut sets of a raw tree, and what their readers need
    /// of the tree besides: which event each index is, and its rate.
    struct RawCutSets {
        /// analysis::minimal_cut_sets(tree) under default CutSetOptions.
        std::vector<analysis::CutSet> cut_sets;
        /// Basic-event name ("res:<resource>", "loc:<location>") -> index.
        std::unordered_map<std::string, std::uint32_t> event_index;
        /// Failure rate per basic-event index.
        std::vector<double> lambdas;
    };

    /// RawCutSets of ftree::build_fault_tree(m, options).tree, memoised
    /// by ftree::composition_key(m, options): equal keys mean the same
    /// generation input, so the same arena and event indices.  A hit
    /// builds no tree.  The reference stays valid for the engine's
    /// lifetime.  Throws what the build or the enumeration throws, and
    /// then memoises nothing.  Emits the "explore.cutset_memo_hits"
    /// counter.
    [[nodiscard]] const RawCutSets& minimal_cut_sets(const ArchitectureModel& m,
                                                     const ftree::FtBuildOptions& options);

    /// Everything this engine counted.  Each analyze call ends as
    /// exactly one tree hit (either memo) or one tree miss (the modular
    /// evaluation).  The counts are this engine's own; the same
    /// increments also feed the process-global obs registry ids
    /// "engine.analyze_calls", "engine.tree_hits",
    /// "engine.tree_misses" and "ftree.memo_hits"
    /// (docs/observability.md).
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
        /// Calls served whole from the composition memo (zero gates
        /// built); each also counts as a tree hit.
        std::uint64_t ftree_memo_hits = 0;
    };
    [[nodiscard]] Stats stats() const noexcept { return stats_; }

private:
    /// Composition key + mission time -> finished result.
    std::unordered_map<std::uint64_t, analysis::ProbabilityResult> results_;
    /// Tree key -> evaluation: one insert per tree miss.
    std::unordered_map<std::uint64_t, analysis::TreeEvaluation> evaluations_;
    /// Composition key -> minimal cut sets of the raw tree.
    std::unordered_map<std::uint64_t, RawCutSets> cut_sets_;
    /// The buffers every tree build and tree miss reuses.
    analysis::EvalWorkspace workspace_;
    Stats stats_;
};

}  // namespace asilkit::engine
