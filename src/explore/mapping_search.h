// Mapping search (paper Section VII-B closing remark: "Advanced mapping
// algorithms can be used to identify the minimum set of necessary
// resources to achieve the minimum failure probability for the system,
// but we defer these techniques to future work").
//
// A steepest-descent local search over resource-merge moves: two
// resources of the same kind hosting nodes of the same *region* (the same
// redundant branch, or both outside any branch) may be merged when the
// combined utilisation stays within capacity.  Candidate moves flow
// through a staged generate -> bound-check -> evaluate pipeline:
// admissible lower bounds (explore/bounds.h) order the candidates
// best-bound-first and prove most of them unable to beat the incumbent
// before any fault-tree/BDD work; the survivors are evaluated one at a
// time on the real objective — exact BDD failure probability first,
// architecture cost second — and the best improving move is applied
// until a local optimum is reached.  The search is *anytime*: every
// accepted state streams through a best-front-so-far (ParetoTracker) the
// caller can observe via on_front_update.  Cross-branch merges are never
// candidates: they would introduce the Common Cause Faults the CCF
// analysis rejects.
//
// Exactness contract: bound pruning, the engine's evaluation memo and
// its finished-tree memo (docs/ftree.md) only skip work that provably
// cannot change the outcome — the searched model, every objective and
// the emitted front are bitwise identical to the exhaustive search and
// to analysis::analyze_failure_probability of the searched model, on a
// fresh engine or a warm one (docs/explore.md gives the arguments;
// tests/test_mapping_search.cpp enforces them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/probability.h"
#include "cost/cost_metric.h"
#include "engine/engine.h"
#include "explore/pareto.h"
#include "model/architecture.h"

namespace asilkit::explore {

namespace detail {

/// Packs a (merger id, branch index) pair into one collision-free 64-bit
/// region id.  Both halves must fit 32 bits and the merger id must be a
/// valid NodeId (not the all-ones sentinel) — so the result can never
/// alias another pair or the trunk region (~0); throws ModelError
/// otherwise.
[[nodiscard]] std::uint64_t pack_region_id(std::uint64_t merger, std::uint64_t branch);

}  // namespace detail

struct MappingSearchOptions {
    /// Capacity limit: a shared resource may host at most this many
    /// application nodes (models ECU utilisation / bus load headroom).
    std::size_t max_nodes_per_resource = 4;
    cost::CostMetric metric = cost::CostMetric::exponential_metric1();
    analysis::ProbabilityOptions probability{};
    std::size_t max_iterations = 200;
    /// Also consider merging resources of trunk (non-branch) nodes.
    bool include_non_branch_nodes = true;
    /// Bound-check stage: compute admissible (cost, probability) lower
    /// bounds for every candidate from the current model's minimal cut
    /// sets and Table II metric (explore/bounds.h), evaluate candidates
    /// best-bound-first, and stop as soon as the next bound proves no
    /// remaining candidate can beat the best evaluated move.  Because
    /// each bound never exceeds its candidate's exact objective, the
    /// selected move — and therefore the entire search — is bitwise
    /// identical with pruning on or off; only `evaluations` shrinks.
    /// Pruned candidates count into MappingSearchResult::bound_rejections
    /// ("explore.bound_rejections").
    bool bound_pruning = true;
    /// Anytime front streaming: every accepted state (and the initial
    /// one) is offered to a best-front-so-far; when it changes, the new
    /// point is reported here together with the updated front size.
    /// Called synchronously from the search thread, in walk order.
    std::function<void(const TradeoffPoint& point, std::size_t front_size)> on_front_update;
    /// Optional caller-owned tracker to accumulate the front across
    /// several searches (e.g. a trade-off sweep); defaults to a tracker
    /// local to this call, whose front lands in
    /// MappingSearchResult::front either way.
    ParetoTracker* front_tracker = nullptr;
};

struct MappingSearchResult {
    std::size_t merges = 0;
    std::size_t iterations = 0;
    double probability_before = 0.0;
    double probability_after = 0.0;
    double cost_before = 0.0;
    double cost_after = 0.0;
    bool reached_local_optimum = false;
    /// Candidate merges generated over all iterations
    /// ("explore.candidates_generated").  The per-search ledger:
    /// evaluations == 1 + candidates - bound_rejections, the 1 being the
    /// initial state's evaluation.
    std::uint64_t candidates = 0;
    /// Engine analyze calls: the initial state plus every candidate the
    /// bound check let through.  Equals eval_cache_hits +
    /// eval_cache_misses, since every call keys the tree.
    std::uint64_t evaluations = 0;
    /// Tree hits replay a previously scored canonical tree without
    /// recompiling anything; misses run the full evaluation.
    std::uint64_t eval_cache_hits = 0;
    std::uint64_t eval_cache_misses = 0;
    /// Always 0: the search no longer lint-filters candidates (the move
    /// generator never proposes a structurally invalid merge).  Kept for
    /// existing readers.
    std::uint64_t lint_rejections = 0;
    /// Candidates pruned by the bound check without any fault-tree/BDD
    /// work (0 when options.bound_pruning is off).
    std::uint64_t bound_rejections = 0;
    /// Candidate trees the engine's tree builder served whole from its
    /// finished-composition memo (those construct zero gates).
    std::uint64_t ftree_memo_hits = 0;
    /// Front changes streamed during this search (>= 1: the initial
    /// state always enters an empty front).
    std::uint64_t front_updates = 0;
    /// Best front so far at the end of the search: the non-dominated
    /// (cost, probability) states of the walk, ascending cost.  When
    /// options.front_tracker is set, this is that tracker's front —
    /// including points from earlier searches feeding it.
    std::vector<TradeoffPoint> front;

    [[nodiscard]] double eval_cache_hit_rate() const noexcept {
        return evaluations == 0
                   ? 0.0
                   : static_cast<double>(eval_cache_hits) / static_cast<double>(evaluations);
    }
};

/// Runs the search in place; the model's mapping (and resource set) is
/// modified, the application graph is not.
MappingSearchResult search_mapping(ArchitectureModel& m, const MappingSearchOptions& options = {});

/// Same, but on a caller-owned engine: repeated searches (e.g. across a
/// tradeoff sweep) share its tree builder and evaluation memo.  The
/// result's eval counters cover only this call.
MappingSearchResult search_mapping(ArchitectureModel& m, const MappingSearchOptions& options,
                                   engine::EvalEngine& engine);

}  // namespace asilkit::explore
