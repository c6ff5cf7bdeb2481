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
// Exactness contract: bound pruning and the engine's memos
// (engine/engine.h, docs/ftree.md) only skip work that provably cannot
// change the outcome — the searched model, every objective and
// the emitted front are bitwise identical to an exhaustive search that
// scores every candidate on a merged copy, and to
// analysis::analyze_failure_probability of the searched model, on a
// fresh engine or a warm one (docs/explore.md gives the arguments;
// tests/test_mapping_search.cpp checks them against the reference
// search in tests/helpers.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "analysis/probability.h"
#include "cost/cost_metric.h"
#include "engine/engine.h"
#include "explore/pareto.h"
#include "ftree/builder.h"
#include "model/architecture.h"

namespace asilkit::explore {

struct MappingSearchOptions {
    /// Capacity limit: a shared resource may host at most this many
    /// application nodes (models ECU utilisation / bus load headroom).
    std::size_t max_nodes_per_resource = 4;
    cost::CostMetric metric = cost::CostMetric::exponential_metric1();
    analysis::ProbabilityOptions probability{};
    std::size_t max_iterations = 200;
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
    /// work: each iteration evaluates candidates best admissible bound
    /// first (explore/bounds.h) and stops at the first bound that cannot
    /// beat the best evaluated move ("explore.bound_rejections").
    std::uint64_t bound_rejections = 0;
    /// Evaluations the engine served whole from its composition memo
    /// (those construct zero gates).
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
/// tradeoff sweep) share its memos of results, evaluations and cut
/// sets.  The result's eval counters cover only this call.
MappingSearchResult search_mapping(ArchitectureModel& m, const MappingSearchOptions& options,
                                   engine::EvalEngine& engine);

namespace detail {

/// Packs a (merger id, branch index) pair into one collision-free 64-bit
/// region id.  Both halves must fit 32 bits and the merger id must be a
/// valid NodeId (not the all-ones sentinel) — so the result can never
/// alias another pair or the trunk region (~0); throws ModelError
/// otherwise.
[[nodiscard]] std::uint64_t pack_region_id(std::uint64_t merger, std::uint64_t branch);

/// Region id per application node id: pack_region_id(merger id, branch
/// index) for the nodes of a well-formed redundant block's branches, and
/// one trunk region (~0) for every other node.  It reads only the
/// application graph, which no merge changes.
[[nodiscard]] std::vector<std::uint64_t> region_of_nodes(const ArchitectureModel& m);

/// One iteration's candidate merges (into, from) on `m`, in the search's
/// deterministic bucket order, capacity-feasible under `options`.  A
/// resource is a candidate only when all its nodes share one region of
/// `region`, region_of_nodes of `m`'s application graph.
[[nodiscard]] std::vector<std::pair<ResourceId, ResourceId>> merge_candidates(
    const ArchitectureModel& m, const MappingSearchOptions& options,
    const std::vector<std::uint64_t>& region);

/// The same, tracing the regions first.
[[nodiscard]] std::vector<std::pair<ResourceId, ResourceId>> merge_candidates(
    const ArchitectureModel& m, const MappingSearchOptions& options);

/// Merges `from` into `into` for good: the scoped merge below, then
/// `from` is erased.  The search applies accepted moves this way.
void apply_merge(ArchitectureModel& m, ResourceId into, ResourceId from);

/// The incumbent's ftree::fragment_key per application node id, from
/// which the search folds the composition key of every state it scores
/// (ftree::fold_composition_key).  A merge into `into` moves the
/// fragments of the nodes on `into` only: its own nodes see its raised
/// ASIL, the moved nodes their new resource.  No merge changes the
/// application graph, so the node ids stay valid for the whole search.
class CompositionKeys {
public:
    CompositionKeys(const ArchitectureModel& m, const ftree::FtBuildOptions& options);

    /// ftree::composition_key of `m`, the incumbent.
    [[nodiscard]] std::uint64_t incumbent(const ArchitectureModel& m) const;

    /// ftree::composition_key of `m`, the incumbent with one merge into
    /// `into` applied (a ScopedMerge in scope): the cached fragments, with
    /// fresh ones for the nodes on `into`.
    [[nodiscard]] std::uint64_t with_merge(const ArchitectureModel& m, ResourceId into);

    /// Makes `m`, the incumbent after apply_merge into `into`, the new
    /// incumbent: refreshes the fragments of the nodes on `into`.
    void accept(const ArchitectureModel& m, ResourceId into);

private:
    ftree::FtBuildOptions options_;
    std::vector<std::uint64_t> incumbent_;  ///< node id -> the incumbent's fragment key
    std::vector<std::uint64_t> trial_;      ///< equals incumbent_ between with_merge calls
};

/// A candidate merge applied to `m` for scoring and undone when the
/// scope ends, exceptions included.  Inside the scope `into` carries
/// asil_max of the pair and every node of `from`, each node's resource
/// list in the order apply_merge leaves, and `from` stays in the
/// resource graph with nothing mapped onto it.  No fault-tree event,
/// composition-key term or cost term reads an unmapped resource, so `m`
/// scores bitwise like apply_merge's result.
class ScopedMerge {
public:
    ScopedMerge(ArchitectureModel& m, ResourceId into, ResourceId from);
    ~ScopedMerge();
    ScopedMerge(const ScopedMerge&) = delete;
    ScopedMerge& operator=(const ScopedMerge&) = delete;

private:
    /// Restores the saved resource lists (remap_node) and `into`'s ASIL.
    /// The lists passed map_node's checks before the move, so only an
    /// allocation failure could throw here, and from the destructor that
    /// ends the program.
    void undo();

    ArchitectureModel& m_;
    ResourceId into_;
    Asil into_asil_;
    /// The moved nodes with their resource lists before the move.
    std::vector<std::pair<NodeId, std::vector<ResourceId>>> saved_;
};

}  // namespace detail

}  // namespace asilkit::explore
