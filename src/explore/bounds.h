// Admissible lower bounds for resource-merge candidates.
//
// search_mapping evaluates every candidate merge on the real objective —
// exact BDD failure probability, then architecture cost.  Most candidates
// provably cannot beat the incumbent, and proving that is far cheaper
// than a fault-tree + BDD evaluation:
//
//   * cost: a merge removes one resource and raises the survivor to
//     asil_max of the pair.  The post-merge total under the metric is a
//     closed-form delta on the pre-merge total
//     (cost::merged_total_cost) — exact, hence admissible.
//
//   * probability: from the CURRENT model's minimal cut sets, every cut
//     is conservatively rewritten into a cut of the merged model
//     (substitute the removed resource's event by the survivor's
//     re-priced event; when the merge relocates nodes, widen the cut by
//     the survivor's location events).  The union of the rewritten cuts
//     under-approximates the merged top event, and the second-order
//     Bonferroni bound (analysis::CutSetLowerBound) under-approximates
//     that union — two sound inequalities stacked, so
//     prob_lb <= exact probability always (docs/explore.md spells out
//     the monotonicity argument).
//
// The context is built once per SEARCH (one fault tree + one cut-set
// enumeration + the factorised Bonferroni precomputation), queried per
// candidate in time proportional to the affected cuts and their
// event-sharing neighbours (the affected cuts are the OR of the touched
// events' bit rows in the bound's index), and carried across iterations
// by commit():
// the accepted merge's conservative rewrite becomes the new base
// family, skipping the tree build and the MOCUS enumeration that
// dominate construction.  The enumeration itself comes from the
// search's engine, which memoises it per composition together with the
// build's id tables and the rates the context reads, so the searches of
// a trade-off sweep that start from one seed model on one engine build
// its tree and enumerate its cut sets once.  When the model is out of
// reach for cut-set enumeration (MOCUS overflow, degenerate tree, or an
// oversized cut family), usable() is false and the caller must not
// prune — bounds never sacrifice exactness, only work.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "analysis/cutsets.h"
#include "analysis/probability.h"
#include "cost/cost_metric.h"
#include "engine/engine.h"
#include "model/architecture.h"

namespace asilkit::explore {

class MergeBoundContext {
public:
    struct Bounds {
        double probability_lb = 0.0;
        double cost_lb = 0.0;
    };

    /// `current_total_cost` is the pre-merge total under `metric`, as
    /// already computed by the search.  `m` must outlive the context and
    /// is read through on every query, so the same context can follow a
    /// search walk via commit().  The minimal cut sets of m's fault tree,
    /// and the id tables and rates that name and price their events,
    /// come from `engine`'s memo.
    MergeBoundContext(const ArchitectureModel& m, const cost::CostMetric& metric,
                      const analysis::ProbabilityOptions& prob_options, double current_total_cost,
                      engine::EvalEngine& engine);

    /// The same with m's composition key supplied by the caller, who may
    /// fold it from cached fragment keys (search_mapping does): it must
    /// equal ftree::composition_key(m, analysis::fault_tree_options(
    /// prob_options)), the key of the engine's cut-set memo.
    MergeBoundContext(const ArchitectureModel& m, const cost::CostMetric& metric,
                      const analysis::ProbabilityOptions& prob_options, double current_total_cost,
                      engine::EvalEngine& engine, std::uint64_t composition_key);

    /// Advances the context across an ACCEPTED merge without rebuilding
    /// the fault tree or re-enumerating cut sets: the same conservative
    /// cut rewrite that bounds() prices is materialized as the new base
    /// family (rewritten cuts are cuts of the merged top event, so every
    /// later bound stays admissible — see docs/explore.md), and the
    /// survivor's event is re-priced for its raised ASIL.  The surviving
    /// cuts move into the new family as they stand (they are sorted and
    /// unique already) and only the sorted replacements are merged in.
    /// Must be called BEFORE the merge is applied to the model;
    /// `new_total_cost` is the merged model's exact total under the
    /// metric (the search's next incumbent).  Costs one CutSetLowerBound
    /// construction, against the tree build, MOCUS and construction of a
    /// fresh context.
    void commit(ResourceId into, ResourceId from, double new_total_cost);

    /// False when no sound probability bound could be established for
    /// this model; bounds() then returns probability_lb = 0 (which never
    /// prunes).  The cost bound is always available.
    [[nodiscard]] bool usable() const noexcept { return lb_.has_value(); }

    /// Admissible lower bounds for merging `from` into `into`.  Both
    /// must be used resources of the model the context was built from.
    [[nodiscard]] Bounds bounds(ResourceId into, ResourceId from) const;

    /// Cut sets backing the probability bound (empty when unusable).
    [[nodiscard]] std::size_t cut_count() const noexcept {
        return lb_ ? lb_->cut_count() : 0u;
    }

private:
    struct ResourceEvents {
        std::optional<std::uint32_t> event;     ///< the resource's event index, if in the tree
        std::vector<std::uint32_t> loc_events;  ///< sorted event indices of its locations
        std::vector<LocationId> locations;      ///< sorted, straight from MapH
    };
    [[nodiscard]] const ResourceEvents& events_of(ResourceId r) const;
    [[nodiscard]] analysis::CutSetLowerBound::Substitution substitution_for(
        ResourceId into, ResourceId from, const ResourceEvents& ea,
        const ResourceEvents& eb) const;

    const ArchitectureModel& model_;
    const cost::CostMetric& metric_;
    analysis::ProbabilityOptions prob_options_;
    double current_total_cost_;
    bool events_ok_ = false;  ///< resource_events_ populated (tree built)
    std::optional<analysis::CutSetLowerBound> lb_;
    std::vector<double> event_probs_;  ///< current per-event pricing for lb_
    std::unordered_map<ResourceId, ResourceEvents> resource_events_;
};

}  // namespace asilkit::explore
