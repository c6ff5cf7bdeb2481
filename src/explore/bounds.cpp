#include "explore/bounds.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "bdd/from_fault_tree.h"
#include "core/error.h"
#include "cost/cost_analysis.h"

namespace asilkit::explore {
namespace {

// Beyond this many cut sets the Bonferroni precompute stops paying for
// itself against plain engine evaluations.
constexpr std::size_t kMaxCuts = 2048;

// Both bounds are exact-arithmetic sound; the slack absorbs the
// floating-point rounding difference between the bound computation and
// the engine's own evaluation of the same quantity, keeping
// bound <= engine value certain in FP as well.
constexpr double kProbabilitySlack = 1.0 - 1e-9;
constexpr double kCostSlack = 1.0 - 1e-12;

/// Sorted union of `extra` into sorted `cs`, in place.
void merge_into(analysis::CutSet& cs, const std::vector<std::uint32_t>& extra) {
    const std::size_t mid = cs.size();
    cs.insert(cs.end(), extra.begin(), extra.end());
    std::inplace_merge(cs.begin(), cs.begin() + static_cast<std::ptrdiff_t>(mid), cs.end());
    cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
}

}  // namespace

MergeBoundContext::MergeBoundContext(const ArchitectureModel& m, const cost::CostMetric& metric,
                                     const analysis::ProbabilityOptions& prob_options,
                                     double current_total_cost, engine::EvalEngine& engine)
    : MergeBoundContext(m, metric, prob_options, current_total_cost, engine,
                        ftree::composition_key(m, analysis::fault_tree_options(prob_options))) {}

MergeBoundContext::MergeBoundContext(const ArchitectureModel& m, const cost::CostMetric& metric,
                                     const analysis::ProbabilityOptions& prob_options,
                                     double current_total_cost, engine::EvalEngine& engine,
                                     std::uint64_t composition_key)
    : model_(m),
      metric_(metric),
      prob_options_(prob_options),
      current_total_cost_(current_total_cost) {
    try {
        const engine::EvalEngine::RawCutSets& raw = engine.minimal_cut_sets(
            m, analysis::fault_tree_options(prob_options_), composition_key);
        // The build's id tables: the event an id is, if the tree prices it.
        const auto event_of = [](const std::vector<std::optional<ftree::FtRef>>& table,
                                 std::uint32_t id) -> std::optional<std::uint32_t> {
            if (id >= table.size() || !table[id]) return std::nullopt;
            return table[id]->index;
        };

        for (ResourceId r : m.used_resources()) {
            ResourceEvents ev;
            ev.event = event_of(raw.resource_event, r.value());
            ev.locations = m.resource_locations(r);
            std::sort(ev.locations.begin(), ev.locations.end());
            for (LocationId loc : ev.locations) {
                if (const auto e = event_of(raw.location_event, loc.value())) {
                    ev.loc_events.push_back(*e);
                }
            }
            std::sort(ev.loc_events.begin(), ev.loc_events.end());
            ev.loc_events.erase(std::unique(ev.loc_events.begin(), ev.loc_events.end()),
                                ev.loc_events.end());
            resource_events_.emplace(r, std::move(ev));
        }
        events_ok_ = true;

        if (raw.cut_sets.size() > kMaxCuts) return;  // lb_ stays empty -> unusable
        event_probs_.reserve(raw.lambdas.size());
        for (const double lambda : raw.lambdas) {
            event_probs_.push_back(bdd::basic_event_probability(lambda, prob_options_.mission_hours));
        }
        lb_.emplace(raw.cut_sets, event_probs_);
    } catch (const AnalysisError&) {
        lb_.reset();  // no probability bound for this model; never prune
    }
}

const MergeBoundContext::ResourceEvents& MergeBoundContext::events_of(ResourceId r) const {
    return resource_events_.at(r);
}

/// The conservative cut rewrite for merging `from` (events `eb`) into
/// `into` (events `ea`): re-price the survivor for its asil_max raise,
/// substitute res:from by res:into in every cut pricing it, and widen by
/// the survivor's location events when a cut relied on the old ones.
/// Widening (more events required to fail jointly) can only lower the
/// cut's probability — sound.  See docs/explore.md for the monotonicity
/// argument that each rewrite IS a cut of the merged top event.
analysis::CutSetLowerBound::Substitution MergeBoundContext::substitution_for(
    ResourceId into, ResourceId from, const ResourceEvents& ea, const ResourceEvents& eb) const {
    const bool same_locations = ea.locations == eb.locations;
    analysis::CutSetLowerBound::Substitution sub;
    // Re-priced survivor event: the merge raises `into` to asil_max of
    // the pair, exactly as apply_merge will (a lambda_override, being a
    // data-sheet fact about the part, survives the ASIL raise).
    if (ea.event) {
        Resource merged = model_.resources().node(into);
        merged.asil = asil_max(merged.asil, model_.resources().node(from).asil);
        sub.overrides.emplace_back(
            *ea.event, bdd::basic_event_probability(prob_options_.rates.resource_rate(merged),
                                                    prob_options_.mission_hours));
    }

    // A cut is affected when its probability changes (it prices res:into
    // or res:from) or when its validity depends on the moved nodes' old
    // locations (it contains a loc event of `from` while the merge
    // relocates — i.e. the location sets differ).
    std::vector<std::uint32_t> touched;
    if (ea.event) touched.push_back(*ea.event);
    if (eb.event) touched.push_back(*eb.event);
    if (!same_locations) touched.insert(touched.end(), eb.loc_events.begin(), eb.loc_events.end());
    std::vector<std::uint32_t> affected = lb_->cuts_containing(touched);

    sub.replacements.reserve(affected.size());
    for (std::uint32_t i : affected) {
        analysis::CutSet rewritten = lb_->cuts()[i];
        if (eb.event) {
            const auto it = std::lower_bound(rewritten.begin(), rewritten.end(), *eb.event);
            if (it != rewritten.end() && *it == *eb.event) {
                rewritten.erase(it);
                merge_into(rewritten, {*ea.event});
            }
        }
        if (!same_locations) {
            const bool touches_old_location = std::any_of(
                eb.loc_events.begin(), eb.loc_events.end(), [&](std::uint32_t e) {
                    return std::binary_search(rewritten.begin(), rewritten.end(), e);
                });
            if (touches_old_location) merge_into(rewritten, ea.loc_events);
        }
        sub.replacements.push_back(std::move(rewritten));
    }
    sub.affected = std::move(affected);
    return sub;
}

MergeBoundContext::Bounds MergeBoundContext::bounds(ResourceId into, ResourceId from) const {
    Bounds out;
    const Resource& a = model_.resources().node(into);
    const Resource& b = model_.resources().node(from);
    out.cost_lb = cost::merged_total_cost(current_total_cost_, metric_, a, b) * kCostSlack;
    if (!lb_) return out;  // probability_lb = 0: never prunes

    const ResourceEvents& ea = events_of(into);
    const ResourceEvents& eb = events_of(from);
    if (eb.event && !ea.event) return out;  // cannot express the substitution soundly
    const analysis::CutSetLowerBound::Substitution sub = substitution_for(into, from, ea, eb);
    out.probability_lb = lb_->rebound(sub) * kProbabilitySlack;
    return out;
}

void MergeBoundContext::commit(ResourceId into, ResourceId from, double new_total_cost) {
    current_total_cost_ = new_total_cost;
    if (!events_ok_) return;
    // Copies: the map is mutated below, and substitution_for takes refs.
    const ResourceEvents ea = events_of(into);
    const ResourceEvents eb = events_of(from);
    resource_events_.erase(from);
    if (!lb_) return;
    if (eb.event && !ea.event) {
        // The accepted merge itself is inexpressible as a cut rewrite;
        // without a sound family for the merged model the probability
        // bound is retired for the rest of the search (cost bounds keep
        // working).  Unreachable for models the fault-tree builder
        // prices completely — every mapped resource gets an event.
        lb_.reset();
        return;
    }
    analysis::CutSetLowerBound::Substitution sub = substitution_for(into, from, ea, eb);

    // Materialize the substituted family as the new base: every
    // rewritten cut is a cut of the merged top event, so the next
    // iteration's bounds stay admissible without a fault-tree rebuild or
    // cut re-enumeration.  The family is kept sorted and unique, which
    // stops duplicates accumulating over long walks: the surviving cuts
    // already are, so they move over as they stand, and only the sorted
    // replacements are merged in.  Each affected cut has one
    // replacement, so the family never grows past kMaxCuts.
    std::vector<analysis::CutSet> old = std::move(*lb_).cuts();
    std::vector<analysis::CutSet> kept;
    kept.reserve(old.size() - sub.affected.size());
    std::size_t skip = 0;
    for (std::uint32_t i = 0; i < old.size(); ++i) {
        if (skip < sub.affected.size() && sub.affected[skip] == i) {
            ++skip;
            continue;
        }
        kept.push_back(std::move(old[i]));
    }
    std::sort(sub.replacements.begin(), sub.replacements.end());
    std::vector<analysis::CutSet> next;
    next.reserve(kept.size() + sub.replacements.size());
    std::merge(std::make_move_iterator(kept.begin()), std::make_move_iterator(kept.end()),
               std::make_move_iterator(sub.replacements.begin()),
               std::make_move_iterator(sub.replacements.end()), std::back_inserter(next));
    next.erase(std::unique(next.begin(), next.end()), next.end());
    for (const auto& [event, probability] : sub.overrides) event_probs_[event] = probability;
    lb_.emplace(std::move(next), event_probs_);
}

}  // namespace asilkit::explore

