#include "explore/mapping_search.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"
#include "cost/cost_analysis.h"
#include "explore/bounds.h"
#include "model/blocks.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace asilkit::explore {

namespace {

/// Resources may only be merged when all their nodes live in one common
/// region (detail::region_of_nodes); kTrunk is the region of every node
/// outside the branches.
using RegionId = std::uint64_t;
constexpr RegionId kTrunk = ~RegionId{0};

/// Every used resource, ascending, with the nodes mapped onto it,
/// ascending: used_resources() and nodes_on_resource() from one pass over
/// the mapping instead of a scan of it per resource.
std::map<ResourceId, std::vector<NodeId>> nodes_by_resource(const ArchitectureModel& m) {
    std::map<ResourceId, std::vector<NodeId>> out;
    for (NodeId n : m.app().node_ids()) {
        for (ResourceId r : m.mapped_resources(n)) out[r].push_back(n);
    }
    return out;
}

/// The single region of a resource's nodes, or nullopt when mixed/empty.
std::optional<RegionId> resource_region(const std::vector<NodeId>& nodes,
                                        const std::vector<RegionId>& region) {
    if (nodes.empty()) return std::nullopt;
    const RegionId first = region.at(nodes.front().value());
    for (NodeId n : nodes) {
        if (region.at(n.value()) != first) return std::nullopt;
    }
    return first;
}

struct Objective {
    double probability;
    double cost;
    friend bool operator<(const Objective& a, const Objective& b) {
        if (a.probability != b.probability) return a.probability < b.probability;
        return a.cost < b.cost;
    }
};

/// What a merge does to the model apart from erasing `from`: raises
/// `into` to asil_max of the pair and moves `nodes` (every node on
/// `from`) onto it, mapping before unmapping, so each node's resource
/// list ends in the same order for a trial and for an accepted move.
void raise_and_move(ArchitectureModel& m, ResourceId into, ResourceId from,
                    const std::vector<NodeId>& nodes) {
    const Asil needed = asil_max(m.resources().node(into).asil, m.resources().node(from).asil);
    m.resources().node(into).asil = needed;
    for (NodeId n : nodes) {
        m.map_node(n, into);
        m.unmap_node(n, from);
    }
}

}  // namespace

namespace detail {

std::uint64_t pack_region_id(std::uint64_t merger, std::uint64_t branch) {
    constexpr std::uint64_t kHalf = std::uint64_t{1} << 32;
    if (merger >= kHalf - 1) {
        throw ModelError("pack_region_id: merger id does not fit 32 bits or is the invalid id");
    }
    if (branch >= kHalf) {
        throw ModelError("pack_region_id: branch index does not fit 32 bits");
    }
    return (merger << 32) | branch;
}

std::vector<std::uint64_t> region_of_nodes(const ArchitectureModel& m) {
    std::vector<RegionId> region(m.app().node_capacity(), kTrunk);
    for (const RedundantBlock& block : find_redundant_blocks(m)) {
        if (!block.well_formed) continue;
        for (std::size_t b = 0; b < block.branches.size(); ++b) {
            const RegionId id = pack_region_id(block.merger.value(), b);
            for (NodeId n : block.branches[b].nodes) region[n.value()] = id;
        }
    }
    return region;
}

std::vector<std::pair<ResourceId, ResourceId>> merge_candidates(
    const ArchitectureModel& m, const MappingSearchOptions& options) {
    return merge_candidates(m, options, region_of_nodes(m));
}

std::vector<std::pair<ResourceId, ResourceId>> merge_candidates(
    const ArchitectureModel& m, const MappingSearchOptions& options,
    const std::vector<std::uint64_t>& region) {

    // Candidate buckets: (kind, region) -> mergeable resources, each with
    // its node count.
    std::map<std::pair<int, RegionId>, std::vector<std::pair<ResourceId, std::size_t>>> buckets;
    for (const auto& [r, nodes] : nodes_by_resource(m)) {
        const Resource& res = m.resources().node(r);
        if (res.kind == ResourceKind::Splitter || res.kind == ResourceKind::Merger ||
            res.kind == ResourceKind::Sensor || res.kind == ResourceKind::Actuator) {
            continue;  // physical devices & redundancy management stay dedicated
        }
        if (const auto reg = resource_region(nodes, region)) {
            buckets[{static_cast<int>(res.kind), *reg}].emplace_back(r, nodes.size());
        }
    }

    // Flatten the capacity-feasible moves in deterministic bucket order;
    // selection works on (score, move index), so the chosen move is
    // independent of how the bound ordering permutes the evaluations.
    std::vector<std::pair<ResourceId, ResourceId>> moves;
    for (const auto& [key, resources] : buckets) {
        for (std::size_t i = 0; i < resources.size(); ++i) {
            for (std::size_t j = i + 1; j < resources.size(); ++j) {
                const std::size_t combined = resources[i].second + resources[j].second;
                if (combined > options.max_nodes_per_resource) continue;
                moves.emplace_back(resources[i].first, resources[j].first);
            }
        }
    }
    return moves;
}

void apply_merge(ArchitectureModel& m, ResourceId into, ResourceId from) {
    raise_and_move(m, into, from, m.nodes_on_resource(from));
    m.erase_resource(from);
}

ScopedMerge::ScopedMerge(ArchitectureModel& m, ResourceId into, ResourceId from)
    : m_(m), into_(into), into_asil_(m.resources().node(into).asil) {
    const std::vector<NodeId> nodes = m.nodes_on_resource(from);
    saved_.reserve(nodes.size());
    for (NodeId n : nodes) saved_.emplace_back(n, m.mapped_resources(n));
    try {
        raise_and_move(m, into, from, nodes);
    } catch (...) {
        undo();  // the destructor does not run for a half-built scope
        throw;
    }
}

ScopedMerge::~ScopedMerge() { undo(); }

void ScopedMerge::undo() {
    for (const auto& [n, resources] : saved_) m_.remap_node(n, resources);
    m_.resources().node(into_).asil = into_asil_;
}

CompositionKeys::CompositionKeys(const ArchitectureModel& m, const ftree::FtBuildOptions& options)
    : options_(options), incumbent_(m.app().node_capacity()) {
    for (NodeId n : m.app().node_ids()) incumbent_[n.value()] = ftree::fragment_key(m, n, options_);
    trial_ = incumbent_;
}

std::uint64_t CompositionKeys::incumbent(const ArchitectureModel& m) const {
    return ftree::fold_composition_key(m, options_, incumbent_);
}

std::uint64_t CompositionKeys::with_merge(const ArchitectureModel& m, ResourceId into) {
    const std::vector<NodeId> changed = m.nodes_on_resource(into);
    for (NodeId n : changed) trial_[n.value()] = ftree::fragment_key(m, n, options_);
    const std::uint64_t key = ftree::fold_composition_key(m, options_, trial_);
    for (NodeId n : changed) trial_[n.value()] = incumbent_[n.value()];
    return key;
}

void CompositionKeys::accept(const ArchitectureModel& m, ResourceId into) {
    for (NodeId n : m.nodes_on_resource(into)) {
        incumbent_[n.value()] = trial_[n.value()] = ftree::fragment_key(m, n, options_);
    }
}

}  // namespace detail

MappingSearchResult search_mapping(ArchitectureModel& m, const MappingSearchOptions& options) {
    engine::EvalEngine engine;
    return search_mapping(m, options, engine);
}

MappingSearchResult search_mapping(ArchitectureModel& m, const MappingSearchOptions& options,
                                   engine::EvalEngine& engine) {
    const obs::ObsSpan search_span("search_mapping", "explore");
    static obs::Counter& obs_iterations = obs::Registry::global().counter("explore.iterations");
    static obs::Counter& obs_candidates =
        obs::Registry::global().counter("explore.candidates_generated");
    static obs::Counter& obs_bound_rejections =
        obs::Registry::global().counter("explore.bound_rejections");
    static obs::Counter& obs_front_updates =
        obs::Registry::global().counter("explore.front_updates");

    MappingSearchResult result;
    const engine::EvalEngine::Stats stats_before = engine.stats();

    ParetoTracker local_tracker;
    ParetoTracker& tracker = options.front_tracker != nullptr ? *options.front_tracker
                                                              : local_tracker;
    const auto publish = [&](const TradeoffPoint& point) {
        if (!tracker.insert(point)) return;
        ++result.front_updates;
        obs_front_updates.inc();
        if (options.on_front_update) options.on_front_update(point, tracker.front_size());
    };

    // Every state's composition key is folded from the incumbent's
    // fragment keys, recomputing only those a merge moves.
    detail::CompositionKeys keys(m, analysis::fault_tree_options(options.probability));

    // The one unconditional full evaluation: every later state's exact
    // objective is carried forward from the evaluation that scored it.
    analysis::ProbabilityResult current_prob =
        engine.analyze(m, options.probability, keys.incumbent(m));
    Objective current{current_prob.failure_probability, cost::total_cost(m, options.metric)};
    result.probability_before = current.probability;
    result.cost_before = current.cost;
    publish(make_point(m, "initial", current.cost, current_prob));

    // Merges remap nodes and raise ASILs but never change the application
    // graph, so its redundant blocks, and with them the regions, are
    // traced once per search.
    const std::vector<std::uint64_t> region = detail::region_of_nodes(m);

    // One bound context per SEARCH: built on the first iteration (fault
    // tree + minimal cut sets + Bonferroni precompute) and then carried
    // across accepted merges by commit(), which rewrites the cut family
    // in place of re-enumerating it.
    std::optional<MergeBoundContext> bound_ctx;

    for (; result.iterations < options.max_iterations; ++result.iterations) {
        const obs::ObsSpan iter_span("iteration", "explore", "iteration",
                                     static_cast<double>(result.iterations));
        obs_iterations.inc();

        std::vector<std::pair<ResourceId, ResourceId>> moves;
        {
            const obs::ObsSpan generate_span("generate", "explore");
            moves = detail::merge_candidates(m, options, region);
        }
        const std::size_t n = moves.size();
        result.candidates += n;
        obs_candidates.add(n);

        // Bound-check stage: O(affected cuts) per candidate against the
        // carried context.  Each bound is admissible — never above the
        // candidate's exact objective — so the best-bound-first
        // evaluation below can stop early without ever changing the
        // selected move.
        std::vector<Objective> lower(n);
        if (n > 0) {
            const obs::ObsSpan bound_span("bound_check", "explore", "candidates",
                                          static_cast<double>(n));
            if (!bound_ctx) {
                bound_ctx.emplace(m, options.metric, options.probability, current.cost, engine,
                                  keys.incumbent(m));
            }
            for (std::size_t i = 0; i < n; ++i) {
                const MergeBoundContext::Bounds b =
                    bound_ctx->bounds(moves[i].first, moves[i].second);
                lower[i] = Objective{b.probability_lb, b.cost_lb};
            }
        }

        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
            if (lower[i] < lower[j]) return true;
            if (lower[j] < lower[i]) return false;
            return i < j;
        });

        // `beats` is the selection total order of the original serial
        // scan, made explicit so candidates can be examined in any
        // sequence: strictly better objective wins; an equal objective
        // wins only against another candidate of higher move index
        // (never against the incumbent state).  The final winner is the
        // unique minimum of this order over everything evaluated.
        Objective best = current;
        std::optional<std::size_t> best_index;
        analysis::ProbabilityResult best_prob;
        const auto beats = [&](const Objective& s, std::size_t idx) {
            if (s < best) return true;
            if (best < s) return false;
            return best_index.has_value() && idx < *best_index;
        };

        // Evaluation, one candidate at a time, best bound first.  If a
        // candidate's bound cannot beat the best move found so far, no
        // remaining candidate can (bounds ascend in `order` and never
        // exceed their exact scores) — everything left is pruned without
        // any fault-tree/BDD work.
        std::size_t pos = 0;
        {
            const obs::ObsSpan evaluate_span("evaluate", "explore", "candidates",
                                             static_cast<double>(n));
            for (; pos < n; ++pos) {
                const std::size_t idx = order[pos];
                if (!beats(lower[idx], idx)) break;
                // The candidate is scored on `m` itself; `trial` undoes the
                // merge when reset, or on the way out of an exception.
                Objective score{};
                std::optional<detail::ScopedMerge> trial;
                std::uint64_t key = 0;
                {
                    const obs::ObsSpan trial_span("trial", "explore");
                    trial.emplace(m, moves[idx].first, moves[idx].second);
                    score.cost = cost::total_cost(m, options.metric);
                    key = keys.with_merge(m, moves[idx].first);
                }
                analysis::ProbabilityResult prob = engine.analyze(m, options.probability, key);
                trial.reset();
                score.probability = prob.failure_probability;
                if (beats(score, idx)) {
                    best = score;
                    best_index = idx;
                    best_prob = std::move(prob);
                }
            }
        }
        if (pos < n) {
            const std::uint64_t pruned = n - pos;
            result.bound_rejections += pruned;
            obs_bound_rejections.add(pruned);
        }

        const obs::ObsSpan select_span("select", "explore");
        if (!best_index.has_value()) {
            result.reached_local_optimum = true;
            break;
        }
        const auto [into, from] = moves[*best_index];
        std::string label = "merge#" + std::to_string(result.merges + 1) + "(" +
                            m.resources().node(into).name + "<-" +
                            m.resources().node(from).name + ")";
        // Advance the carried bound context across the accepted merge
        // (must see the pre-merge model) before mutating the model.
        if (bound_ctx) {
            const obs::ObsSpan commit_span("commit", "explore");
            bound_ctx->commit(into, from, best.cost);
        }
        detail::apply_merge(m, into, from);
        keys.accept(m, into);
        ++result.merges;
        // Carry the winner's exact objective (and its diagnostics) as
        // the next iteration's incumbent: the applied model's canonical
        // tree is the one the evaluation scored, so re-evaluating could
        // only reproduce these very numbers.
        current = best;
        current_prob = std::move(best_prob);
        publish(make_point(m, std::move(label), current.cost, current_prob));
    }

    result.probability_after = current.probability;
    result.cost_after = current.cost;
    result.front = tracker.front();

    const engine::EvalEngine::Stats stats_after = engine.stats();
    result.evaluations = stats_after.analyze_calls - stats_before.analyze_calls;
    result.eval_cache_hits = stats_after.tree_hits - stats_before.tree_hits;
    result.eval_cache_misses = stats_after.tree_misses - stats_before.tree_misses;
    result.ftree_memo_hits = stats_after.ftree_memo_hits - stats_before.ftree_memo_hits;
    return result;
}

}  // namespace asilkit::explore
