// Bound-pruned anytime search benchmark: the staged generate ->
// bound-check -> evaluate pipeline on the EcoTwin trade-off sweep, with
// the exhaustive search (bound_pruning off, the reference the exactness
// tests compare against) reported for scale.
//
// Workload: the EcoTwin lateral-control model with most of its decision
// chain expanded (redundant branches everywhere, so iterations carry
// many same-region candidates and every evaluation pays a sizeable
// fault tree), swept across capacity x metric configurations on one
// shared engine — the driver's trade-off loop in miniature.  Results
// are bitwise identical with pruning on or off (asserted in
// tests/test_mapping_search.cpp); only the work differs.
//
// Counters exported per timing (consumed by tools/bench_to_json):
//   evals             engine submissions over the sweep
//   full_evals        tree misses: evaluations that paid the BDD
//                     pipeline (evaluation-memo hits are tree hits)
//   bound_rejections  candidates pruned by the bound check alone
//   candidates        (BM_BoundCheck) bounds computed per iteration
//   offers            (BM_FrontUpdate) tracker offers per iteration
#include "bench_util.h"

#include <random>

#include "analysis/probability.h"
#include "cost/cost_analysis.h"
#include "explore/bounds.h"
#include "explore/mapping_search.h"
#include "explore/pareto.h"
#include "scenarios/ecotwin.h"
#include "transform/expand.h"

using namespace asilkit;

namespace {

ArchitectureModel workload() {
    ArchitectureModel m = scenarios::ecotwin_lateral_control();
    // Expand most of the communication-heavy decision chain: redundant
    // branches everywhere make candidate evaluations genuinely costly
    // (large fault trees, many modules) — the regime the staged
    // pipeline is built for.
    for (const char* n :
         {"objs_eth", "objs_bb", "env_out", "wm_eth", "wm_can", "lateral_control", "ctrl_out"}) {
        transform::expand(m, m.find_app_node(n));
    }
    // Field-calibrated per-instance rates: identical part types across
    // redundant branches never fail at exactly the data-sheet number, so
    // give every instance a deterministic spread around its Table-I
    // rate.  The spread separates candidate merges on the objective —
    // the regime admissible bounds are built for.  (Perfectly
    // mirror-symmetric rates instead make many candidates exact ties,
    // which no strict lower bound may prune; the exactness tests cover
    // that regime.)
    std::size_t instance = 0;
    for (ResourceId r : m.used_resources()) {
        const double calibrated =
            m.resource_lambda(r) * (1.0 + 0.003 * static_cast<double>(++instance));
        m.resources().node(r).lambda_override = calibrated;
    }
    return m;
}

struct SweepTotals {
    std::uint64_t evals = 0;
    std::uint64_t full_evals = 0;
    std::uint64_t bound_rejections = 0;
};

/// The trade-off sweep: capacity x metric configurations of the mapping
/// search over one shared engine, as an iterative DSE driver runs them.
SweepTotals run_sweep(bool pruning) {
    engine::EvalEngine shared;
    SweepTotals totals;
    for (const std::size_t capacity : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
        for (const int metric : {1, 2}) {
            ArchitectureModel m = workload();
            explore::MappingSearchOptions options;
            options.max_nodes_per_resource = capacity;
            options.metric = metric == 1 ? cost::CostMetric::exponential_metric1()
                                         : cost::CostMetric::exponential_metric2();
            options.bound_pruning = pruning;
            const explore::MappingSearchResult r = explore::search_mapping(m, options, shared);
            totals.evals += r.evaluations;
            totals.full_evals += r.eval_cache_misses;
            totals.bound_rejections += r.bound_rejections;
        }
    }
    return totals;
}

void print_report() {
    bench::heading("Bound-pruned anytime search (EcoTwin trade-off sweep)");
    const SweepTotals off = run_sweep(false);
    const SweepTotals on = run_sweep(true);
    bench::row("engine submissions, exhaustive", static_cast<double>(off.evals));
    bench::row("engine submissions, pruned", static_cast<double>(on.evals));
    bench::row("full evaluations, exhaustive", static_cast<double>(off.full_evals));
    bench::row("full evaluations, pruned", static_cast<double>(on.full_evals));
    bench::row("bound rejections", static_cast<double>(on.bound_rejections));
    if (on.full_evals > 0) {
        bench::row("full-evaluation reduction",
                   static_cast<double>(off.full_evals) / static_cast<double>(on.full_evals));
    }
    bench::note("fronts and searched models are bitwise identical with pruning on/off");
    bench::note("(asserted by tests/test_mapping_search.cpp).");
}

// The sweep with bound pruning.
void BM_PruningSweep(benchmark::State& state) {
    SweepTotals totals;
    bench::time_batch(state, "bench.pruning_sweep_ns", [&] {
        totals = run_sweep(true);
        benchmark::DoNotOptimize(totals);
    });
    state.counters["evals"] = static_cast<double>(totals.evals);
    state.counters["full_evals"] = static_cast<double>(totals.full_evals);
    state.counters["bound_rejections"] = static_cast<double>(totals.bound_rejections);
    state.counters["cache_hit_rate"] = 0.0;
}
BENCHMARK(BM_PruningSweep)->Unit(benchmark::kMillisecond)->UseManualTime();

// Bound-check cost per candidate: one context build (fault tree + cut
// sets + factorised Bonferroni precompute) amortised over every
// same-kind pair's bounds() query — the price the pipeline pays per
// candidate before deciding whether the engine sees it.
void BM_BoundCheck(benchmark::State& state) {
    const ArchitectureModel m = workload();
    const cost::CostMetric metric = cost::CostMetric::exponential_metric1();
    const double current = cost::total_cost(m, metric);
    std::vector<std::pair<ResourceId, ResourceId>> pairs;
    const std::vector<ResourceId> used = m.used_resources();
    for (ResourceId a : used) {
        for (ResourceId b : used) {
            if (a != b && m.resources().node(a).kind == m.resources().node(b).kind) {
                pairs.emplace_back(a, b);
            }
        }
    }
    bench::time_batch(state, "bench.bound_check_ns", [&] {
        const explore::MergeBoundContext ctx(m, metric, {}, current);
        double acc = 0.0;
        for (const auto& [into, from] : pairs) {
            const auto b = ctx.bounds(into, from);
            acc += b.probability_lb + b.cost_lb;
        }
        benchmark::DoNotOptimize(acc);
    });
    state.counters["candidates"] = static_cast<double>(pairs.size());
    state.counters["cache_hit_rate"] = 0.0;
}
BENCHMARK(BM_BoundCheck)->Unit(benchmark::kMicrosecond)->UseManualTime();

// Front-update latency: ParetoTracker::insert over a random offer
// stream — the synchronous cost each accepted state adds to the walk
// when anytime streaming is on.
void BM_FrontUpdate(benchmark::State& state) {
    std::mt19937 rng(97);
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    std::vector<explore::TradeoffPoint> offers(4096);
    for (explore::TradeoffPoint& p : offers) {
        p.cost = uniform(rng) * 100.0;
        p.failure_probability = uniform(rng);
    }
    bench::time_batch(state, "bench.front_update_ns", [&] {
        explore::ParetoTracker tracker;
        for (const explore::TradeoffPoint& p : offers) tracker.insert(p);
        benchmark::DoNotOptimize(tracker.front().size());
    });
    state.counters["offers"] = static_cast<double>(offers.size());
    state.counters["cache_hit_rate"] = 0.0;
}
BENCHMARK(BM_FrontUpdate)->Unit(benchmark::kMicrosecond)->UseManualTime();

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
