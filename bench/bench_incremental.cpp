// Incremental fault-tree generation benchmark: the engine's tree
// builder (ftree::IncrementalTreeBuilder) on the EcoTwin trade-off
// sweep.
//
// Workload: the same expanded EcoTwin lateral-control model as
// bench_pruning, swept across capacity x metric configurations on one
// shared engine.  Every analyze prepares its candidate's tree — the
// composition fingerprint, then a finished-tree memo hit or a
// build_fault_tree — before the evaluation memo is consulted, so this
// layer does its work on every evaluation.  The sweep runs twice on the
// same engine: the first pass is the cold start (every composition
// built once), the second is the steady state an iterative DSE driver
// lives in (every composition already in the finished-tree memo).  Memo
// hits serve trees bitwise identical to full rebuilds (asserted in
// tests/test_cft.cpp and, through the search,
// tests/test_mapping_search.cpp).
//
// Counters exported per timing (consumed by tools/bench_to_json):
//   evals_warm        candidate evaluations in the steady-state pass
//   gates_warm        gates constructed during the steady-state pass
//                     (registry delta of "ftree.gates_built")
//   gates_per_eval_warm  gate constructions per steady-state evaluation
//   memo_hits         compositions served whole from the finished-tree
//                     memo in the steady-state pass (zero gates)
//   cache_hit_rate    finished-tree memo hits / evaluations over both
//                     passes
#include "bench_util.h"

#include "cost/cost_analysis.h"
#include "engine/engine.h"
#include "explore/mapping_search.h"
#include "scenarios/ecotwin.h"
#include "transform/expand.h"

using namespace asilkit;

namespace {

ArchitectureModel workload() {
    ArchitectureModel m = scenarios::ecotwin_lateral_control();
    // Expand most of the communication-heavy decision chain, as
    // bench_pruning does: redundant branches make every tree build
    // genuinely costly (many gates, many modules).
    for (const char* n :
         {"objs_eth", "objs_bb", "env_out", "wm_eth", "wm_can", "lateral_control", "ctrl_out"}) {
        transform::expand(m, m.find_app_node(n));
    }
    // Field-calibrated per-instance rates (same spread as
    // bench_pruning): separates otherwise-tied candidates on the
    // objective so the sweep explores a realistic candidate mix.
    std::size_t instance = 0;
    for (ResourceId r : m.used_resources()) {
        const double calibrated =
            m.resource_lambda(r) * (1.0 + 0.003 * static_cast<double>(++instance));
        m.resources().node(r).lambda_override = calibrated;
    }
    return m;
}

struct PassTotals {
    std::uint64_t evals = 0;
    std::uint64_t gates = 0;  // "ftree.gates_built" delta over the pass
    std::uint64_t memo_hits = 0;
};

/// One capacity x metric sweep over `shared`, with the gate-construction
/// registry counter sampled around it.
PassTotals run_pass(engine::EvalEngine& shared) {
    obs::Counter& gates = obs::Registry::global().counter("ftree.gates_built");
    PassTotals totals;
    const std::uint64_t gates_before = gates.value();
    for (const std::size_t capacity : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
        for (const int metric : {1, 2}) {
            ArchitectureModel m = workload();
            explore::MappingSearchOptions options;
            options.max_nodes_per_resource = capacity;
            options.metric = metric == 1 ? cost::CostMetric::exponential_metric1()
                                         : cost::CostMetric::exponential_metric2();
            const explore::MappingSearchResult r = explore::search_mapping(m, options, shared);
            totals.evals += r.evaluations;
            totals.memo_hits += r.ftree_memo_hits;
        }
    }
    totals.gates = gates.value() - gates_before;
    return totals;
}

struct SweepTotals {
    PassTotals cold;
    PassTotals warm;
};

/// The double sweep: cold pass then the identical steady-state pass on
/// one shared engine, where the finished-tree memo serves every
/// candidate's tree instead of rebuilding it.
SweepTotals run_sweep() {
    engine::EvalEngine shared;
    SweepTotals totals;
    totals.cold = run_pass(shared);
    totals.warm = run_pass(shared);
    return totals;
}

double per(std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void print_report() {
    bench::heading("Incremental fault-tree generation (EcoTwin trade-off sweep)");
    const SweepTotals t = run_sweep();
    bench::row("candidate evaluations, cold pass", static_cast<double>(t.cold.evals));
    bench::row("gates/evaluation, cold pass", per(t.cold.gates, t.cold.evals));
    bench::row("gates/evaluation, warm pass", per(t.warm.gates, t.warm.evals));
    bench::row("finished-tree memo hit rate",
               per(t.cold.memo_hits + t.warm.memo_hits, t.cold.evals + t.warm.evals));
    bench::row("finished-tree memo hits (warm)", static_cast<double>(t.warm.memo_hits));
    bench::note("memo hits serve trees bitwise identical to full rebuilds");
    bench::note("(asserted by tests/test_cft.cpp and tests/test_mapping_search.cpp).");
}

// The double sweep: cold pass then steady-state pass on one engine.
void BM_IncrementalSweep(benchmark::State& state) {
    SweepTotals totals;
    bench::time_batch(state, "bench.incremental_sweep_ns", [&] {
        totals = run_sweep();
        benchmark::DoNotOptimize(totals);
    });
    state.counters["evals_warm"] = static_cast<double>(totals.warm.evals);
    state.counters["gates_warm"] = static_cast<double>(totals.warm.gates);
    state.counters["gates_per_eval_warm"] = per(totals.warm.gates, totals.warm.evals);
    state.counters["memo_hits"] = static_cast<double>(totals.warm.memo_hits);
    state.counters["cache_hit_rate"] = per(totals.cold.memo_hits + totals.warm.memo_hits,
                                           totals.cold.evals + totals.warm.evals);
}
BENCHMARK(BM_IncrementalSweep)->Unit(benchmark::kMillisecond)->UseManualTime();

// Steady-state analyze latency: two rate-variant models alternating
// through one engine.  Each analyze still prepares its tree — the
// fingerprint and a finished-tree memo hit after the warm-up round —
// before the evaluation memo serves the probability.
void BM_RepeatAnalyze(benchmark::State& state) {
    engine::EvalEngine shared;
    const ArchitectureModel a = workload();
    ArchitectureModel b = workload();
    {
        const ResourceId r = b.used_resources().front();
        b.resources().node(r).lambda_override = b.resource_lambda(r) * 1.5;
    }
    const analysis::ProbabilityOptions options;
    // Warm-up round: both compositions enter the finished-tree memo.
    (void)shared.analyze(a, options);
    (void)shared.analyze(b, options);
    obs::Counter& gates = obs::Registry::global().counter("ftree.gates_built");
    const std::uint64_t gates_before = gates.value();
    std::uint64_t analyzes = 0;
    bench::time_batch(state, "bench.repeat_analyze_ns", [&] {
        benchmark::DoNotOptimize(shared.analyze(a, options));
        benchmark::DoNotOptimize(shared.analyze(b, options));
        analyzes += 2;
    });
    state.counters["gates_per_analyze"] =
        analyzes == 0 ? 0.0 : per(gates.value() - gates_before, analyzes);
    state.counters["cache_hit_rate"] = 0.0;
}
BENCHMARK(BM_RepeatAnalyze)->Unit(benchmark::kMillisecond)->UseManualTime();

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
