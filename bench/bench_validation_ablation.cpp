// Ablation: cross-validation and optimisation quality.
//
// 1. Monte Carlo vs BDD — two independent implementations of the
//    top-event probability must agree within the sampling confidence
//    interval (run at inflated rates where sampling can resolve the
//    probability; the BDD is exact at every scale).
// 2. Mapping heuristic vs search — the greedy in-branch optimiser
//    (Sec. VII-B) compared with the capacity-constrained local search on
//    the same expanded architecture.
#include "bench_util.h"

#include "analysis/probability.h"
#include "analysis/simulation.h"
#include "cost/cost_analysis.h"
#include "explore/mapping_opt.h"
#include "explore/mapping_search.h"
#include "scenarios/fig3.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

using namespace asilkit;

namespace {

void print_report() {
    bench::heading("Monte Carlo vs BDD on the Fig. 3 system (rates x1e5)");
    const ArchitectureModel fig3 = scenarios::fig3_camera_gps_fusion();
    analysis::SimulationOptions sim;
    sim.trials = 200000;
    sim.rate_scale = 1e5;
    const analysis::SimulationResult mc = analysis::simulate_failure_probability(fig3, sim);
    analysis::ProbabilityOptions exact_options;
    exact_options.mission_hours = 1e5;
    const double exact =
        analysis::analyze_failure_probability(fig3, exact_options).failure_probability;
    bench::row("BDD (exact)", exact);
    bench::row("Monte Carlo estimate", mc.estimate);
    std::printf("  %-46s [%.6g, %.6g]\n", "95%% confidence interval", mc.ci95_low, mc.ci95_high);
    bench::row("consistent", mc.consistent_with(exact) ? "yes" : "NO");

    bench::heading("Mapping: greedy in-branch sharing vs local search");
    auto expanded = [] {
        ArchitectureModel m = scenarios::chain_n_stages(4);
        for (int i = 1; i <= 4; ++i) {
            transform::expand(m, m.find_app_node(std::string("f").append(std::to_string(i))));
        }
        return m;
    };
    {
        ArchitectureModel m = expanded();
        const double p0 = analysis::analyze_failure_probability(m).failure_probability;
        const auto metric = cost::CostMetric::exponential_metric1();
        const double c0 = cost::total_cost(m, metric);
        explore::optimize_mapping(m);
        std::printf("  %-22s P %.4g -> %.4g, cost %.6g -> %.6g, %zu resources\n", "greedy",
                    p0, analysis::analyze_failure_probability(m).failure_probability, c0,
                    cost::total_cost(m, metric), m.resources().node_count());
    }
    {
        ArchitectureModel m = expanded();
        explore::MappingSearchOptions options;
        options.max_nodes_per_resource = 4;
        const auto r = explore::search_mapping(m, options);
        std::printf("  %-22s P %.4g -> %.4g, cost %.6g -> %.6g, %zu resources (%zu merges)\n",
                    "search (cap 4)", r.probability_before, r.probability_after, r.cost_before,
                    r.cost_after, m.resources().node_count(), r.merges);
    }
    bench::note("the search also consolidates the trunk (capacity permitting), which the");
    bench::note("greedy pass leaves untouched: lower probability AND lower cost.");
}

void BM_MonteCarlo100k(benchmark::State& state) {
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    analysis::SimulationOptions options;
    options.trials = 100000;
    options.rate_scale = 1e5;
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::simulate_failure_probability(m, options));
    }
    state.SetLabel("100k trials");
}
BENCHMARK(BM_MonteCarlo100k)->Unit(benchmark::kMillisecond);

void BM_MappingSearch(benchmark::State& state) {
    for (auto _ : state) {
        state.PauseTiming();
        ArchitectureModel m = scenarios::chain_n_stages(4);
        for (int i = 1; i <= 4; ++i) {
            transform::expand(m, m.find_app_node(std::string("f").append(std::to_string(i))));
        }
        state.ResumeTiming();
        benchmark::DoNotOptimize(explore::search_mapping(m));
    }
}
BENCHMARK(BM_MappingSearch)->Unit(benchmark::kMillisecond);

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
