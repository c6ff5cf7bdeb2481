// Fig. 1: the headline study — cost vs failure-probability curves for
// different ASIL-decomposition strategies (BB, AC, RND) combined with
// different cost metrics, on the lateral-control application.  The paper
// plots curve families BB-1/BB-2/AC-1/AC-2/RND-3; the trajectory of each
// runs 1 (ideal) -> 2 (max expansion) -> 3 (connected/reduced/remapped).
#include "bench_util.h"

#include <vector>

#include "explore/driver.h"
#include "explore/pareto.h"
#include "scenarios/ecotwin.h"

using namespace asilkit;

namespace {

void print_report() {
    bench::heading("Fig. 1: strategy x metric curve family on the lateral control app");
    const ArchitectureModel model = scenarios::ecotwin_lateral_control();
    const auto nodes = scenarios::ecotwin_decision_nodes();

    struct Config {
        DecompositionStrategy strategy;
        cost::CostMetric metric;
    };
    const Config configs[] = {
        {DecompositionStrategy::BB, cost::CostMetric::exponential_metric1()},
        {DecompositionStrategy::BB, cost::CostMetric::exponential_metric2()},
        {DecompositionStrategy::AC, cost::CostMetric::exponential_metric1()},
        {DecompositionStrategy::AC, cost::CostMetric::exponential_metric2()},
        {DecompositionStrategy::RND, cost::CostMetric::linear_metric3()},
    };

    std::printf("  %-26s %-12s %-13s %-12s %-13s %-12s %-13s\n", "curve", "cost(1)", "P(1)",
                "cost(2)", "P(2)", "cost(3)", "P(3)");
    std::vector<explore::TradeoffPoint> all;
    for (const Config& config : configs) {
        explore::ExplorationOptions options;
        options.strategy = config.strategy;
        options.metric = config.metric;
        options.probability.approximate = true;
        options.rng_seed = 2019;
        const auto result = explore::run_exploration(model, nodes, options);
        std::size_t b_index = 0;
        for (std::size_t i = 0; i < result.curve.points.size(); ++i) {
            if (result.curve.points[i].label.rfind("expand(", 0) == 0) b_index = i;
        }
        const auto& p1 = result.curve.points.front();
        const auto& p2 = result.curve.points[b_index];
        const auto& p3 = result.curve.points.back();
        std::printf("  %-26s %-12.6g %-13.4g %-12.6g %-13.4g %-12.6g %-13.4g\n",
                    result.curve.name.c_str(), p1.cost, p1.failure_probability, p2.cost,
                    p2.failure_probability, p3.cost, p3.failure_probability);
        for (const auto& p : result.curve.points) all.push_back(p);
    }

    bench::heading("Pareto front over all visited architectures");
    for (const auto& p : explore::pareto_front(all)) {
        std::printf("  cost=%-12.6g P(fail)=%-12.4g (%s)\n", p.cost, p.failure_probability,
                    p.label.c_str());
    }
    bench::note("shape checks (paper): expansion climbs up-right, connect/reduce walks");
    bench::note("down-left, the final point returns near the ideal system's corner;");
    bench::note("steeper metrics (x20) amplify the cost excursion, linear metrics");
    bench::note("flatten it; AC endpoints cost more than BB under exponential metrics.");
}

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
