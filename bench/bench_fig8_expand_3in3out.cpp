// Fig. 8: expanding a node with 3 inputs and 3 outputs can RAISE the
// system failure probability (paper: 1.21e-8 -> 1.28e-8): six new
// management resources outweigh the one removed node.
//
// The sign of the delta depends on the failure-rate assignment (the
// paper's conclusion: "it is not always beneficial to introduce
// redundancy in the system, depending on the lambda values of the
// resources that are being used and the system configuration").  We show
// both regimes: under Table I's 10x-better management hardware the wide
// expansion is still (barely) beneficial; with management hardware only
// 2.5x better, it inverts — while the 1-in/1-out expansion stays
// beneficial in both.
#include "bench_util.h"

#include "analysis/probability.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

using namespace asilkit;

namespace {

double delta_for(ArchitectureModel m, const analysis::ProbabilityOptions& options) {
    const double before = analysis::analyze_failure_probability(m, options).failure_probability;
    transform::expand(m, m.find_app_node("n"));
    const double after = analysis::analyze_failure_probability(m, options).failure_probability;
    return after - before;
}

void print_report() {
    bench::heading("Fig. 8: Expand() on a 3-input / 3-output node");

    analysis::ProbabilityOptions table1;
    ArchitectureModel wide = scenarios::chain_3in_3out();
    const double before = analysis::analyze_failure_probability(wide, table1).failure_probability;
    bench::compare("P(fail) before expansion", "1.21e-8", before);
    {
        ArchitectureModel m = scenarios::chain_3in_3out();
        transform::expand(m, m.find_app_node("n"));
        const double after = analysis::analyze_failure_probability(m, table1).failure_probability;
        bench::compare("P(fail) after (Table I rates)", "1.28e-8", after);
        bench::row("delta (Table I: 10x-better mgmt hw)", after - before);
    }

    analysis::ProbabilityOptions modest;
    modest.rates.set_rate(ResourceKind::Splitter, Asil::D, 4e-10);
    modest.rates.set_rate(ResourceKind::Merger, Asil::D, 4e-10);
    bench::heading("Sensitivity to management-hardware reliability");
    std::printf("  %-34s %-16s %-16s\n", "configuration", "delta 1-in/1-out", "delta 3-in/3-out");
    std::printf("  %-34s %-16.4g %-16.4g\n", "Table I (mgmt 10x better)",
                delta_for(scenarios::chain_1in_1out(), table1),
                delta_for(scenarios::chain_3in_3out(), table1));
    std::printf("  %-34s %-16.4g %-16.4g\n", "mgmt only 2.5x better",
                delta_for(scenarios::chain_1in_1out(), modest),
                delta_for(scenarios::chain_3in_3out(), modest));
    bench::note("the wide node's 6 management resources flip its delta positive once");
    bench::note("management hardware is less privileged — the paper's Fig. 8 regime.");
}

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
