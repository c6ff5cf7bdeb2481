// Fig. 7: expanding a node with 1 input and 2 outputs LOWERS the system
// failure probability (paper: 7.07e-9 -> 6.39e-9): the reliable
// splitter/merger hardware costs less rate than the removed node.
#include "bench_util.h"

#include "analysis/probability.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

using namespace asilkit;

namespace {

void print_report() {
    bench::heading("Fig. 7: Expand() on a 1-input / 2-output node");
    ArchitectureModel m = scenarios::chain_1in_2out();
    const double before = analysis::analyze_failure_probability(m).failure_probability;
    bench::compare("P(fail) before expansion", "7.07e-9", before);
    const transform::ExpandResult r = transform::expand(m, m.find_app_node("n"));
    const double after = analysis::analyze_failure_probability(m).failure_probability;
    bench::compare("P(fail) after expansion", "6.39e-9", after);
    bench::row("delta (paper: -0.68e-9)", after - before);
    bench::row("management added",
               std::to_string(r.splitters.size()) + " splitter(s) + " +
                   std::to_string(r.mergers.size()) + " merger(s) @ 1e-10 each");
    bench::note("removed: the 1e-9 ASIL D node; added: 3 x 1e-10 management events");
    bench::note("and 2 x 1e-11 branch locations -> net improvement, as in the paper.");
}

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
