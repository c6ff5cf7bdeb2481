// Fig. 6: the Connect() transformation on two consecutive redundant
// blocks (paper: failure probability 5.49e-9 before, 4.26e-9 after).
#include "bench_util.h"

#include "analysis/probability.h"
#include "model/blocks.h"
#include "scenarios/micro.h"
#include "transform/connect.h"
#include "transform/expand.h"

using namespace asilkit;

namespace {

ArchitectureModel two_blocks() {
    ArchitectureModel m = scenarios::chain_two_stages();
    transform::expand(m, m.find_app_node("n1"));
    transform::expand(m, m.find_app_node("n2"));
    return m;
}

void print_report() {
    bench::heading("Fig. 6: Connect(Block1, Block2)");
    ArchitectureModel m = two_blocks();
    const double before = analysis::analyze_failure_probability(m).failure_probability;
    bench::compare("P(fail) before connect", "5.49e-9", before);

    const NodeId merger = m.find_app_node("merge_n1");
    std::string why;
    bench::row("four conditions hold", transform::can_connect(m, merger, &why) ? "yes" : why);
    const transform::ConnectResult r = transform::connect(m, merger);
    const double after = analysis::analyze_failure_probability(m).failure_probability;
    bench::compare("P(fail) after connect", "4.26e-9", after);
    bench::row("delta", before - after);
    bench::row("removed nodes", "n_m + c + f_s (" + std::to_string(r.stitched.size()) +
                                    " branch pairs stitched)");
    bench::row("blocks remaining", std::to_string(find_redundant_blocks(m).size()));
    bench::note("paper delta: -1.23e-9; ours removes the same merger + ASIL D comm +");
    bench::note("splitter series elements, so the delta matches to within the model.");
}

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
