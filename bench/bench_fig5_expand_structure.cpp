// Fig. 5: the structure produced by Expand() on a functional node.
//
// Verifies the "7 extra nodes" count for a 1-input/1-output node and
// shows the communication-node variant.
#include "bench_util.h"

#include "model/blocks.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

using namespace asilkit;

namespace {

void print_report() {
    bench::heading("Fig. 5: Expand(n) on a 1-in/1-out functional ASIL D node");
    ArchitectureModel m = scenarios::chain_1in_1out();
    const std::size_t nodes_before = m.app().node_count();
    const transform::ExpandResult r = transform::expand(m, m.find_app_node("n"));
    bench::compare("extra application nodes", "7",
                   std::to_string(m.app().node_count() - nodes_before));
    bench::row("pattern applied", to_string(r.pattern));
    bench::row("splitters / mergers",
               std::to_string(r.splitters.size()) + " / " + std::to_string(r.mergers.size()));
    const RedundantBlock block = find_block_at_merger(m, r.mergers[0]);
    bench::row("resulting block ASIL (Eq. 4)", std::string(to_string(block_asil(m, block))));
    for (NodeId replica : r.replicas) {
        bench::row("replica " + m.app().node(replica).name,
                   to_string(m.app().node(replica).asil));
    }

    bench::heading("Communication-node variant");
    ArchitectureModel mc = scenarios::chain_1in_1out();
    const std::size_t before_c = mc.app().node_count();
    transform::expand(mc, mc.find_app_node("c_out"));
    bench::row("extra application nodes (comm expand)",
               std::to_string(mc.app().node_count() - before_c));
    bench::note("comm expansion adds c_pre/c_post around the splitter/merger and one");
    bench::note("communication node per branch (paper Sec. VII-A).");
}

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
