// Figs. 3 and 4: the camera+GPS data-fusion example and its automatically
// generated fault tree.
//
// Rebuilds the Fig. 3 model, generates the fault tree (the paper's Fig. 4
// shows the fragment for node com_a1) and prints its structure and the
// gate kinds.
#include "bench_util.h"

#include "analysis/probability.h"
#include "ftree/builder.h"
#include "scenarios/fig3.h"

using namespace asilkit;

namespace {

void print_report() {
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    bench::heading("Fig. 3: redundant camera + GPS data-fusion system");
    bench::row("application nodes", std::to_string(m.app().node_count()));
    bench::row("resources", std::to_string(m.resources().node_count()));
    bench::row("locations", std::to_string(m.physical().node_count()));

    const ftree::FtBuildResult ft = ftree::build_fault_tree(m);
    const ftree::FaultTreeStats stats = ft.tree.stats();
    bench::heading("Fig. 4: generated fault tree");
    bench::row("basic events", std::to_string(stats.basic_events));
    bench::row("gates", std::to_string(stats.gates));
    bench::row("nodes (DAG)", std::to_string(stats.dag_nodes));
    bench::row("nodes (expanded tree)", std::to_string(stats.expanded_nodes));
    bench::row("root-to-leaf paths", std::to_string(stats.paths));
    bench::row("depth", std::to_string(stats.depth));

    // The Fig. 4 pattern: com_a1's gate ORs its own base events with its
    // input's gate; the merger gate ANDs its redundant inputs.
    for (const ftree::Gate& g : ft.tree.gates()) {
        if (g.name == "fail:com_a1") {
            bench::row("fail:com_a1 gate", std::string(to_string(g.kind)) + " over " +
                                               std::to_string(g.children.size()) + " children");
        }
        if (g.name == "and:merge_dfus") {
            bench::row("merger input gate", std::string(to_string(g.kind)) + " over " +
                                                std::to_string(g.children.size()) + " branches");
        }
    }

    const double p = analysis::analyze_failure_probability(m).failure_probability;
    bench::compare("system failure probability (fph)", "2.04180e-7", p);
    bench::note("reconstructed model: two ASIL B sensors dominate, as in the paper");
}

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
