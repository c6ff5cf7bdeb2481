// Figs. 10 and 11: the EcoTwin lateral-control application graph before
// (non-redundant, Fig. 10) and after (two redundant branches, Fig. 11)
// the transformation flow.
#include "bench_util.h"

#include "explore/driver.h"
#include "model/blocks.h"
#include "model/validation.h"
#include "scenarios/ecotwin.h"

using namespace asilkit;

namespace {

void describe(const ArchitectureModel& m, const char* which) {
    bench::heading(which);
    std::size_t by_kind[kNodeKindCount] = {};
    for (NodeId n : m.app().node_ids()) {
        ++by_kind[static_cast<std::size_t>(m.app().node(n).kind)];
    }
    for (NodeKind k : kAllNodeKinds) {
        bench::row(std::string(to_string(k)) + " nodes",
                   std::to_string(by_kind[static_cast<std::size_t>(k)]));
    }
    bench::row("channels", std::to_string(m.app().edge_count()));
    bench::row("resources", std::to_string(m.resources().node_count()));
    const auto blocks = find_redundant_blocks(m);
    bench::row("redundant blocks", std::to_string(blocks.size()));
    for (const auto& block : blocks) {
        bench::row("  block at " + m.app().node(block.merger).name,
                   std::to_string(block.branches.size()) + " branches, ASIL " +
                       std::string(to_string(block_asil(m, block))));
    }
    bench::row("validation errors", std::to_string(validate(m).error_count()));
}

void print_report() {
    const ArchitectureModel before = scenarios::ecotwin_lateral_control();
    describe(before, "Fig. 10: original non-redundant input application graph");
    std::string expanded_names;
    for (const std::string& n : scenarios::ecotwin_decision_nodes()) {
        if (!expanded_names.empty()) expanded_names += ", ";
        expanded_names += n;
    }
    bench::row("decision nodes to expand (blue)", expanded_names);

    explore::ExplorationOptions options;
    options.probability.approximate = true;
    const auto result =
        explore::run_exploration(before, scenarios::ecotwin_decision_nodes(), options);
    describe(result.final_model, "Fig. 11: redundant output application graph");
    bench::note("DOT renderings: use the fault_tree_export example or io::app_graph_to_dot.");
}

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
