// Ablation: the BDD engine itself.
//
// The paper reports that fault-tree -> BDD conversion cost "grows
// exponentially with the number of redundant blocks" in its
// implementation; a memoised apply() (unique table + operation cache)
// bounds each conversion polynomially in the diagram size.  This report
// prints the diagram size under the paper's top-down/left-right variable
// ordering against the number of redundant blocks.
#include "bench_util.h"

#include <vector>

#include "bdd/from_fault_tree.h"
#include "ftree/builder.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

using namespace asilkit;

namespace {

ftree::FaultTree tree_with_blocks(std::size_t blocks) {
    ArchitectureModel m = scenarios::chain_n_stages(blocks);
    for (std::size_t i = 1; i <= blocks; ++i) {
        transform::expand(m, m.find_app_node(std::string("f").append(std::to_string(i))));
    }
    return ftree::build_fault_tree(m).tree;
}

void print_report() {
    bench::heading("BDD size vs number of redundant blocks (paper ordering)");
    std::printf("  %-8s %-12s %-12s %-14s\n", "blocks", "variables", "bdd nodes", "ft paths");
    const std::vector<std::size_t> blocks = {1, 2, 4, 8, 12};
    std::vector<std::size_t> nodes;
    for (std::size_t b : blocks) {
        const ftree::FaultTree ft = tree_with_blocks(b);
        const auto compiled = bdd::compile_fault_tree(ft);
        nodes.push_back(compiled.manager.node_count(compiled.root));
        std::printf("  %-8zu %-12zu %-12zu %-14llu\n", b, compiled.event_of_var.size(),
                    nodes.back(), static_cast<unsigned long long>(ft.stats().paths));
    }
    bench::row("bdd nodes added per block",
               static_cast<double>(nodes.back() - nodes.front()) /
                   static_cast<double>(blocks.back() - blocks.front()));
    bench::note("the memoised apply() keeps BDD growth linear in blocks even though");
    bench::note("the fault tree's path count doubles per block (the 2^n the paper");
    bench::note("works around with its approximation).");
}

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
