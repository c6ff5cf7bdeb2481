// Ablation: the BDD engine itself.
//
// The paper reports that fault-tree -> BDD conversion cost "grows
// exponentially with the number of redundant blocks" in its
// implementation; a memoised apply() (unique table + operation cache)
// bounds each conversion polynomially in the diagram size.  This bench
// measures compile and evaluation cost vs model size and the effect of
// the paper's top-down/left-right variable ordering against a worst-case
// reversed ordering.
#include "bench_util.h"

#include <algorithm>

#include "bdd/from_fault_tree.h"
#include "ftree/builder.h"
#include "scenarios/micro.h"
#include "scenarios/synthetic.h"
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
    std::printf("  %-8s %-12s %-12s %-14s %-14s\n", "blocks", "variables", "bdd nodes",
                "bdd(reversed)", "ft paths");
    for (std::size_t blocks : {1u, 2u, 4u, 8u, 12u}) {
        const ftree::FaultTree ft = tree_with_blocks(blocks);
        const auto compiled = bdd::compile_fault_tree(ft);
        auto order = bdd::ft_variable_order(ft);
        std::reverse(order.begin(), order.end());
        const auto reversed = bdd::compile_fault_tree(ft, order);
        std::printf("  %-8zu %-12zu %-12zu %-14zu %-14llu\n", blocks,
                    compiled.event_of_var.size(), compiled.manager.node_count(compiled.root),
                    reversed.manager.node_count(reversed.root),
                    static_cast<unsigned long long>(ft.stats().paths));
    }
    bench::note("the memoised apply() keeps BDD growth linear in blocks even though");
    bench::note("the fault tree's path count doubles per block (the 2^n the paper");
    bench::note("works around with its approximation).");
}

void BM_CompileFaultTree(benchmark::State& state) {
    const ftree::FaultTree ft = tree_with_blocks(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(bdd::compile_fault_tree(ft));
    }
    state.SetLabel(std::to_string(state.range(0)) + " blocks");
}
BENCHMARK(BM_CompileFaultTree)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

void BM_ProbabilityEvaluation(benchmark::State& state) {
    const ftree::FaultTree ft = tree_with_blocks(static_cast<std::size_t>(state.range(0)));
    const auto compiled = bdd::compile_fault_tree(ft);
    const auto probs = compiled.variable_probabilities(ft, 1.0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(compiled.manager.probability(compiled.root, probs));
    }
    state.SetLabel(std::to_string(state.range(0)) + " blocks");
}
BENCHMARK(BM_ProbabilityEvaluation)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

void BM_SyntheticCompile(benchmark::State& state) {
    scenarios::SyntheticOptions options;
    options.layers = static_cast<std::size_t>(state.range(0));
    options.width = 4;
    const ArchitectureModel m = scenarios::synthetic_model(options);
    const ftree::FaultTree ft = ftree::build_fault_tree(m).tree;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bdd::compile_fault_tree(ft));
    }
    state.SetLabel(std::to_string(state.range(0)) + " layers");
}
BENCHMARK(BM_SyntheticCompile)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
