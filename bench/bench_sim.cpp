// Monte Carlo engine report: the scalar oracle against the
// bit-parallel kernel and the cut-set importance sampler
// (analysis::SimEngine, docs/simulation.md).
//
// Workload: the EcoTwin lateral-control fault tree — the paper's
// production-sized case study — plus a synthetic AND/OR DAG sweep up
// to 10^5 nodes (scenarios::synthetic_fault_tree) to show the kernel's
// scaling is linear in tree size, not just fast on one shape.
//
// The report prints the acceptance numbers directly: trials/second for
// each estimator (the bit-parallel kernel must clear 20x the oracle),
// the rare-event estimate at unscaled automotive rates, where the
// importance sampler brackets the exact BDD value that plain sampling
// cannot even see (P ~ 1e-8: one failure expected per 10^8 trials),
// and bit-parallel trials/second per synthetic tree size.
#include "bench_util.h"

#include <chrono>

#include "analysis/probability.h"
#include "analysis/sim_engine.h"
#include "analysis/simulation.h"
#include "ftree/builder.h"
#include "scenarios/ecotwin.h"
#include "scenarios/synthetic.h"

using namespace asilkit;

namespace {

ftree::FaultTree ecotwin_tree() {
    return ftree::build_fault_tree(scenarios::ecotwin_lateral_control()).tree;
}

analysis::SimulationOptions base_options(std::uint64_t trials) {
    analysis::SimulationOptions options;
    options.trials = trials;
    options.seed = 7;
    return options;
}

double trials_per_second(const analysis::SimEngine& engine,
                         const analysis::SimulationOptions& options) {
    const auto start = std::chrono::steady_clock::now();
    (void)engine.run(options);
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    return static_cast<double>(options.trials) / seconds;
}

void print_report() {
    bench::heading("Monte Carlo estimation: oracle vs bit-parallel vs importance sampling");
    const ftree::FaultTree ft = ecotwin_tree();
    const analysis::SimEngine engine(ft);
    bench::row("EcoTwin tree (events + gates)",
               static_cast<double>(ft.basic_events().size() + ft.gates().size()));

    analysis::SimulationOptions naive = base_options(1u << 15);
    naive.engine = analysis::SimEngineKind::Naive;
    const double naive_rate = trials_per_second(engine, naive);
    const double vector_rate = trials_per_second(engine, base_options(1u << 21));
    bench::row("naive trials/sec", naive_rate);
    bench::row("bit-parallel trials/sec", vector_rate);
    bench::row("speedup (acceptance: >= 20x)", vector_rate / naive_rate);

    // Rare-event regime: unscaled automotive rates over one hour.
    const double exact = analysis::fault_tree_probability(ft);
    analysis::SimulationOptions is = base_options(1u << 20);
    is.importance_sampling = true;
    const analysis::SimulationResult r = engine.run(is);
    bench::row("exact P(failure), BDD", exact);
    bench::row("IS estimate", r.estimate);
    bench::row("IS 95% CI low", r.ci95_low);
    bench::row("IS 95% CI high", r.ci95_high);
    bench::row("IS effective sample size", r.ess);
    bench::note(r.consistent_with(exact) ? "IS interval brackets the exact value"
                                         : "WARNING: IS interval misses the exact value");

    // Tree-size scaling: a fixed trial budget over synthetic DAGs; linear
    // scaling shows as trials/sec falling ~10x per 10x nodes.
    bench::heading("Bit-parallel scaling with tree size (synthetic AND/OR DAGs)");
    for (const std::size_t nodes : {1000u, 10000u, 100000u}) {
        scenarios::SyntheticTreeOptions tree_options;
        tree_options.events = nodes - nodes / 3;
        tree_options.gates = nodes / 3 - 1;  // +1 top gate restores `nodes` total
        const ftree::FaultTree synthetic = scenarios::synthetic_fault_tree(tree_options);
        bench::row(std::to_string(nodes) + "-node tree trials/sec",
                   trials_per_second(analysis::SimEngine(synthetic), base_options(1u << 14)));
    }
}

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
