// Section V: the path-collapsing fault-tree approximation.
//
// Reproduces the paper's three claims:
//  1. accuracy — on the Fig. 3 system the approximation changes the
//     failure probability only in the 6th significant digit
//     (paper: 2.04180e-7 exact vs 2.04179e-7 approximated);
//  2. size — the fault tree shrinks (paper: 87 -> 51 nodes) and the
//     path count halves per decomposed block (2^n overall);
//  3. scalability — the exact tree's path count doubles with every
//     redundant block while the approximated one grows linearly (the
//     paper could not evaluate its 695-node tree exactly).
#include "bench_util.h"

#include "analysis/probability.h"
#include "ftree/builder.h"
#include "scenarios/fig3.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

using namespace asilkit;

namespace {

ArchitectureModel expanded_chain(std::size_t blocks) {
    ArchitectureModel m = scenarios::chain_n_stages(blocks);
    for (std::size_t i = 1; i <= blocks; ++i) {
        transform::expand(m, m.find_app_node(std::string("f").append(std::to_string(i))));
    }
    return m;
}

void print_report() {
    bench::heading("Section V: approximation accuracy on the Fig. 3 system");
    const ArchitectureModel fig3 = scenarios::fig3_camera_gps_fusion();
    analysis::ProbabilityOptions exact_options;
    analysis::ProbabilityOptions approx_options;
    approx_options.approximate = true;
    const auto exact = analysis::analyze_failure_probability(fig3, exact_options);
    const auto approx = analysis::analyze_failure_probability(fig3, approx_options);
    bench::compare("P(fail) exact", "2.04180e-7", exact.failure_probability);
    bench::compare("P(fail) approximated", "2.04179e-7", approx.failure_probability);
    bench::row("relative error",
               (exact.failure_probability - approx.failure_probability) /
                   exact.failure_probability);
    bench::compare("fault-tree nodes exact", "87",
                   std::to_string(exact.ft_stats.expanded_nodes) + " (expanded) / " +
                       std::to_string(exact.ft_stats.dag_nodes) + " (DAG)");
    bench::compare("fault-tree nodes approximated", "51",
                   std::to_string(approx.ft_stats.expanded_nodes) + " (expanded) / " +
                       std::to_string(approx.ft_stats.dag_nodes) + " (DAG)");

    bench::heading("Path blow-up: 2^n growth vs approximation (n expanded blocks)");
    std::printf("  %-8s %-16s %-16s %-14s %-14s %-12s\n", "blocks", "paths(exact)",
                "paths(approx)", "P(exact)", "P(approx)", "rel.err");
    for (std::size_t blocks : {1u, 2u, 4u, 6u, 8u}) {
        const ArchitectureModel m = expanded_chain(blocks);
        const auto e = analysis::analyze_failure_probability(m, exact_options);
        const auto a = analysis::analyze_failure_probability(m, approx_options);
        std::printf("  %-8zu %-16llu %-16llu %-14.6g %-14.6g %-12.2e\n", blocks,
                    static_cast<unsigned long long>(e.ft_stats.paths),
                    static_cast<unsigned long long>(a.ft_stats.paths), e.failure_probability,
                    a.failure_probability,
                    (e.failure_probability - a.failure_probability) / e.failure_probability);
    }
    bench::note("the exact path count doubles per block; the approximation removes the");
    bench::note("branch events and collapses identical merger inputs, flattening growth.");
}

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
