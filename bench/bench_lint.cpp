// Linter benchmark: the cost of `asilkit lint` (every rule, default
// severities) on a mid-size model.
//
// Workload: chain_n_stages(3) with every stage expanded — the same
// symmetry-rich model bench_mapping_search times.
//
// Counters exported per timing (consumed by tools/bench_to_json):
//   findings          diagnostics produced by a full run_lint pass
#include "bench_util.h"

#include "lint/lint.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

using namespace asilkit;

namespace {

ArchitectureModel workload() {
    ArchitectureModel m = scenarios::chain_n_stages(3);
    for (const char* n : {"f1", "f2", "f3"}) transform::expand(m, m.find_app_node(n));
    return m;
}

void print_report() {
    bench::heading("Linter (chain x3, all stages expanded)");
    const ArchitectureModel clean = workload();
    bench::row("app nodes in workload", static_cast<double>(clean.app().node_count()));
    bench::row("full-lint diagnostics", static_cast<double>(lint::run_lint(clean).diagnostics.size()));
}

// Full linter pass — every rule, default severities: the cost of
// `asilkit lint` on a mid-size model.
void BM_Lint_FullRun(benchmark::State& state) {
    const ArchitectureModel m = workload();
    std::size_t findings = 0;
    for (auto _ : state) {
        const lint::LintReport report = lint::run_lint(m);
        findings = report.diagnostics.size();
        benchmark::DoNotOptimize(report);
    }
    state.counters["findings"] = static_cast<double>(findings);
}
BENCHMARK(BM_Lint_FullRun)->Unit(benchmark::kMicrosecond);

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
