// Mapping-search DSE benchmark: a cold search on a fresh engine against
// the steady state of a long-lived one, plus the tree-hit rates the
// engine's evaluation memo earns on a symmetry-rich workload.
//
// Workload: chain_n_stages(3) with every stage expanded (three redundant
// blocks).  Steepest-descent mapping search scores every candidate merge
// per iteration; mirror merges in redundant branches collapse onto one
// canonical fault tree, so a cold search on a fresh engine already
// replays a sixth of its evaluations from the memo, and a long-lived
// engine (the iterative-DSE steady state, where consecutive searches
// revisit the same candidate trees) replays almost everything.
//
// Counters exported per timing (consumed by tools/bench_to_json):
//   cache_hit_rate   tree hits / evaluations during the timing
//   evals            engine evaluations per search
#include "bench_util.h"

#include "explore/mapping_search.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

using namespace asilkit;

namespace {

ArchitectureModel workload() {
    ArchitectureModel m = scenarios::chain_n_stages(3);
    for (const char* n : {"f1", "f2", "f3"}) transform::expand(m, m.find_app_node(n));
    return m;
}

explore::MappingSearchResult run_search() {
    ArchitectureModel m = workload();
    return explore::search_mapping(m);
}

void print_report() {
    bench::heading("Mapping-search DSE engine (chain x3, all stages expanded)");
    const auto serial = run_search();
    bench::row("evaluations per search", static_cast<double>(serial.evaluations));
    bench::row("merges applied", static_cast<double>(serial.merges));
    bench::row("P(fail) after search", serial.probability_after);
    std::printf("  %-46s %.1f%%  (%llu/%llu)\n", "cold-search tree hit rate",
                100.0 * serial.eval_cache_hit_rate(),
                static_cast<unsigned long long>(serial.eval_cache_hits),
                static_cast<unsigned long long>(serial.evaluations));

    // Iterative DSE steady state: one engine serving repeated searches of
    // a workload family, as run_exploration does across its phases.  All
    // counters come from the engine's single stats() snapshot.
    engine::EvalEngine shared;
    explore::MappingSearchOptions options;
    for (int round = 0; round < 4; ++round) {
        ArchitectureModel m = workload();
        (void)explore::search_mapping(m, options, shared);
    }
    const engine::EvalEngine::Stats s = shared.stats();
    std::printf("  %-46s %.1f%%  (%llu/%llu)\n", "steady-state tree hit rate (4 searches)",
                s.analyze_calls == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(s.tree_hits) / static_cast<double>(s.analyze_calls),
                static_cast<unsigned long long>(s.tree_hits),
                static_cast<unsigned long long>(s.analyze_calls));
    bench::note("determinism: identical curves and models on a fresh or warm engine");
    bench::note("(asserted by tests/test_engine.cpp).");
}

// Cold search: fresh engine per search — hits come only from
// within-search canonical-tree symmetry (mirror merges); every other
// candidate pays a full fault-tree build + BDD compile + Shannon
// evaluation.
void BM_MappingSearch_Serial(benchmark::State& state) {
    explore::MappingSearchResult last;
    bench::time_batch(state, "bench.search_serial_ns", [&] {
        last = run_search();
        benchmark::DoNotOptimize(last);
    });
    state.counters["cache_hit_rate"] = last.eval_cache_hit_rate();
    state.counters["evals"] = static_cast<double>(last.evaluations);
}
BENCHMARK(BM_MappingSearch_Serial)->Unit(benchmark::kMillisecond)->UseManualTime();

// Steady state: the engine outlives the searches, as in an iterative DSE
// loop re-exploring a workload family.  After the first search the memo
// replays every evaluation, so the aggregate hit rate approaches 100%.
void BM_MappingSearch_SteadyStateCache(benchmark::State& state) {
    engine::EvalEngine shared;
    explore::MappingSearchOptions options;
    std::uint64_t evals = 0;
    std::uint64_t hits = 0;
    bench::time_batch(state, "bench.search_steady_state_ns", [&] {
        ArchitectureModel m = workload();
        const auto r = explore::search_mapping(m, options, shared);
        evals += r.evaluations;
        hits += r.eval_cache_hits;
        benchmark::DoNotOptimize(r);
    });
    state.counters["cache_hit_rate"] =
        evals == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(evals);
    state.counters["evals"] = static_cast<double>(evals);
}
BENCHMARK(BM_MappingSearch_SteadyStateCache)->Unit(benchmark::kMillisecond)->UseManualTime();

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
