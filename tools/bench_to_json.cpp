// Converts google-benchmark --benchmark_out JSON into the compact
// BENCH_dse.json the repository tracks for the DSE engine.  Accepts any
// number of raw inputs (last argument is the output), merging their
// benchmark lists so one tracked file can cover several bench binaries:
//
//   bench_mapping_search --benchmark_out=raw1.json --benchmark_out_format=json
//   bench_lint --benchmark_out=raw2.json --benchmark_out_format=json
//   bench_to_json raw1.json raw2.json BENCH_dse.json
//
// Output: {"benchmarks": [{"name", "ns_per_op", "cache_hit_rate",
// "evals"?, "threads"?}, ...], "context": {...}} — one entry per timing,
// aggregate rows ("_mean" etc.) skipped so re-runs diff cleanly.  The
// context is taken from the first input.
//
// Merge semantics (tools/bench_merge.h): everything is replace-by-key,
// newest wins.  If the output file already exists it seeds the merge,
// so a partial re-run refreshes just the benchmarks it actually ran;
// later inputs override earlier ones benchmark-by-benchmark.
//
// Optional telemetry side-channel:
//   --metrics snapshot.json   obs registry snapshot (repeatable; later
//                             snapshots replace same-keyed summary
//                             gauges) -> top-level "metrics" object
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_merge.h"
#include "io/json.h"

int main(int argc, char** argv) {
    std::vector<std::string> metrics_paths;
    std::vector<char*> files;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
            metrics_paths.push_back(argv[++i]);
        } else {
            files.push_back(argv[i]);
        }
    }
    if (files.size() < 2) {
        std::fprintf(stderr,
                     "usage: %s [--metrics snapshot.json]... "
                     "<google-benchmark.json> [more.json...] <out.json>\n",
                     argv[0]);
        return 2;
    }
    try {
        namespace io = asilkit::io;
        namespace bench = asilkit::bench;

        io::Json out = io::Json::object();
        // An existing output seeds the merge: partial re-runs refresh
        // only what they measured.
        if (std::ifstream probe(files.back()); probe.good()) {
            out = io::load_json_file(files.back());
        }
        if (!out.contains("benchmarks")) out["benchmarks"] = io::Json::array();
        if (!out.contains("context")) out["context"] = io::Json::object();

        for (std::size_t input = 0; input + 1 < files.size(); ++input) {
            const io::Json raw = io::load_json_file(files[input]);
            if (raw.contains("context")) {
                const io::Json& ctx = raw.at("context");
                for (const char* key : {"date", "host_name", "num_cpus", "mhz_per_cpu",
                                        "library_build_type"}) {
                    if (ctx.contains(key)) out["context"][key] = ctx.at(key);
                }
            }
            bench::merge_benchmarks(out["benchmarks"], bench::compact_benchmarks(raw));
        }

        for (const std::string& path : metrics_paths) {
            if (!out.contains("metrics")) out["metrics"] = io::Json::object();
            bench::merge_metrics(out["metrics"],
                                 bench::metrics_summary(io::load_json_file(path)));
        }

        io::save_json_file(out, files.back());
        std::printf("wrote %s (%zu benchmarks)\n", files.back(),
                    out.at("benchmarks").size());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_to_json: %s\n", e.what());
        return 1;
    }
}
