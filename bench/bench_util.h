// Shared helpers for the benchmark harness: every bench binary prints the
// table/figure it regenerates (paper value next to measured value where
// the paper states one) before running its google-benchmark timings.
//
// Timing discipline: benchmarks that use time_batch() pay exactly one
// steady_clock read pair per repetition (register them with
// ->UseManualTime()); per-repetition latency detail flows into an obs
// histogram only when detail mode is on, so the measured loop stays
// clock-read-minimal by default.  Every bench binary also accepts
//   --trace out.json       Chrome/Perfetto trace of the whole run
//   --metrics out.json     metrics-registry snapshot (enables detail mode)
// stripped from argv before google-benchmark sees them.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace asilkit::bench {

inline void heading(const std::string& title) {
    std::printf("\n=== %s ===\n", title.c_str());
}

inline void row(const std::string& label, const std::string& value) {
    std::printf("  %-46s %s\n", label.c_str(), value.c_str());
}

inline void row(const std::string& label, double value) {
    std::printf("  %-46s %.6g\n", label.c_str(), value);
}

/// "label: paper=X measured=Y" comparison row.
inline void compare(const std::string& label, const std::string& paper, double measured) {
    std::printf("  %-34s paper=%-12s measured=%.6g\n", label.c_str(), paper.c_str(), measured);
}

inline void compare(const std::string& label, const std::string& paper,
                    const std::string& measured) {
    std::printf("  %-34s paper=%-12s measured=%s\n", label.c_str(), paper.c_str(),
                measured.c_str());
}

inline void note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

/// Runs `fn` once per benchmark repetition with exactly one
/// steady_clock read pair around it, reported through
/// state.SetIterationTime — register the benchmark with
/// ->UseManualTime().  This replaces google-benchmark's default
/// double sampling (CPU clock + wall clock per interval) with the
/// minimal timing the DSE benches need; per-repetition latency lands
/// in the obs histogram `hist_id` only in detail mode (--metrics), so
/// the default measured loop contains no extra instrumentation.
template <typename Fn>
void time_batch(benchmark::State& state, const char* hist_id, Fn&& fn) {
    obs::Histogram* hist =
        obs::detail_enabled()
            ? &obs::Registry::global().histogram(hist_id, obs::latency_bounds_ns())
            : nullptr;
    for (auto _ : state) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        const auto stop = std::chrono::steady_clock::now();
        const double ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count());
        state.SetIterationTime(ns * 1e-9);
        if (hist != nullptr) hist->observe(ns);
    }
}

/// Handles the shared --trace/--metrics options of every bench binary:
/// strips them from argv (google-benchmark rejects unknown flags),
/// starts tracing/detail mode, and writes the requested files in
/// finish().
class ObsArgs {
public:
    ObsArgs(int& argc, char** argv) {
        int w = 1;
        for (int r = 1; r < argc; ++r) {
            const std::string arg = argv[r];
            std::string* value = nullptr;
            if (arg == "--trace") value = &trace_path_;
            if (arg == "--metrics") value = &metrics_path_;
            if (value != nullptr && r + 1 < argc) {
                *value = argv[++r];
                continue;
            }
            argv[w++] = argv[r];
        }
        argc = w;
        if (!metrics_path_.empty()) obs::set_detail_enabled(true);
        if (!trace_path_.empty()) obs::start_tracing();
    }

    void finish() {
        if (!trace_path_.empty()) {
            obs::stop_tracing();
            const std::size_t events = obs::trace_event_count();  // drained by write_trace
            std::ofstream out(trace_path_);
            obs::write_trace(out);
            std::printf("wrote trace to %s (%zu events)\n", trace_path_.c_str(), events);
        }
        if (!metrics_path_.empty()) {
            std::ofstream out(metrics_path_);
            out << obs::Registry::global().snapshot().to_json() << "\n";
            std::printf("wrote metrics snapshot to %s\n", metrics_path_.c_str());
        }
    }

private:
    std::string trace_path_;
    std::string metrics_path_;
};

}  // namespace asilkit::bench

/// Prints the report, then runs any registered google-benchmark timings.
/// --trace/--metrics (see ObsArgs) cover the report AND the timings.
#define ASILKIT_BENCH_MAIN(print_report)                 \
    int main(int argc, char** argv) {                    \
        asilkit::bench::ObsArgs obs_args(argc, argv);    \
        print_report();                                  \
        benchmark::Initialize(&argc, argv);              \
        if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
        benchmark::RunSpecifiedBenchmarks();             \
        benchmark::Shutdown();                           \
        obs_args.finish();                               \
        return 0;                                        \
    }
