// bench_e2e: runs one named workload for a fixed wall time and prints
// every metric by name and unit, ending with one JSON result line.
//
//   bench_e2e --workload eco_sweep --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// alternates untraced and traced passes and reports the per-layer
// metrics: benchmark-side call times and library counters from the
// untraced passes, span self times (`trace.*`) from the traced ones.
// See bench_e2e/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/thread_pool.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace bench_e2e {

const std::array<MetricDef, kLayerCount> kLayerMetrics = {{
    {"explore.flow_ms", "ms"},
    {"explore.search_ms", "ms"},
    {"explore.candidates", "count"},
    {"explore.evaluations", "count"},
    {"explore.full_evals", "count"},
    {"explore.prune_ratio", "ratio"},
    {"explore.merge_yield", "ratio"},
    {"explore.iterations", "count"},
    {"trace.explore.evaluate_self_ms", "ms"},
    {"trace.explore.bound_check_self_ms", "ms"},
    {"trace.explore.select_self_ms", "ms"},
    {"trace.explore.generate_self_ms", "ms"},
    {"trace.explore.lint_prefilter_self_ms", "ms"},
    {"front_hv", "ratio"},
    {"engine.analyze_calls", "count"},
    {"engine.tree_hit_ratio", "ratio"},
    {"engine.module_hit_ratio", "ratio"},
    {"engine.dedup_hits", "count"},
    {"engine.subtree_memo_hit_ratio", "ratio"},
    {"engine.gc_collections", "count"},
    {"engine.batch_lanes", "count"},
    {"engine.threads", "count"},
    {"trace.engine.analyze_batch_self_ms", "ms"},
    {"engine.fragment_reuse_ratio", "ratio"},
    {"engine.ftree_memo_hits", "count"},
    {"trace.ftree.assemble_self_ms", "ms"},
    {"trace.ftree.find_modules_self_ms", "ms"},
    {"trace.ftree.build_fault_tree_self_ms", "ms"},
    {"ftree.dag_nodes", "count"},
    {"trace.bdd.evaluate_module_self_ms", "ms"},
    {"bdd.nodes", "count"},
    {"trace.transform.expand_self_ms", "ms"},
    {"trace.transform.connect_self_ms", "ms"},
    {"trace.transform.reduce_self_ms", "ms"},
    {"io.parse_ms", "ms"},
    {"io.parse_mb_per_s", "MB/s"},
    {"model.validate_ms", "ms"},
    {"lint.run_ms", "ms"},
    {"cost.total_ms", "ms"},
    {"analysis.probability_ms", "ms"},
    {"analysis.ccf_ms", "ms"},
    {"analysis.tolerance_ms", "ms"},
    {"analysis.cut_sets", "count"},
    {"analysis.sim_ms", "ms"},
    {"analysis.sim_trials_per_s", "1/s"},
    {"analysis.sim_ess", "count"},
    {"pass_ms_tail", "ms"},
    {"failed_ops_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
}};

void Checker::expect(bool ok, const std::string& what) {
    if (ok) return;
    if (++failures_ <= 10) std::cerr << "bench_e2e: check failed: " << what << "\n";
}

namespace {

using Clock = std::chrono::steady_clock;
using asilkit::obs::SpanProfile;
using asilkit::obs::TraceEvent;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// HostGauge time that defines the reference host speed: the gauge's
/// typical time on a 4-vCPU Xeon VM at 2.1 GHz.  Each set-up and pass
/// time is scaled by kGaugeRefMs / (the gauge time measured right after
/// it) before the end-to-end medians are taken.
constexpr double kGaugeRefMs = 20.0;
/// A tail percentile needs this many passes beyond it.
constexpr std::size_t kTailBeyond = 10;

struct Options {
    std::string workload;
    std::uint32_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string git_sha = "unavailable";
    std::string source_sha256 = "unavailable";
    std::string artifacts;
};

[[noreturn]] void usage(const std::string& error) {
    std::cerr << "bench_e2e: " << error
              << "\nusage: bench_e2e --workload <eco_sweep|synthetic_search|analyze_corpus>"
                 " --seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>]"
                 " [--source-sha256 <digest>] [--artifacts <dir>]\n";
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) usage("option " + key + " needs a value");
        const std::string value = argv[++i];
        try {
            if (key == "--workload") {
                o.workload = value;
            } else if (key == "--seed") {
                o.seed = static_cast<std::uint32_t>(std::stoul(value));
            } else if (key == "--seconds") {
                o.seconds = std::stod(value);
            } else if (key == "--trace") {
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
                o.trace = value == "1";
            } else if (key == "--git-sha") {
                o.git_sha = value;
            } else if (key == "--source-sha256") {
                o.source_sha256 = value;
            } else if (key == "--artifacts") {
                o.artifacts = value;
            } else {
                usage("unknown option " + key);
            }
        } catch (const std::logic_error&) {
            usage("bad value '" + value + "' for " + key);
        }
    }
    if (std::find(kWorkloads.begin(), kWorkloads.end(), o.workload) == kWorkloads.end()) {
        usage("unknown workload '" + o.workload + "'");
    }
    if (!(o.seconds > 0.0)) usage("--seconds must be positive");
    return o;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least kTailBeyond passes beyond it:
/// (value, percentile).  Falls back to the maximum for short runs.
std::pair<double, double> tail(std::vector<double> v) {
    if (v.empty()) return {0.0, 0.0};
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    const std::size_t k = n > kTailBeyond ? n - 1 - kTailBeyond : n - 1;
    return {v[k], 100.0 * static_cast<double>(k + 1) / static_cast<double>(n)};
}

/// Fixed benchmark-side work timed after every set-up and untraced
/// pass, to track the shared host's speed: a sort of a seeded array (branches), random
/// probes into a 256 KiB table (cache latency), a shift/mask/popcount
/// sweep in L1 (ALU) and copies of a 1 MiB array (memory bandwidth).
/// It allocates nothing and calls no asilkit code, so no library change
/// moves it; only the host does.
class HostGauge {
public:
    HostGauge() : source_(1u << 17), work_(1u << 17), table_(1u << 15) {
        std::uint64_t x = 0x9E3779B97F4A7C15ULL;
        for (double& v : source_) v = static_cast<double>((x = xorshift(x)) >> 11);
        for (std::uint64_t& t : table_) t = (x = xorshift(x));
    }

    /// Runs the fixed work once; returns its wall time in ms.
    double measure() {
        const Clock::time_point t0 = Clock::now();
        std::copy(source_.begin(), source_.end(), work_.begin());
        std::sort(work_.begin(), work_.end());
        std::uint64_t x = 88172645463325252ULL;
        std::uint64_t acc = static_cast<std::uint64_t>(work_[work_.size() / 2]);
        for (int i = 0; i < (1 << 18); ++i) {
            x = xorshift(x);
            acc += table_[(x ^ acc) & (table_.size() - 1)];
        }
        constexpr std::size_t kL1Words = 4096;
        for (int r = 0; r < 320; ++r) {
            for (std::size_t i = 0; i < kL1Words; ++i) {
                x = xorshift(x);
                const std::uint64_t m = (x & table_[i]) | ((x >> 3) & table_[(i + 1) % kL1Words]);
                table_[i] ^= m;
                acc += static_cast<std::uint64_t>(__builtin_popcountll(m));
            }
        }
        double sum = 0.0;
        for (int r = 0; r < 20; ++r) {
            std::copy(source_.begin(), source_.end(), work_.begin());
            for (std::size_t i = 0; i < work_.size(); i += 8) {
                sum += work_[(i * 2654435761u) & (work_.size() - 1)];
            }
        }
        sink_ += acc + static_cast<std::uint64_t>(sum);
        return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    }
    /// Keeps the work observable, so the compiler cannot drop it.
    [[nodiscard]] std::uint64_t sink() const { return sink_; }

private:
    static std::uint64_t xorshift(std::uint64_t x) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }

    std::vector<double> source_;
    std::vector<double> work_;
    std::vector<std::uint64_t> table_;
    std::uint64_t sink_ = 0;
};

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Span names qualified by category ("transform.expand" vs
/// "explore.expand"), since the profile keys nodes by name alone.
const char* qualified(const char* cat, const char* name) {
    static std::map<std::pair<const char*, const char*>, std::string> names;
    auto [it, inserted] = names.try_emplace({cat, name});
    if (inserted) it->second = std::string(cat) + "." + name;
    return it->second.c_str();
}

/// Self and total time per qualified span over every traced pass, and
/// folded stacks: the run's profile artifact.
struct ProfileTotals {
    struct Sums {
        std::uint64_t count = 0;
        std::uint64_t total_ns = 0;
        std::uint64_t self_ns = 0;
    };
    std::map<std::string, Sums> spans;
    std::map<std::string, std::uint64_t> stacks;
    std::uint64_t unmatched = 0;

    void add(const SpanProfile& p) {
        for (const SpanProfile::Node& n : p.nodes) {
            Sums& s = spans[n.name];
            s.count += n.count;
            s.total_ns += n.total_ns;
            s.self_ns += n.self_ns;
        }
        for (const SpanProfile::Stack& st : p.stacks) stacks[st.path] += st.self_ns;
        unmatched += p.unmatched;
    }
};

/// Profiles the spans of the traced pass just finished into the
/// `trace.<cat>.<name>_self_ms` slots of `rec`.
void fold_trace(PassRecord& rec, ProfileTotals& totals) {
    std::vector<TraceEvent> events = asilkit::obs::snapshot_events();
    for (TraceEvent& e : events) e.name = qualified(e.cat, e.name);
    const SpanProfile profile = asilkit::obs::build_profile(events);
    totals.add(profile);
    for (std::size_t i = 0; i < kLayerCount; ++i) {
        const std::string_view metric = kLayerMetrics[i].name;
        constexpr std::string_view prefix = "trace.";
        constexpr std::string_view suffix = "_self_ms";
        if (metric.substr(0, prefix.size()) != prefix || metric.size() < suffix.size() ||
            metric.substr(metric.size() - suffix.size()) != suffix) {
            continue;
        }
        const std::string span(
            metric.substr(prefix.size(), metric.size() - prefix.size() - suffix.size()));
        const SpanProfile::Node* node = profile.find(span);
        rec.layer[i] = node != nullptr ? static_cast<double>(node->self_ns) / 1e6 : 0.0;
    }
}

void write_profile(const Options& o, const ProfileTotals& totals, std::size_t traced_passes) {
    if (o.artifacts.empty()) return;
    const std::string stem = o.artifacts + "/" + o.workload + "-seed" + std::to_string(o.seed);
    std::ofstream json(stem + ".profile.json");
    json << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
         << ",\"traced_passes\":" << traced_passes << ",\"unmatched\":" << totals.unmatched
         << ",\"spans\":[";
    bool first = true;
    for (const auto& [name, s] : totals.spans) {
        json << (first ? "" : ",") << "\n{\"name\":\"" << name << "\",\"count\":" << s.count
             << ",\"total_ns\":" << s.total_ns << ",\"self_ns\":" << s.self_ns << "}";
        first = false;
    }
    json << "]}\n";
    std::ofstream folded(stem + ".folded");
    for (const auto& [path, self_ns] : totals.stacks) folded << path << " " << self_ns << "\n";
    if (!json || !folded) std::cerr << "bench_e2e: could not write profile under " << stem << "\n";
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/// Prints a readable table, then the one-line JSON result (always the
/// last line of stdout).
void print(const std::vector<Metric>& metrics, bool correct, std::uint64_t attempted,
           std::uint64_t failed) {
    for (const Metric& m : metrics) {
        std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

int run(const Options& o) {
    Checker checker;
    std::uint64_t attempted = 0;
    std::uint64_t threw = 0;
    const auto guarded = [&](auto&& fn) {
        try {
            fn();
            return true;
        } catch (const std::exception& e) {
            ++threw;
            std::cerr << "bench_e2e: call threw: " << e.what() << "\n";
            return false;
        }
    };

    // Set-up: inputs from the seed plus the warm-up passes, repeated.
    HostGauge gauge;
    std::vector<double> setup_s;
    std::vector<double> setup_norm_s;
    std::unique_ptr<Workload> w;
    for (int r = 0; r < kSetupRepeats; ++r) {
        PassRecord warm;
        w.reset();
        const Clock::time_point t0 = Clock::now();
        const bool ok = guarded([&] {
            w = make_workload(o.workload, o.seed);
            for (std::size_t k = 0; k < w->warm_up_passes(); ++k) w->pass(warm);
        });
        setup_s.push_back(seconds_since(t0));
        setup_norm_s.push_back(setup_s.back() * kGaugeRefMs / gauge.measure());
        attempted += warm.calls + 1;  // + the set-up itself
        if (!ok) break;
        w->check(checker);
    }

    // Measurement: passes until the wall-time budget is spent.
    std::vector<double> pass_ms;
    std::vector<double> traced_ms;
    std::vector<double> gauge_ms;
    std::vector<double> pass_norm_ms;
    std::vector<PassRecord> records;
    std::vector<PassRecord> traced_records;
    ProfileTotals profile;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; threw == 0 && seconds_since(start) < o.seconds; ++i) {
        const bool traced = o.trace && i % 2 == 1;
        PassRecord rec;
        if (traced) asilkit::obs::start_tracing();
        const Clock::time_point t0 = Clock::now();
        const bool ok = guarded([&] { w->pass(rec); });
        const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
        if (!traced) {
            gauge_ms.push_back(gauge.measure());
            pass_norm_ms.push_back(ms * kGaugeRefMs / gauge_ms.back());
        }
        if (traced) {
            asilkit::obs::stop_tracing();
            fold_trace(rec, profile);
        }
        attempted += rec.calls;
        if (!ok) break;
        w->check(checker);
        (traced ? traced_ms : pass_ms).push_back(ms);
        (traced ? traced_records : records).push_back(rec);
    }

    if (!o.artifacts.empty()) {
        // Untraced pass times and the gauge after each, in run order, to
        // see drift behind a tail.
        std::ofstream passes(o.artifacts + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                             "-trace" + (o.trace ? "1" : "0") + ".passes.txt");
        for (std::size_t i = 0; i < pass_ms.size(); ++i) {
            passes << pass_ms[i] << " " << gauge_ms[i] << "\n";
        }
    }
    const std::uint64_t failed = threw + checker.failures();
    const bool correct = failed == 0 && !pass_ms.empty();
    const auto [tail_ms, tail_pct] = tail(pass_ms);

    std::printf("context: {\"workload\": \"%s\", \"seed\": %u, \"seconds\": %g, \"trace\": %d, "
                "\"git_sha\": \"%s\", \"source_sha256\": \"%s\", \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"optimized\": %s, \"cpu_count\": %u, "
                "\"engine_threads\": %u, \"passes\": %zu, \"traced_passes\": %zu, "
                "\"host_gauge_ms_p50\": %.4f, \"gauge_sink\": %llu}\n",
                o.workload.c_str(), o.seed, o.seconds, o.trace ? 1 : 0, o.git_sha.c_str(),
                o.source_sha256.c_str(), BENCH_BUILD_TYPE, BENCH_COMPILER,
#if defined(__OPTIMIZE__) && defined(NDEBUG)
                "true",
#else
                "false",
#endif
                std::thread::hardware_concurrency(), asilkit::core::resolve_thread_count(0),
                pass_ms.size(), traced_ms.size(), median(gauge_ms),
                static_cast<unsigned long long>(gauge.sink()));
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
    std::printf("warning: this build is not optimised; its timings are not comparable\n");
#endif
    std::printf("wall time: setup %.6f s, pass p50 %.6f ms; pass_ms_tail %.6f ms is p%.2f over "
                "%zu untraced passes (%zu beyond it)\n",
                median(setup_s), median(pass_ms), tail_ms, tail_pct, pass_ms.size(),
                pass_ms.size() > kTailBeyond ? kTailBeyond : std::size_t{0});

    std::vector<Metric> result;
    if (!o.trace) {
        result.push_back({"setup_s", median(setup_norm_s), "s"});
        result.push_back({"pass_ms_p50_norm", median(pass_norm_ms), "ms"});
        result.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    } else {
        const auto column = [](const std::vector<PassRecord>& recs, std::size_t i) {
            std::vector<double> v;
            v.reserve(recs.size());
            for (const PassRecord& r : recs) v.push_back(r.layer[i]);
            return median(std::move(v));
        };
        for (std::size_t i = 0; i < kLayerCount; ++i) {
            const std::string name = kLayerMetrics[i].name;
            double value = 0.0;
            if (i == static_cast<std::size_t>(Layer::FailedOpsRatio)) {
                value = attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                                      : 0.0;
            } else if (i == static_cast<std::size_t>(Layer::PassMsTail)) {
                value = tail_ms;
            } else if (i == static_cast<std::size_t>(Layer::TraceOverheadRatio)) {
                const double untraced = median(pass_ms);
                value = untraced > 0.0 ? median(traced_ms) / untraced : 0.0;
            } else if (name.rfind("trace.", 0) == 0) {
                value = column(traced_records, i);
            } else {
                value = column(records, i);
            }
            result.push_back({name, value, kLayerMetrics[i].unit});
        }
        write_profile(o, profile, traced_ms.size());
    }
    print(result, correct, std::max<std::uint64_t>(attempted, 1), failed);
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace bench_e2e

int main(int argc, char** argv) {
    // One engine thread: on a few shared vCPUs the engine's worker fan-out
    // is no faster, and the host speed gauge tracks a single thread.
    setenv("ASILKIT_THREADS", "1", 1);
    return bench_e2e::run(bench_e2e::parse(argc, argv));
}
