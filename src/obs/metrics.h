// Process-global metrics registry: monotonic counters, gauges and
// fixed-bucket histograms, registered by stable string id.
//
// The DSE pipeline (engine -> ftree -> bdd) runs thousands of candidate
// evaluations per sweep; this registry is what lets a run be
// *measured* instead of asserted.  Design constraints, in order:
//   * hot-path cost: a counter increment is one relaxed atomic add on a
//     64-byte-padded cell (no false sharing between adjacent metrics),
//     with the registry lookup hoisted out of the hot path via a
//     function-local static reference at each instrumentation site;
//   * exactness: counters are plain monotonic uint64 adds — N threads
//     incrementing concurrently sum exactly (tested);
//   * stable ids: every metric is registered by a dotted string id
//     ("bdd.apply_hits") that downstream tooling (the `asilkit stats`
//     CLI, the `--metrics` snapshots, docs/observability.md) treats as
//     API.
//
// Sampling that costs more than an atomic add (latency histograms, i.e.
// anything needing clock reads) is gated behind detail_enabled(): one
// relaxed load + branch when off, so instrumented binaries pay nothing
// measurable by default.  Snapshots are taken under the registry mutex
// but only read atomics, so they never block the hot path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/sync.h"

namespace asilkit::obs {

/// Monotonic counter.  Padded to a cache line so registering two hot
/// counters back-to-back never induces false sharing.
struct alignas(64) Counter {
    void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
    void inc() noexcept { add(1); }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

private:
    friend class Registry;
    std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge with a lock-free running-maximum variant.
struct alignas(64) Gauge {
    void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
    /// Raises the gauge to `v` if larger (CAS loop; used for high-water
    /// marks such as bdd.node_high_water).
    void set_max(double v) noexcept {
        double cur = value_.load(std::memory_order_relaxed);
        while (v > cur &&
               !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
        }
    }
    [[nodiscard]] double value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

private:
    friend class Registry;
    std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper
/// bounds; an observation lands in the first bucket with v <= bound,
/// values above the last bound land in the implicit overflow bucket.
/// Bucket counts are exact (relaxed atomic adds); `sum` accumulates via
/// a CAS loop and is exact up to floating-point addition order.
class Histogram {
public:
    void observe(double v) noexcept;

    [[nodiscard]] std::span<const double> bounds() const noexcept { return bounds_; }
    [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
        return counts_[i].load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

private:
    friend class Registry;
    explicit Histogram(std::vector<double> bounds);

    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds_.size() + 1 (overflow)
    alignas(64) std::atomic<std::uint64_t> count_{0};
    alignas(64) std::atomic<double> sum_{0.0};
};

/// Default latency bounds in nanoseconds: 1 µs doubling up to ~8.6 s
/// (24 buckets + overflow) — wide enough for a cached candidate replay
/// (µs) and a cold EcoTwin exploration phase (s) in one histogram.
[[nodiscard]] std::span<const double> latency_bounds_ns() noexcept;

/// Estimates the q-quantile (q in [0, 1]) of a fixed-bucket histogram
/// from its cumulative counts, Prometheus-style: the target rank is
/// located by walking the buckets and the value is interpolated
/// linearly inside the bucket that holds it (bucket 0 starts at 0).  A
/// rank landing in the overflow bucket returns the last bound — the
/// histogram cannot see past it.  Returns 0 when the histogram is
/// empty.  `counts` has bounds.size() + 1 entries (last = overflow).
/// Used by the span profiler's p50/p95 columns (obs/profile.h).
[[nodiscard]] double histogram_quantile(std::span<const double> bounds,
                                        std::span<const std::uint64_t> counts, double q) noexcept;

/// One value of every registered metric, in registration-id order
/// (std::map keeps snapshots deterministic and diffs clean).
struct MetricsSnapshot {
    struct CounterSample {
        std::string id;
        std::uint64_t value = 0;
    };
    struct GaugeSample {
        std::string id;
        double value = 0.0;
    };
    struct HistogramSample {
        std::string id;
        std::vector<double> bounds;
        std::vector<std::uint64_t> counts;  // bounds.size() + 1, last = overflow
        std::uint64_t count = 0;
        double sum = 0.0;
    };

    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;

    /// Value of a counter by id, or `fallback` when absent.
    [[nodiscard]] std::uint64_t counter_or(std::string_view id,
                                           std::uint64_t fallback = 0) const noexcept;
    [[nodiscard]] double gauge_or(std::string_view id, double fallback = 0.0) const noexcept;

    /// {"counters":{id:n,...},"gauges":{...},"histograms":{id:{...}}}.
    [[nodiscard]] std::string to_json() const;
    /// Aligned human-readable rendering (the `asilkit stats` output).
    [[nodiscard]] std::string to_text() const;
};

class Registry {
public:
    /// The process-global registry.  Intentionally leaked so that
    /// thread-local trace buffers and static instrumentation sites may
    /// touch it during shutdown in any destruction order.
    [[nodiscard]] static Registry& global();

    /// Registers (or finds) a metric by stable id.  The returned
    /// reference is valid for the process lifetime; instrumentation
    /// sites cache it in a function-local static so the hot path is a
    /// single atomic operation.
    [[nodiscard]] Counter& counter(std::string_view id);
    [[nodiscard]] Gauge& gauge(std::string_view id);
    /// First registration fixes the bucket bounds; later calls with the
    /// same id return the existing histogram regardless of `bounds`.
    [[nodiscard]] Histogram& histogram(std::string_view id, std::span<const double> bounds);

    [[nodiscard]] MetricsSnapshot snapshot() const;

    /// Zeroes every registered metric (registrations survive).  Test
    /// hook; production snapshots are monotonic and diffed instead.
    void reset();

private:
    Registry() = default;

    // The registration maps are guarded; the metric CELLS they own are
    // not — a registered Counter/Gauge/Histogram is all-atomic inside
    // and lives for the process, so instrumentation sites update them
    // lock-free through the references counter()/gauge()/histogram()
    // hand out.
    mutable core::Mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
        GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_ GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
        GUARDED_BY(mutex_);
};

namespace detail {
extern std::atomic<bool> g_detail;
}  // namespace detail

/// Gate for sampling that needs clock reads (latency histograms and the
/// like): one relaxed load + branch when off.  Enabled by the CLI for
/// --trace/--metrics runs and by `asilkit stats`.
[[nodiscard]] inline bool detail_enabled() noexcept {
    return detail::g_detail.load(std::memory_order_relaxed);
}
void set_detail_enabled(bool on) noexcept;

/// RAII latency sample: observes the elapsed nanoseconds into `h` at
/// scope exit.  Reads no clock at all when detail sampling is off at
/// construction.
class ScopedTimer {
public:
    explicit ScopedTimer(Histogram& h) noexcept
        : hist_(detail_enabled() ? &h : nullptr),
          start_(hist_ != nullptr ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{}) {}
    ~ScopedTimer() {
        if (hist_ == nullptr) return;
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
        hist_->observe(static_cast<double>(ns));
    }
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

private:
    Histogram* hist_;
    std::chrono::steady_clock::time_point start_;
};

}  // namespace asilkit::obs
