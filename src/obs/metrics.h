// Process-global metrics registry: monotonic counters and gauges,
// registered by stable string id.
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
//     ("bdd.apply_hits") that downstream tooling (the `--metrics`
//     snapshots, docs/observability.md) treats as API.
//
// Nothing here reads a clock: where the time went is the span
// profiler's answer (obs/profile.h).  Snapshots are taken under the
// registry mutex but only read atomics, so they never block the hot
// path.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
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
    std::atomic<double> value_{0.0};
};

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

    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;

    /// Value of a counter by id, or `fallback` when absent.
    [[nodiscard]] std::uint64_t counter_or(std::string_view id,
                                           std::uint64_t fallback = 0) const noexcept;
    [[nodiscard]] double gauge_or(std::string_view id, double fallback = 0.0) const noexcept;

    /// {"counters":{id:n,...},"gauges":{id:x,...}}.
    [[nodiscard]] std::string to_json() const;
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

    [[nodiscard]] MetricsSnapshot snapshot() const;

private:
    Registry() = default;

    // The registration maps are guarded; the metric CELLS they own are
    // not — a registered Counter/Gauge is all-atomic inside and lives
    // for the process, so instrumentation sites update them lock-free
    // through the references counter()/gauge() hand out.
    mutable core::Mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
        GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_ GUARDED_BY(mutex_);
};

}  // namespace asilkit::obs
