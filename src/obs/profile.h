// Span-profile aggregation: folds the tracer's per-thread B/E event
// streams into a per-phase profile — call counts, total and self wall
// time, min/p50/p95/max per span name, and the parent→child call edges
// implied by B/E nesting.
//
// The tracer answers "what happened when" (one line per span, best read
// in Perfetto); the profile answers "where did the time go" across
// thousands of candidate evaluations, where individual spans are noise
// and the aggregate is the signal.  Three renderings:
//   * to_text()      — aligned table, hottest self-time first;
//   * to_json()      — machine-readable, for tooling;
//   * to_collapsed() — Brendan Gregg folded-stack lines
//                      ("a;b;c <self_ns>"), one `flamegraph.pl` away
//                      from a flamegraph.
//
// p50/p95 are estimated from fixed-bucket duration histograms
// (latency_bounds_ns + histogram_quantile) rather than stored samples,
// so profiling a million-span trace costs O(span names), not O(spans).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace asilkit::obs {

struct SpanProfile {
    /// Aggregate over every completed span with this name, all threads.
    /// Self time is the span's duration minus the time spent in child
    /// spans nested inside it; recursion (a span nested inside a
    /// same-named span) double-counts total_ns, as flat profiles do.
    struct Node {
        std::string name;
        std::string cat;
        std::uint64_t count = 0;
        std::uint64_t total_ns = 0;
        std::uint64_t self_ns = 0;
        std::uint64_t min_ns = 0;
        std::uint64_t max_ns = 0;
        double p50_ns = 0.0;  ///< histogram-estimated median duration
        double p95_ns = 0.0;
    };

    /// Parent→child call edge derived from B/E nesting.
    struct Edge {
        std::string parent;
        std::string child;
        std::uint64_t count = 0;
        std::uint64_t total_ns = 0;  ///< child time attributed to this edge
    };

    /// One folded call stack ("search_mapping;iteration;evaluate") and
    /// the self time accumulated there — the collapsed-stack rows.
    struct Stack {
        std::string path;
        std::uint64_t self_ns = 0;
    };

    std::vector<Node> nodes;    ///< sorted by name (deterministic)
    std::vector<Edge> edges;    ///< sorted by (parent, child)
    std::vector<Stack> stacks;  ///< sorted by path
    /// Spans still open (or with their B dropped at the buffer cap) at
    /// snapshot time; their partial time is not attributed anywhere.
    std::uint64_t unmatched = 0;

    [[nodiscard]] const Node* find(std::string_view name) const noexcept;

    [[nodiscard]] std::string to_text() const;
    [[nodiscard]] std::string to_json() const;
    [[nodiscard]] std::string to_collapsed() const;
};

/// Duration bucket bounds in nanoseconds: 1 µs doubling up to ~8.4 s
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
[[nodiscard]] double histogram_quantile(std::span<const double> bounds,
                                        std::span<const std::uint64_t> counts, double q) noexcept;

/// Replays `events` (as returned by snapshot_events(): timestamp-sorted,
/// per-thread record order preserved) through one stack per thread and
/// aggregates.  'I' instants are skipped; an 'E' whose name does not
/// match the open span (possible only when the per-thread buffer cap
/// dropped its 'B') is counted as unmatched and ignored.
[[nodiscard]] SpanProfile build_profile(std::span<const TraceEvent> events);

/// Convenience: profile whatever the tracer currently has buffered,
/// without consuming it.
[[nodiscard]] SpanProfile profile_current_trace();

}  // namespace asilkit::obs
