// Span-profile aggregation: stack replay from B/E events, self vs total
// time, call edges, folded stacks, unmatched handling, and the
// histogram-estimated percentiles.  Event streams are hand-built so
// every duration is exact.
#include "obs/profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace asilkit::obs {
namespace {

TraceEvent ev(char ph, const char* name, std::uint64_t ts_ns, std::uint32_t tid = 1,
              const char* cat = "test") {
    return TraceEvent{name, cat, ts_ns, tid, ph};
}

TEST(HistogramTest, DefaultLatencyBoundsAscend) {
    const std::span<const double> bounds = latency_bounds_ns();
    ASSERT_FALSE(bounds.empty());
    EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
    EXPECT_DOUBLE_EQ(bounds.front(), 1000.0);  // 1 µs
}

/// A span lasting exactly a bucket bound lands in that bucket.  With one
/// span on the bound and one a nanosecond above it, the median is the
/// bound itself; were the bounds exclusive, both spans would share the
/// next bucket and the median would read the longer span.
TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
    for (const double bound : {latency_bounds_ns()[0], latency_bounds_ns()[1]}) {
        const auto b = static_cast<std::uint64_t>(bound);
        const std::vector<TraceEvent> events{
            ev('B', "on_bound", 0),
            ev('E', "on_bound", b),
            ev('B', "on_bound", b),
            ev('E', "on_bound", 2 * b + 1),
        };
        const SpanProfile profile = build_profile(events);
        const SpanProfile::Node* node = profile.find("on_bound");
        ASSERT_NE(node, nullptr);
        EXPECT_EQ(node->count, 2u);
        EXPECT_DOUBLE_EQ(node->p50_ns, bound) << "bound " << bound;
    }
}

TEST(HistogramQuantile, InterpolatesWithinBuckets) {
    const std::vector<double> bounds{10.0, 20.0, 30.0};
    // 10 samples in (10,20], none elsewhere: the whole distribution
    // lives in bucket 1, so quantiles interpolate linearly across it.
    const std::vector<std::uint64_t> counts{0, 10, 0, 0};
    EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.5), 15.0);
    EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 1.0), 20.0);
}

TEST(HistogramQuantile, CumulativeAcrossBuckets) {
    const std::vector<double> bounds{10.0, 20.0};
    const std::vector<std::uint64_t> counts{5, 5, 0};
    // rank 7.5 of 10: 5 fill bucket 0, 2.5 into bucket 1's 5 -> 15.
    EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.75), 15.0);
    EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.25), 5.0);
}

TEST(HistogramQuantile, OverflowBucketClampsToTopBound) {
    const std::vector<double> bounds{10.0, 20.0};
    const std::vector<std::uint64_t> counts{0, 0, 4};  // all above the top bound
    EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.5), 20.0);
    EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.99), 20.0);
}

TEST(HistogramQuantile, EmptyAndClampedInputs) {
    const std::vector<double> bounds{10.0};
    const std::vector<std::uint64_t> empty{0, 0};
    EXPECT_DOUBLE_EQ(histogram_quantile(bounds, empty, 0.5), 0.0);
    const std::vector<std::uint64_t> some{4, 0};
    EXPECT_DOUBLE_EQ(histogram_quantile(bounds, some, -1.0),
                     histogram_quantile(bounds, some, 0.0));
    EXPECT_DOUBLE_EQ(histogram_quantile(bounds, some, 2.0),
                     histogram_quantile(bounds, some, 1.0));
}

TEST(Profile, SelfTimeExcludesChildren) {
    const std::vector<TraceEvent> events{
        ev('B', "outer", 0),
        ev('B', "inner", 100),
        ev('E', "inner", 400),
        ev('E', "outer", 1000),
    };
    const SpanProfile profile = build_profile(events);
    ASSERT_EQ(profile.nodes.size(), 2u);
    const SpanProfile::Node* outer = profile.find("outer");
    const SpanProfile::Node* inner = profile.find("inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->count, 1u);
    EXPECT_EQ(outer->total_ns, 1000u);
    EXPECT_EQ(outer->self_ns, 700u);  // 1000 minus the 300 in `inner`
    EXPECT_EQ(inner->total_ns, 300u);
    EXPECT_EQ(inner->self_ns, 300u);
    EXPECT_EQ(outer->min_ns, 1000u);
    EXPECT_EQ(outer->max_ns, 1000u);
    EXPECT_EQ(profile.unmatched, 0u);
}

TEST(Profile, QuantilesStayWithinObservedRange) {
    // One 293 us span: its histogram bucket interpolates to a median
    // well above the only duration ever seen.
    const std::vector<TraceEvent> events{ev('B', "solo", 0), ev('E', "solo", 293'000)};
    const SpanProfile profile = build_profile(events);
    const SpanProfile::Node* solo = profile.find("solo");
    ASSERT_NE(solo, nullptr);
    EXPECT_EQ(solo->min_ns, 293'000u);
    EXPECT_EQ(solo->max_ns, 293'000u);
    EXPECT_EQ(solo->p50_ns, 293'000.0);
    EXPECT_EQ(solo->p95_ns, 293'000.0);

    // Several spans in one bucket: every quantile stays in [min, max].
    std::vector<TraceEvent> spread;
    for (std::uint64_t i = 0; i < 4; ++i) {
        spread.push_back(ev('B', "spread", i * 1'000'000));
        spread.push_back(ev('E', "spread", i * 1'000'000 + 290'000 + i * 1'000));
    }
    const SpanProfile spread_profile = build_profile(spread);
    const SpanProfile::Node* s = spread_profile.find("spread");
    ASSERT_NE(s, nullptr);
    for (const double q : {s->p50_ns, s->p95_ns}) {
        EXPECT_GE(q, static_cast<double>(s->min_ns));
        EXPECT_LE(q, static_cast<double>(s->max_ns));
    }
}

TEST(Profile, EdgesAggregateParentChildCalls) {
    const std::vector<TraceEvent> events{
        ev('B', "outer", 0),    ev('B', "inner", 10),  ev('E', "inner", 20),
        ev('B', "inner", 30),   ev('E', "inner", 60),  ev('E', "outer", 100),
    };
    const SpanProfile profile = build_profile(events);
    ASSERT_EQ(profile.edges.size(), 1u);
    EXPECT_EQ(profile.edges[0].parent, "outer");
    EXPECT_EQ(profile.edges[0].child, "inner");
    EXPECT_EQ(profile.edges[0].count, 2u);
    EXPECT_EQ(profile.edges[0].total_ns, 40u);  // 10 + 30
    const SpanProfile::Node* inner = profile.find("inner");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->count, 2u);
    EXPECT_EQ(inner->min_ns, 10u);
    EXPECT_EQ(inner->max_ns, 30u);
}

TEST(Profile, FoldedStacksCarrySelfTime) {
    const std::vector<TraceEvent> events{
        ev('B', "a", 0), ev('B', "b", 100), ev('B', "c", 200), ev('E', "c", 300),
        ev('E', "b", 500), ev('E', "a", 1000),
    };
    const SpanProfile profile = build_profile(events);
    ASSERT_EQ(profile.stacks.size(), 3u);  // a, a;b, a;b;c — sorted by path
    EXPECT_EQ(profile.stacks[0].path, "a");
    EXPECT_EQ(profile.stacks[0].self_ns, 600u);
    EXPECT_EQ(profile.stacks[1].path, "a;b");
    EXPECT_EQ(profile.stacks[1].self_ns, 300u);
    EXPECT_EQ(profile.stacks[2].path, "a;b;c");
    EXPECT_EQ(profile.stacks[2].self_ns, 100u);

    const std::string collapsed = profile.to_collapsed();
    EXPECT_NE(collapsed.find("a 600\n"), std::string::npos);
    EXPECT_NE(collapsed.find("a;b 300\n"), std::string::npos);
    EXPECT_NE(collapsed.find("a;b;c 100\n"), std::string::npos);
    // Every folded line is "<path> <integer>".
    std::istringstream lines(collapsed);
    for (std::string line; std::getline(lines, line);) {
        const std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_EQ(line.find_first_not_of("0123456789", space + 1), std::string::npos)
            << line;
    }
}

TEST(Profile, ThreadsReplayIndependently) {
    // Interleaved timestamps across two tids: each tid keeps its own
    // stack, so "work" on tid 2 is NOT a child of "outer" on tid 1.
    const std::vector<TraceEvent> events{
        ev('B', "outer", 0, 1), ev('B', "work", 50, 2), ev('E', "work", 150, 2),
        ev('E', "outer", 200, 1),
    };
    const SpanProfile profile = build_profile(events);
    EXPECT_TRUE(profile.edges.empty());
    const SpanProfile::Node* outer = profile.find("outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->self_ns, 200u);  // nothing subtracted
    ASSERT_EQ(profile.stacks.size(), 2u);
    EXPECT_EQ(profile.stacks[0].path, "outer");
    EXPECT_EQ(profile.stacks[1].path, "work");
}

TEST(Profile, UnmatchedEventsAreCountedNotAttributed) {
    const std::vector<TraceEvent> events{
        ev('E', "orphan_end", 10),               // E with no open span
        ev('B', "still_open", 20),               // B with no E by snapshot time
        ev('B', "closed", 30), ev('E', "closed", 40),
    };
    const SpanProfile profile = build_profile(events);
    EXPECT_EQ(profile.unmatched, 2u);
    EXPECT_EQ(profile.find("orphan_end"), nullptr);
    EXPECT_EQ(profile.find("still_open"), nullptr);
    ASSERT_NE(profile.find("closed"), nullptr);
    EXPECT_EQ(profile.find("closed")->total_ns, 10u);
}

TEST(Profile, InstantEventsAreSkipped) {
    const std::vector<TraceEvent> events{
        ev('B', "outer", 0), ev('I', "marker", 50), ev('E', "outer", 100),
    };
    const SpanProfile profile = build_profile(events);
    EXPECT_EQ(profile.nodes.size(), 1u);
    EXPECT_EQ(profile.unmatched, 0u);
    EXPECT_EQ(profile.find("marker"), nullptr);
}

TEST(Profile, RenderingsAreWellFormed) {
    const std::vector<TraceEvent> events{
        ev('B', "outer", 0), ev('B', "inner", 100), ev('E', "inner", 400),
        ev('E', "outer", 1000),
    };
    const SpanProfile profile = build_profile(events);
    const std::string text = profile.to_text();
    EXPECT_NE(text.find("outer"), std::string::npos);
    EXPECT_NE(text.find("inner"), std::string::npos);
    const std::string json = profile.to_json();
    EXPECT_NE(json.find("\"spans\""), std::string::npos);
    EXPECT_NE(json.find("\"edges\""), std::string::npos);
    EXPECT_NE(json.find("\"stacks\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
}

TEST(Profile, CurrentTraceDoesNotConsumeBuffers) {
    start_tracing();
    {
        const ObsSpan outer("profile_outer", "test");
        const ObsSpan inner("profile_inner", "test");
    }
    stop_tracing();
    const SpanProfile profile = profile_current_trace();
    EXPECT_NE(profile.find("profile_outer"), nullptr);
    EXPECT_NE(profile.find("profile_inner"), nullptr);
    // The Perfetto export still sees everything afterwards.
    EXPECT_EQ(trace_event_count(), 4u);
    const std::string json = trace_to_json();  // drains
    EXPECT_NE(json.find("profile_outer"), std::string::npos);
}

}  // namespace
}  // namespace asilkit::obs
