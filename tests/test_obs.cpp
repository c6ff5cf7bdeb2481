// Observability layer tests: metrics registry exactness, histogram
// bucket semantics, trace well-formedness (Chrome trace-event JSON with
// balanced B/E pairs), the one-branch disabled mode, and — the contract
// the whole layer hangs on — bitwise-identical DSE results with tracing
// on or off.
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "explore/mapping_search.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

namespace asilkit::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
    Counter& c = Registry::global().counter("test.counter.basic");
    const std::uint64_t base = c.value();
    c.inc();
    c.add(41);
    EXPECT_EQ(c.value() - base, 42u);
}

TEST(Counter, SameIdReturnsSameCell) {
    Counter& a = Registry::global().counter("test.counter.same_id");
    Counter& b = Registry::global().counter("test.counter.same_id");
    EXPECT_EQ(&a, &b);
    a.inc();
    EXPECT_EQ(b.value(), a.value());
}

TEST(Counter, ConcurrentIncrementsSumExactly) {
    Counter& c = Registry::global().counter("test.counter.concurrent");
    const std::uint64_t base = c.value();
    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kPerThread = 100'000;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&c] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
        });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(c.value() - base, kThreads * kPerThread);
}

TEST(Gauge, SetAndSetMax) {
    Gauge& g = Registry::global().gauge("test.gauge.basic");
    g.set(3.5);
    EXPECT_DOUBLE_EQ(g.value(), 3.5);
    g.set_max(2.0);  // lower: ignored
    EXPECT_DOUBLE_EQ(g.value(), 3.5);
    g.set_max(7.25);  // higher: taken
    EXPECT_DOUBLE_EQ(g.value(), 7.25);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
    const std::vector<double> bounds{10.0, 100.0, 1000.0};
    Histogram& h = Registry::global().histogram("test.hist.bounds", bounds);
    h.observe(0.0);     // <= 10        -> bucket 0
    h.observe(10.0);    // == bound     -> bucket 0 (inclusive)
    h.observe(10.5);    // (10, 100]    -> bucket 1
    h.observe(100.0);   // == bound     -> bucket 1
    h.observe(999.0);   // (100, 1000]  -> bucket 2
    h.observe(1000.5);  // > last bound -> overflow bucket
    EXPECT_EQ(h.bucket_count(0), 2u);
    EXPECT_EQ(h.bucket_count(1), 2u);
    EXPECT_EQ(h.bucket_count(2), 1u);
    EXPECT_EQ(h.bucket_count(3), 1u);  // overflow
    EXPECT_EQ(h.count(), 6u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0 + 10.0 + 10.5 + 100.0 + 999.0 + 1000.5);
}

TEST(HistogramTest, FirstRegistrationFixesBounds) {
    const std::vector<double> bounds{1.0, 2.0};
    Histogram& a = Registry::global().histogram("test.hist.fixed", bounds);
    const std::vector<double> other{50.0};
    Histogram& b = Registry::global().histogram("test.hist.fixed", other);
    EXPECT_EQ(&a, &b);
    ASSERT_EQ(b.bounds().size(), 2u);
    EXPECT_DOUBLE_EQ(b.bounds()[0], 1.0);
}

TEST(HistogramTest, DefaultLatencyBoundsAscend) {
    const std::span<const double> bounds = latency_bounds_ns();
    ASSERT_FALSE(bounds.empty());
    EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
    EXPECT_DOUBLE_EQ(bounds.front(), 1000.0);  // 1 µs
}

TEST(Snapshot, RoundTripsRegisteredMetrics) {
    Registry::global().counter("test.snap.counter").add(5);
    Registry::global().gauge("test.snap.gauge").set(2.5);
    const MetricsSnapshot snap = Registry::global().snapshot();
    EXPECT_GE(snap.counter_or("test.snap.counter"), 5u);
    EXPECT_DOUBLE_EQ(snap.gauge_or("test.snap.gauge"), 2.5);
    EXPECT_EQ(snap.counter_or("test.snap.missing", 77), 77u);

    const std::string json = snap.to_json();
    EXPECT_NE(json.find("\"test.snap.counter\""), std::string::npos);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    const std::string text = snap.to_text();
    EXPECT_NE(text.find("test.snap.gauge"), std::string::npos);
}

TEST(Tracing, DisabledModeEmitsNothing) {
    ASSERT_FALSE(tracing_enabled());
    const std::uint64_t before = trace_event_count();
    {
        const ObsSpan span("should_not_appear", "test");
        trace_instant("also_not", "test");
    }
    EXPECT_EQ(trace_event_count(), before);
}

TEST(Tracing, SpansProduceBalancedWellFormedJson) {
    start_tracing();
    {
        const ObsSpan outer("outer", "test");
        {
            const ObsSpan inner("inner", "test", "value", 3.0);
        }
        trace_instant("marker", "test");
    }
    stop_tracing();
    const std::string json = trace_to_json();

    // Well-formed enough to hand to Perfetto: the envelope keys exist
    // and every B has its E (same thread, LIFO order by construction).
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"I\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"value\":3}"), std::string::npos);

    std::size_t begins = 0;
    std::size_t ends = 0;
    for (std::size_t pos = 0; (pos = json.find("\"ph\":\"B\"", pos)) != std::string::npos;
         pos += 8) {
        ++begins;
    }
    for (std::size_t pos = 0; (pos = json.find("\"ph\":\"E\"", pos)) != std::string::npos;
         pos += 8) {
        ++ends;
    }
    EXPECT_EQ(begins, 2u);
    EXPECT_EQ(begins, ends);

    // Draining consumed the buffers: a second export is empty.
    EXPECT_EQ(trace_event_count(), 0u);
}

TEST(Tracing, SpanOpenAcrossStopStillBalances) {
    start_tracing();
    {
        const ObsSpan span("crosses_stop", "test");
        stop_tracing();
        // Destructor runs after stop: the E event must still be recorded
        // or the trace would be unbalanced.
    }
    const std::string json = trace_to_json();
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
}

TEST(Tracing, StartClearsPreviousEvents) {
    start_tracing();
    trace_instant("first_session", "test");
    stop_tracing();
    start_tracing();
    trace_instant("second_session", "test");
    stop_tracing();
    const std::string json = trace_to_json();
    EXPECT_EQ(json.find("first_session"), std::string::npos);
    EXPECT_NE(json.find("second_session"), std::string::npos);
}

TEST(Tracing, ConcurrentSpansKeepPerThreadBalance) {
    start_tracing();
    constexpr unsigned kThreads = 4;
    constexpr int kSpansPerThread = 200;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                const ObsSpan span("worker_span", "test", "i", static_cast<double>(i));
            }
        });
    }
    for (std::thread& w : workers) w.join();
    stop_tracing();
    EXPECT_EQ(trace_event_count(), 2u * kThreads * kSpansPerThread);
    const std::string json = trace_to_json();
    // Parse the tids back out: every tid must balance B against E.
    std::map<std::string, int> balance;
    for (std::size_t pos = 0; (pos = json.find("\"ph\":\"", pos)) != std::string::npos;) {
        const char ph = json[pos + 6];
        const std::size_t tid_pos = json.find("\"tid\":", pos);
        ASSERT_NE(tid_pos, std::string::npos);
        const std::size_t tid_end = json.find_first_of(",}", tid_pos);
        const std::string tid = json.substr(tid_pos, tid_end - tid_pos);
        balance[tid] += ph == 'B' ? 1 : -1;
        pos += 6;
    }
    EXPECT_EQ(balance.size(), kThreads);
    for (const auto& [tid, b] : balance) EXPECT_EQ(b, 0) << tid;
}

/// The acceptance contract: the same mapping search produces bitwise
/// identical results with tracing off and on.  The obs layer records,
/// it never participates.
TEST(Determinism, TraceOnOffAndThreadCountNeverChangeResults) {
    const auto run_search = [](bool tracing) {
        if (tracing) start_tracing();
        ArchitectureModel m = scenarios::chain_n_stages(2);
        for (const char* n : {"f1", "f2"}) transform::expand(m, m.find_app_node(n));
        const explore::MappingSearchResult r = explore::search_mapping(m);
        if (tracing) stop_tracing();
        return r;
    };

    const explore::MappingSearchResult baseline = run_search(false);
    for (const bool tracing : {false, true}) {
        const explore::MappingSearchResult r = run_search(tracing);
        // Bitwise comparison: EXPECT_EQ on doubles, not NEAR.
        EXPECT_EQ(r.probability_after, baseline.probability_after) << "tracing=" << tracing;
        EXPECT_EQ(r.cost_after, baseline.cost_after);
        EXPECT_EQ(r.merges, baseline.merges);
        EXPECT_EQ(r.iterations, baseline.iterations);
        EXPECT_EQ(r.evaluations, baseline.evaluations);
    }
    (void)trace_to_json();  // leave the buffers empty for other tests
}

/// The acceptance bar for the whole telemetry stack: tracing,
/// detail-mode histograms, a background reader snapshotting the
/// registry while the search runs, and a span profile built from the
/// trace afterwards change no analysis result bit.
TEST(Determinism, FullTelemetryStackNeverChangesResults) {
    const auto run_search = [](bool telemetry) {
        std::atomic<bool> stop{false};
        std::uint64_t snapshots = 0;
        std::thread reader;
        if (telemetry) {
            start_tracing();
            set_detail_enabled(true);
            reader = std::thread([&stop, &snapshots] {
                while (!stop.load(std::memory_order_acquire)) {
                    (void)Registry::global().snapshot();
                    ++snapshots;
                    std::this_thread::yield();
                }
            });
        }
        ArchitectureModel m = scenarios::chain_n_stages(2);
        for (const char* n : {"f1", "f2"}) transform::expand(m, m.find_app_node(n));
        const explore::MappingSearchResult r = explore::search_mapping(m);
        if (telemetry) {
            stop.store(true, std::memory_order_release);
            reader.join();
            (void)Registry::global().snapshot();
            ++snapshots;
            EXPECT_GE(snapshots, 1u);
            stop_tracing();
            set_detail_enabled(false);
            const SpanProfile profile = profile_current_trace();
            EXPECT_NE(profile.find("search_mapping"), nullptr);
            (void)trace_to_json();
        }
        return r;
    };

    const explore::MappingSearchResult baseline = run_search(false);
    const explore::MappingSearchResult r = run_search(true);
    // Bitwise comparison: EXPECT_EQ on doubles, not NEAR.
    EXPECT_EQ(r.probability_after, baseline.probability_after);
    EXPECT_EQ(r.cost_after, baseline.cost_after);
    EXPECT_EQ(r.merges, baseline.merges);
    EXPECT_EQ(r.iterations, baseline.iterations);
    EXPECT_EQ(r.evaluations, baseline.evaluations);
}

}  // namespace
}  // namespace asilkit::obs
