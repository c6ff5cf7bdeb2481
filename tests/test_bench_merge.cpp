// bench_to_json merge semantics (tools/bench_merge.h): replace-by-key
// with the newest input winning — the regression here is the old
// behaviour where re-running a bench binary appended duplicate
// benchmark entries and a newer --metrics snapshot could not refresh a
// same-keyed gauge.
#include <gtest/gtest.h>

#include <string>

#include "bench_merge.h"
#include "io/json.h"

namespace asilkit::bench {
namespace {

io::Json raw_run(const char* name, double real_time, const char* unit,
                 const char* run_type = "iteration") {
    io::Json b = io::Json::object();
    b["name"] = name;
    b["real_time"] = real_time;
    b["time_unit"] = unit;
    b["run_type"] = run_type;
    io::Json raw = io::Json::object();
    raw["benchmarks"] = io::Json::array();
    raw["benchmarks"].push_back(std::move(b));
    return raw;
}

TEST(CompactBenchmarks, ConvertsUnitsAndSkipsAggregates) {
    io::Json raw = io::Json::object();
    raw["benchmarks"] = io::Json::array();
    io::Json plain = io::Json::object();
    plain["name"] = "BM_Search";
    plain["real_time"] = 2.5;
    plain["time_unit"] = "ms";
    plain["run_type"] = "iteration";
    plain["evals"] = 61.0;
    raw["benchmarks"].push_back(std::move(plain));
    io::Json mean = io::Json::object();
    mean["name"] = "BM_Search_mean";
    mean["real_time"] = 2.5;
    mean["time_unit"] = "ms";
    mean["run_type"] = "aggregate";
    raw["benchmarks"].push_back(std::move(mean));

    const io::Json compact = compact_benchmarks(raw);
    ASSERT_EQ(compact.size(), 1u);
    EXPECT_EQ(compact.as_array()[0].at("name").as_string(), "BM_Search");
    EXPECT_EQ(compact.as_array()[0].at("ns_per_op").as_number(), 2.5e6);
    EXPECT_EQ(compact.as_array()[0].at("evals").as_number(), 61.0);
}

TEST(MergeBenchmarks, NewerRunReplacesSameNameInPlace) {
    io::Json base = io::Json::array();
    base.push_back(compact_benchmarks(raw_run("BM_A", 100, "ns")).as_array()[0]);
    base.push_back(compact_benchmarks(raw_run("BM_B", 200, "ns")).as_array()[0]);

    // Re-run of BM_A (new timing) plus a brand-new BM_C.
    io::Json update = io::Json::array();
    update.push_back(compact_benchmarks(raw_run("BM_A", 150, "ns")).as_array()[0]);
    update.push_back(compact_benchmarks(raw_run("BM_C", 300, "ns")).as_array()[0]);
    merge_benchmarks(base, update);

    ASSERT_EQ(base.size(), 3u);  // replaced, not duplicated
    EXPECT_EQ(base.as_array()[0].at("name").as_string(), "BM_A");
    EXPECT_EQ(base.as_array()[0].at("ns_per_op").as_number(), 150.0);  // newest wins
    EXPECT_EQ(base.as_array()[1].at("name").as_string(), "BM_B");  // position kept
    EXPECT_EQ(base.as_array()[2].at("name").as_string(), "BM_C");  // appended
}

TEST(MetricsSummary, DerivesRatesFromSnapshotIds) {
    const io::Json snapshot = io::Json::parse(R"({
        "counters": {"bdd.apply_hits": 80, "bdd.apply_lookups": 100,
                     "engine.tree_hits": 30, "engine.analyze_calls": 40},
        "gauges": {"bdd.node_high_water": 1234}
    })");
    const io::Json summary = metrics_summary(snapshot);
    EXPECT_EQ(summary.at("bdd_node_high_water").as_number(), 1234.0);
    EXPECT_EQ(summary.at("bdd_apply_hit_rate").as_number(), 0.8);
    EXPECT_EQ(summary.at("engine_cache_hit_rate").as_number(), 0.75);
}

TEST(MetricsSummary, MissingIdsDropDerivedFields) {
    const io::Json summary = metrics_summary(io::Json::parse(
        R"({"counters": {"bdd.apply_lookups": 0}, "gauges": {}})"));
    EXPECT_FALSE(summary.contains("bdd_node_high_water"));
    EXPECT_FALSE(summary.contains("bdd_apply_hit_rate"));  // zero lookups
}

/// The regression: two overlapping snapshots — the newer one must
/// replace the gauges it reports and keep the keys only the older run
/// measured.
TEST(MergeMetrics, NewerSnapshotReplacesSameKeyedGauges) {
    io::Json base = metrics_summary(io::Json::parse(R"({
        "counters": {"bdd.apply_hits": 80, "bdd.apply_lookups": 100},
        "gauges": {"bdd.node_high_water": 1000}
    })"));
    const io::Json update = metrics_summary(io::Json::parse(R"({
        "counters": {},
        "gauges": {"bdd.node_high_water": 2000}
    })"));
    merge_metrics(base, update);
    EXPECT_EQ(base.at("bdd_node_high_water").as_number(), 2000.0);  // replaced
    EXPECT_EQ(base.at("bdd_apply_hit_rate").as_number(), 0.8);      // preserved
}

}  // namespace
}  // namespace asilkit::bench
