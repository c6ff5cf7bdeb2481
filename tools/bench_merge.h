// Merge logic behind tools/bench_to_json, factored out so the tests can
// drive it directly (tests/test_bench_merge.cpp) without spawning the
// tool.
//
// The tracked BENCH_*.json files accumulate over re-runs, so every
// merge here is REPLACE-by-key, newest input wins:
//   * benchmarks merge by "name" — a re-run of the same benchmark
//     replaces the stale entry in place (original position kept, so
//     diffs stay small); unseen names append in input order,
//   * metrics summaries merge key-wise — a newer snapshot replaces the
//     gauges it reports and leaves keys only the older run had,
//   * an existing output file acts as the base, letting partial re-runs
//     refresh a subset of a tracked file.
#pragma once

#include <string>

#include "io/json.h"

namespace asilkit::bench {

// google-benchmark reports real_time in the unit named by "time_unit".
inline double to_nanoseconds(double value, const std::string& unit) {
    if (unit == "ns") return value;
    if (unit == "us") return value * 1e3;
    if (unit == "ms") return value * 1e6;
    if (unit == "s") return value * 1e9;
    return value;
}

/// One raw google-benchmark document -> array of compact entries
/// ({"name", "ns_per_op", "cache_hit_rate", extras...}); repetition
/// aggregates ("_mean" etc.) are skipped so re-runs diff cleanly.
inline io::Json compact_benchmarks(const io::Json& raw) {
    io::Json benchmarks = io::Json::array();
    for (const io::Json& b : raw.at("benchmarks").as_array()) {
        if (b.contains("run_type") && b.at("run_type").as_string() != "iteration") {
            continue;
        }
        io::Json entry = io::Json::object();
        entry["name"] = b.at("name").as_string();
        entry["ns_per_op"] =
            to_nanoseconds(b.at("real_time").as_number(), b.at("time_unit").as_string());
        entry["cache_hit_rate"] =
            b.contains("cache_hit_rate") ? b.at("cache_hit_rate").as_number() : 0.0;
        if (b.contains("evals")) entry["evals"] = b.at("evals").as_number();
        if (b.contains("findings")) entry["findings"] = b.at("findings").as_number();  // bench_lint
        benchmarks.push_back(std::move(entry));
    }
    return benchmarks;
}

/// Merges `update` entries into the `base` benchmark array by "name":
/// an entry whose name already exists replaces that entry in place;
/// new names append in update order.
inline void merge_benchmarks(io::Json& base, const io::Json& update) {
    io::JsonArray& entries = base.as_array();
    for (const io::Json& fresh : update.as_array()) {
        const std::string& name = fresh.at("name").as_string();
        bool replaced = false;
        for (io::Json& existing : entries) {
            if (existing.at("name").as_string() == name) {
                existing = fresh;
                replaced = true;
                break;
            }
        }
        if (!replaced) entries.push_back(fresh);
    }
}

/// Selected gauges/counters of an obs metrics snapshot, folded into the
/// tracked bench file.  Missing ids simply drop the derived field.
inline io::Json metrics_summary(const io::Json& snapshot) {
    io::Json summary = io::Json::object();
    if (snapshot.contains("gauges")) {
        const io::Json& gauges = snapshot.at("gauges");
        if (gauges.contains("bdd.node_high_water")) {
            summary["bdd_node_high_water"] = gauges.at("bdd.node_high_water").as_number();
        }
    }
    if (snapshot.contains("counters")) {
        const io::Json& counters = snapshot.at("counters");
        if (counters.contains("bdd.apply_hits") && counters.contains("bdd.apply_lookups")) {
            const double lookups = counters.at("bdd.apply_lookups").as_number();
            if (lookups > 0) {
                summary["bdd_apply_hit_rate"] =
                    counters.at("bdd.apply_hits").as_number() / lookups;
            }
        }
        if (counters.contains("engine.tree_hits") && counters.contains("engine.analyze_calls")) {
            const double calls = counters.at("engine.analyze_calls").as_number();
            if (calls > 0) {
                summary["engine_cache_hit_rate"] =
                    counters.at("engine.tree_hits").as_number() / calls;
            }
        }
    }
    return summary;
}

/// Key-wise merge of two metrics summaries: `update` replaces the keys
/// it has values for; keys only `base` knows survive.
inline void merge_metrics(io::Json& base, const io::Json& update) {
    for (const auto& [key, value] : update.as_object()) {
        base[key] = value;
    }
}

}  // namespace asilkit::bench
