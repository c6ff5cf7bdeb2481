// Evaluation-engine tests: the one evaluation path (the engine and
// analysis::analyze_failure_probability agree bitwise, pinned by golden
// bit patterns), the determinism contract (a warm engine never changes
// results), the composition memo, the per-engine and per-search counter
// ledgers, thread-pool coverage, and the structural hash the tree-key
// memo keys on.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cutsets.h"
#include "analysis/probability.h"
#include "core/thread_pool.h"
#include "explore/driver.h"
#include "explore/mapping_search.h"
#include "ftree/builder.h"
#include "ftree/fault_tree.h"
#include "io/model_json.h"
#include "obs/metrics.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/longitudinal.h"
#include "scenarios/micro.h"
#include "scenarios/synthetic.h"
#include "transform/expand.h"

namespace asilkit {
namespace {

// ---- thread pool -----------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
    core::ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4u);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> seen(kCount);
    pool.parallel_for(kCount, [&](std::size_t i) { seen[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(seen[i].load(), 1) << i;
}

TEST(ThreadPool, SingleThreadRunsInline) {
    core::ThreadPool pool(1);
    EXPECT_EQ(pool.thread_count(), 1u);
    std::vector<std::size_t> order;
    pool.parallel_for(5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ReusableAcrossBatches) {
    core::ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::atomic<std::size_t> sum{0};
        pool.parallel_for(17, [&](std::size_t i) { sum.fetch_add(i); });
        EXPECT_EQ(sum.load(), 17u * 16u / 2u);
    }
}

TEST(ThreadPool, PropagatesTaskExceptions) {
    core::ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(100,
                                   [&](std::size_t i) {
                                       if (i == 42) throw AnalysisError("boom");
                                   }),
                 AnalysisError);
    // The pool survives a throwing batch.
    std::atomic<std::size_t> count{0};
    pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 10u);
}

TEST(ThreadPool, SerialPathDrainsBatchBeforeRethrow) {
    // The inline single-thread path must match the parallel path: a
    // throwing task never skips the remaining indices.
    core::ThreadPool pool(1);
    std::vector<int> ran(5, 0);
    EXPECT_THROW(pool.parallel_for(5,
                                   [&](std::size_t i) {
                                       ran[i] = 1;
                                       if (i == 1) throw AnalysisError("early");
                                   }),
                 AnalysisError);
    EXPECT_EQ(ran, (std::vector<int>{1, 1, 1, 1, 1}));
}

TEST(ThreadPool, SerialPathRethrowsFirstOfSeveralExceptions) {
    core::ThreadPool pool(1);
    try {
        pool.parallel_for(5, [&](std::size_t i) {
            if (i == 1 || i == 3) throw AnalysisError("task " + std::to_string(i));
        });
        FAIL() << "expected AnalysisError";
    } catch (const AnalysisError& e) {
        EXPECT_STREQ(e.what(), "analysis error: task 1");  // serial runs in index order
    }
}

// ---- structural hash -------------------------------------------------------

TEST(StructuralHash, IsomorphicTreesWithDifferentNamesHashEqual) {
    ftree::FaultTree a;
    const auto a1 = a.add_basic_event("x", 1e-7);
    const auto a2 = a.add_basic_event("y", 2e-7);
    a.set_top(a.add_gate("top", ftree::GateKind::Or, {a1, a2}));

    ftree::FaultTree b;
    const auto b1 = b.add_basic_event("something_else", 1e-7);
    const auto b2 = b.add_basic_event("entirely", 2e-7);
    b.set_top(b.add_gate("other_top", ftree::GateKind::Or, {b1, b2}));

    EXPECT_EQ(a.structural_hash(), b.structural_hash());
}

TEST(StructuralHash, SharingPatternIsDistinguished) {
    // OR(a, a) vs OR(a, b) with identical rates: same shape, different
    // sharing, different probability — must hash differently.
    ftree::FaultTree shared;
    const auto s1 = shared.add_basic_event("a", 1e-7);
    shared.set_top(shared.add_gate("top", ftree::GateKind::Or, {s1, s1}));

    ftree::FaultTree distinct;
    const auto d1 = distinct.add_basic_event("a", 1e-7);
    const auto d2 = distinct.add_basic_event("b", 1e-7);
    distinct.set_top(distinct.add_gate("top", ftree::GateKind::Or, {d1, d2}));

    EXPECT_NE(shared.structural_hash(), distinct.structural_hash());
}

TEST(StructuralHash, SensitiveToGateKindAndRate) {
    auto build = [](ftree::GateKind kind, double lambda) {
        ftree::FaultTree t;
        const auto e1 = t.add_basic_event("a", lambda);
        const auto e2 = t.add_basic_event("b", 2e-7);
        t.set_top(t.add_gate("top", kind, {e1, e2}));
        return t;
    };
    const auto h_or = build(ftree::GateKind::Or, 1e-7).structural_hash();
    EXPECT_NE(h_or, build(ftree::GateKind::And, 1e-7).structural_hash());
    EXPECT_NE(h_or, build(ftree::GateKind::Or, 3e-7).structural_hash());
    EXPECT_EQ(h_or, build(ftree::GateKind::Or, 1e-7).structural_hash());
}

// ---- canonical form --------------------------------------------------------

TEST(CanonicalForm, MirroredBranchesCollapse) {
    // AND(modified-branch, pristine-branch) vs AND(pristine, modified):
    // the boolean functions are equal up to renaming disjoint events, so
    // after canonicalisation both must hash identically.
    auto branch = [](ftree::FaultTree& t, const std::string& prefix, double extra) {
        const auto e1 = t.add_basic_event(prefix + "_a", 1e-7);
        const auto e2 = t.add_basic_event(prefix + "_b", extra);
        return t.add_gate(prefix, ftree::GateKind::Or, {e1, e2});
    };
    ftree::FaultTree left;
    left.set_top(left.add_gate("top", ftree::GateKind::And,
                               {branch(left, "b1", 5e-7), branch(left, "b2", 2e-7)}));
    ftree::FaultTree right;
    right.set_top(right.add_gate("top", ftree::GateKind::And,
                                 {branch(right, "b1", 2e-7), branch(right, "b2", 5e-7)}));

    EXPECT_NE(left.structural_hash(), right.structural_hash());  // order-sensitive
    EXPECT_EQ(ftree::canonical_form(left).structural_hash(),
              ftree::canonical_form(right).structural_hash());
}

TEST(CanonicalForm, SharingStillDistinguished) {
    // Canonicalisation must not collapse OR(a, a) with OR(a, b): same
    // shape and rates, different probability.
    ftree::FaultTree shared;
    const auto s1 = shared.add_basic_event("a", 1e-7);
    shared.set_top(shared.add_gate("top", ftree::GateKind::Or, {s1, s1}));

    ftree::FaultTree distinct;
    const auto d1 = distinct.add_basic_event("a", 1e-7);
    const auto d2 = distinct.add_basic_event("b", 1e-7);
    distinct.set_top(distinct.add_gate("top", ftree::GateKind::Or, {d1, d2}));

    EXPECT_NE(ftree::canonical_form(shared).structural_hash(),
              ftree::canonical_form(distinct).structural_hash());
}

// ---- one evaluation path ---------------------------------------------------

/// The golden models: Fig. 3, EcoTwin lateral and longitudinal at point
/// A, and the three-stage chain.
std::vector<std::pair<std::string, ArchitectureModel>> golden_models() {
    return {{"fig3", scenarios::fig3_camera_gps_fusion()},
            {"ecotwin_lateral", scenarios::ecotwin_lateral_control()},
            {"ecotwin_longitudinal", scenarios::ecotwin_longitudinal_control()},
            {"chain3", scenarios::chain_n_stages(3)}};
}

/// Golden models plus 16 seeded synthetic models.
std::vector<std::pair<std::string, ArchitectureModel>> one_path_models() {
    std::vector<std::pair<std::string, ArchitectureModel>> models = golden_models();
    for (std::uint32_t seed = 1; seed <= 16; ++seed) {
        scenarios::SyntheticOptions options;
        options.seed = seed;
        models.emplace_back("synthetic" + std::to_string(seed),
                            scenarios::synthetic_model(options));
    }
    return models;
}

TEST(OnePath, GoldenBitPatterns) {
    // analyze_failure_probability's exact doubles at the default 1 h
    // mission: build_fault_tree -> canonical_form -> modular_probability.
    // A change here changes every number asilkit reports; it must be
    // deliberate.
    const std::uint64_t expected[] = {
        0x3e8bebdbd47a37c6ULL,  // fig3                  2.080300680506635e-07
        0x3e505fe350542b58ULL,  // ecotwin_lateral       1.5249999503685128e-08
        0x3e47ec47928a6938ULL,  // ecotwin_longitudinal  1.1139999659977806e-08
        0x3e435ecc1ab24c29ULL,  // chain3                9.0199997109373268e-09
    };
    const auto models = golden_models();
    for (std::size_t i = 0; i < models.size(); ++i) {
        const double p = analysis::analyze_failure_probability(models[i].second).failure_probability;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(p), expected[i])
            << models[i].first << ": P = " << p;
    }
}

TEST(OnePath, GoldenTreeKeys) {
    // The tree keys and sizes behind the golden bits, exact and under the
    // Section V approximation: the raw and canonical structural hashes
    // (the engine's memo keys), the raw tree's FaultTreeStats, and the
    // modular evaluation's BDD sizes and counts on the canonical tree.
    // bdd_total_nodes counts every node a module's manager allocated, so
    // it also pins which apply() results the compiles produce.
    struct Keys {
        std::uint64_t raw_hash;
        std::uint64_t canonical_hash;
        ftree::FaultTreeStats stats;
        std::size_t bdd_nodes;
        std::size_t bdd_total_nodes;
        std::size_t variables;
        std::size_t modules;
    };
    const Keys expected[2][4] = {
        {
            {0xd1ba86bdc48eaaa9ULL, 0xb6b5335d161eea61ULL, {21, 18, 39, 74, 50, 11}, 29, 89, 21, 3},
            {0x26f2a678ad4ebe34ULL, 0x9f5243cc7f68724cULL, {47, 43, 90, 143, 94, 21}, 134, 330, 47, 2},
            {0x04591183899e9837ULL, 0xb3f6301761f253bcULL, {27, 24, 51, 135, 88, 16}, 35, 103, 27, 1},
            {0x00bc55ced2c602e5ULL, 0xb563e937768de3ffULL, {11, 9, 20, 27, 18, 10}, 12, 30, 11, 2},
        },
        {
            {0x20c707a8f470d3fbULL, 0x33e4366f7cef767bULL, {13, 10, 23, 30, 20, 8}, 15, 40, 13, 3},
            {0x4760b3a843983171ULL, 0xd662abe75da6c401ULL, {26, 21, 47, 63, 42, 16}, 30, 88, 26, 5},
            {0x04591183899e9837ULL, 0xb3f6301761f253bcULL, {27, 24, 51, 135, 88, 16}, 35, 103, 27, 1},
            {0x00bc55ced2c602e5ULL, 0xb563e937768de3ffULL, {11, 9, 20, 27, 18, 10}, 12, 30, 11, 2},
        },
    };
    const auto models = golden_models();
    for (int approximate = 0; approximate < 2; ++approximate) {
        analysis::ProbabilityOptions options;
        options.approximate = approximate != 0;
        for (std::size_t i = 0; i < models.size(); ++i) {
            const std::string name =
                models[i].first + (options.approximate ? " --approximate" : "");
            const Keys& want = expected[approximate][i];
            const ftree::FaultTree raw =
                ftree::build_fault_tree(models[i].second, analysis::fault_tree_options(options))
                    .tree;
            const ftree::FaultTree canonical = ftree::canonical_form(raw);
            EXPECT_EQ(raw.structural_hash(), want.raw_hash) << name;
            EXPECT_EQ(canonical.structural_hash(), want.canonical_hash) << name;
            const ftree::FaultTreeStats stats = raw.stats();
            EXPECT_EQ(stats.basic_events, want.stats.basic_events) << name;
            EXPECT_EQ(stats.gates, want.stats.gates) << name;
            EXPECT_EQ(stats.dag_nodes, want.stats.dag_nodes) << name;
            EXPECT_EQ(stats.expanded_nodes, want.stats.expanded_nodes) << name;
            EXPECT_EQ(stats.paths, want.stats.paths) << name;
            EXPECT_EQ(stats.depth, want.stats.depth) << name;
            const analysis::TreeEvaluation eval =
                analysis::modular_probability(canonical, options.mission_hours);
            EXPECT_EQ(eval.bdd_nodes, want.bdd_nodes) << name;
            EXPECT_EQ(eval.bdd_total_nodes, want.bdd_total_nodes) << name;
            EXPECT_EQ(eval.variables, want.variables) << name;
            EXPECT_EQ(eval.modules, want.modules) << name;
        }
    }
}

TEST(OnePath, EngineMatchesAnalysisBitwise) {
    // One engine serves the whole list, largest tree first (EcoTwin
    // lateral) and then smallest first: every miss runs on the engine's
    // one workspace, so a warm workspace must give what a fresh one does.
    const auto models = one_path_models();
    std::vector<analysis::ProbabilityResult> reference;
    for (const auto& [name, m] : models) {
        reference.push_back(analysis::analyze_failure_probability(m));
    }
    std::vector<std::size_t> largest_first(models.size());
    std::iota(largest_first.begin(), largest_first.end(), 0);
    std::stable_sort(largest_first.begin(), largest_first.end(), [&](std::size_t a, std::size_t b) {
        return reference[a].bdd_total_nodes > reference[b].bdd_total_nodes;
    });
    ASSERT_EQ(models[largest_first.front()].first, "ecotwin_lateral");
    std::vector<std::size_t> smallest_first(largest_first.rbegin(), largest_first.rend());

    for (const std::vector<std::size_t>* order : {&largest_first, &smallest_first}) {
        engine::EvalEngine engine;
        for (const std::size_t i : *order) {
            const auto& [name, m] = models[i];
            const analysis::ProbabilityResult& want = reference[i];
            const analysis::ProbabilityResult fresh = engine.analyze(m, {});
            const analysis::ProbabilityResult cached = engine.analyze(m, {});
            EXPECT_EQ(fresh.failure_probability, want.failure_probability) << name;
            EXPECT_EQ(cached.failure_probability, want.failure_probability) << name;
            EXPECT_EQ(fresh.bdd_nodes, want.bdd_nodes) << name;
            EXPECT_EQ(fresh.bdd_total_nodes, want.bdd_total_nodes) << name;
            EXPECT_EQ(fresh.variables, want.variables) << name;
            EXPECT_EQ(fresh.modules, want.modules) << name;
            EXPECT_EQ(fresh.ft_stats.dag_nodes, want.ft_stats.dag_nodes) << name;
            EXPECT_EQ(fresh.warnings, want.warnings) << name;
        }
    }
}

TEST(OnePath, WholeTreeOracleAgrees) {
    // The whole-tree BDD in the paper's variable order is an independent
    // evaluator: a different diagram for the same exact quantity, so it
    // agrees to rounding, not to the bit.
    for (const auto& [name, m] : one_path_models()) {
        const double oracle =
            analysis::fault_tree_probability(ftree::build_fault_tree(m).tree);
        const double modular = analysis::analyze_failure_probability(m).failure_probability;
        EXPECT_NEAR(modular, oracle, 1e-12 * oracle) << name;
    }
}

TEST(EvalEngine, MatchesSerialAnalysis) {
    const ArchitectureModel m = scenarios::ecotwin_lateral_control();
    analysis::ProbabilityOptions options;
    const analysis::ProbabilityResult serial = analysis::analyze_failure_probability(m, options);

    engine::EvalEngine engine;
    const analysis::ProbabilityResult first = engine.analyze(m, options);
    const analysis::ProbabilityResult cached = engine.analyze(m, options);

    // One evaluation path: the engine and the serial pipeline run the
    // same modular evaluation on the same canonical tree, and a cached
    // replay returns the stored doubles — all bitwise.
    EXPECT_EQ(serial.failure_probability, first.failure_probability);
    EXPECT_EQ(first.failure_probability, cached.failure_probability);
    EXPECT_EQ(first.bdd_nodes, cached.bdd_nodes);
    EXPECT_EQ(serial.variables, cached.variables);  // regions partition the events
    EXPECT_EQ(serial.ft_stats.dag_nodes, cached.ft_stats.dag_nodes);
    EXPECT_GT(first.modules, 0u);
    EXPECT_EQ(first.modules, cached.modules);
    EXPECT_EQ(serial.modules, first.modules);

    const auto stats = engine.stats();
    EXPECT_EQ(stats.analyze_calls, 2u);
    EXPECT_EQ(stats.tree_hits, 1u);
    EXPECT_EQ(stats.tree_misses, 1u);
    EXPECT_EQ(stats.module_hits + stats.module_misses, 0u);  // no per-module keys
}

TEST(EvalEngine, MissionTimeIsPartOfTheKey) {
    const ArchitectureModel m = scenarios::chain_n_stages(3);
    engine::EvalEngine engine;
    analysis::ProbabilityOptions one_hour;
    analysis::ProbabilityOptions ten_hours;
    ten_hours.mission_hours = 10.0;
    const double p1 = engine.analyze(m, one_hour).failure_probability;
    const double p10 = engine.analyze(m, ten_hours).failure_probability;
    EXPECT_GT(p10, p1);  // a memo mixup would return p1 again
    EXPECT_EQ(engine.stats().tree_hits, 0u);
}

// ---- determinism: a warm engine never changes results ----------------------

void expect_identical_curves(const explore::TradeoffCurve& a, const explore::TradeoffCurve& b) {
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const explore::TradeoffPoint& pa = a.points[i];
        const explore::TradeoffPoint& pb = b.points[i];
        EXPECT_EQ(pa.label, pb.label);
        EXPECT_EQ(pa.cost, pb.cost);  // bitwise, not almost-equal
        EXPECT_EQ(pa.failure_probability, pb.failure_probability);
        EXPECT_EQ(pa.app_nodes, pb.app_nodes);
        EXPECT_EQ(pa.resources, pb.resources);
        EXPECT_EQ(pa.ft_dag_nodes, pb.ft_dag_nodes);
        EXPECT_EQ(pa.ft_paths, pb.ft_paths);
        EXPECT_EQ(pa.bdd_nodes, pb.bdd_nodes);
    }
}

class ExplorationDeterminism : public ::testing::TestWithParam<DecompositionStrategy> {};

TEST_P(ExplorationDeterminism, WarmEngineNeverChangesCurveOrModel) {
    // The same flow on a fresh engine and again on the engine the first
    // run warmed: every point of the second run comes from the memos,
    // and must carry the same bits.
    explore::ExplorationOptions options;
    options.strategy = GetParam();
    options.rng_seed = 1234;
    options.probability.approximate = true;

    const ArchitectureModel model = scenarios::ecotwin_lateral_control();
    const std::vector<std::string> nodes = scenarios::ecotwin_decision_nodes();
    engine::EvalEngine engine;
    const explore::ExplorationResult a = explore::run_exploration(model, nodes, options, engine);
    const std::uint64_t misses_after_first = engine.stats().tree_misses;
    const explore::ExplorationResult b = explore::run_exploration(model, nodes, options, engine);

    EXPECT_EQ(engine.stats().tree_misses, misses_after_first);  // the rerun is all hits
    expect_identical_curves(a.curve, b.curve);
    EXPECT_EQ(io::to_json(a.final_model).dump(), io::to_json(b.final_model).dump());
}

INSTANTIATE_TEST_SUITE_P(Strategies, ExplorationDeterminism,
                         ::testing::Values(DecompositionStrategy::BB, DecompositionStrategy::RND),
                         [](const auto& info) { return std::string(to_string(info.param)); });

TEST(MappingSearch, ReportsCacheCounters) {
    // Expanded nodes yield redundant branches with identical rate
    // structure: every candidate merge inside branch 1 has a mirror in
    // branch 2 whose canonical tree is the same, so within one cold
    // sweep steepest descent re-derives the mirrored candidates from
    // the memo.  (Trunk-trunk candidates have no symmetry partner and
    // always miss; the incumbent's objective is carried forward instead
    // of re-evaluated, and the bound-pruned best-first loop stops at
    // the first candidate that cannot win, so many mirror partners are
    // pruned before they could hit — the rate is far lower than it was
    // before bound pruning.  Steady-state reuse across searches is covered by
    // SharedEngine below.)
    ArchitectureModel m = scenarios::chain_n_stages(3);
    for (const char* n : {"f1", "f2", "f3"}) transform::expand(m, m.find_app_node(n));
    const auto r = explore::search_mapping(m);
    EXPECT_EQ(r.evaluations, r.eval_cache_hits + r.eval_cache_misses);
    EXPECT_GT(r.evaluations, 0u);
    EXPECT_GT(r.eval_cache_hit_rate(), 1.0 / 8.0);
}

TEST(SharedEngine, AccumulatesAcrossSearches) {
    engine::EvalEngine engine;
    explore::MappingSearchOptions options;
    ArchitectureModel first = scenarios::chain_n_stages(5);
    const auto r1 = explore::search_mapping(first, options, engine);
    ArchitectureModel second = scenarios::chain_n_stages(5);
    const auto r2 = explore::search_mapping(second, options, engine);
    // The second identical search replays entirely from the memo.
    EXPECT_GT(r2.eval_cache_hit_rate(), r1.eval_cache_hit_rate());
    EXPECT_EQ(r2.eval_cache_misses, 0u);
    EXPECT_EQ(r1.probability_after, r2.probability_after);
}

TEST(IncrementalFtree, AnalyzeMatchesFullRebuildAndMemoisesRepeats) {
    // The engine fingerprints the composition in front of
    // build_fault_tree; the reference (analyze_failure_probability)
    // builds every tree directly.  Both must report the same tree and
    // the same bits.
    const ArchitectureModel m = scenarios::ecotwin_lateral_control();
    for (const bool approximate : {false, true}) {
        analysis::ProbabilityOptions options;
        options.approximate = approximate;
        const analysis::ProbabilityResult reference =
            analysis::analyze_failure_probability(m, options);

        engine::EvalEngine engine;
        const analysis::ProbabilityResult first = engine.analyze(m, options);
        EXPECT_EQ(first.failure_probability, reference.failure_probability);  // bitwise
        EXPECT_EQ(first.ft_stats.gates, reference.ft_stats.gates);
        EXPECT_EQ(first.ft_stats.basic_events, reference.ft_stats.basic_events);
        EXPECT_EQ(first.warnings, reference.warnings);
        EXPECT_EQ(first.approximated_blocks, reference.approximated_blocks);
        EXPECT_EQ(engine.stats().ftree_memo_hits, 0u);

        // A repeat candidate on the warm engine is served whole from
        // the composition memo, zero gates built.
        const analysis::ProbabilityResult again = engine.analyze(m, options);
        EXPECT_EQ(again.failure_probability, reference.failure_probability);
        EXPECT_EQ(again.ft_stats.gates, reference.ft_stats.gates);
        EXPECT_EQ(engine.stats().ftree_memo_hits, 1u);
    }
}

// ---- composition memo ------------------------------------------------------

/// Every field of a ProbabilityResult, the probability to the bit.
void expect_same_result(const analysis::ProbabilityResult& got,
                        const analysis::ProbabilityResult& want) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.failure_probability),
              std::bit_cast<std::uint64_t>(want.failure_probability));
    EXPECT_EQ(got.ft_stats.basic_events, want.ft_stats.basic_events);
    EXPECT_EQ(got.ft_stats.gates, want.ft_stats.gates);
    EXPECT_EQ(got.ft_stats.dag_nodes, want.ft_stats.dag_nodes);
    EXPECT_EQ(got.ft_stats.expanded_nodes, want.ft_stats.expanded_nodes);
    EXPECT_EQ(got.ft_stats.paths, want.ft_stats.paths);
    EXPECT_EQ(got.ft_stats.depth, want.ft_stats.depth);
    EXPECT_EQ(got.bdd_nodes, want.bdd_nodes);
    EXPECT_EQ(got.bdd_total_nodes, want.bdd_total_nodes);
    EXPECT_EQ(got.variables, want.variables);
    EXPECT_EQ(got.modules, want.modules);
    EXPECT_EQ(got.approximated_blocks, want.approximated_blocks);
    EXPECT_EQ(got.cycles_cut, want.cycles_cut);
    EXPECT_EQ(got.warnings, want.warnings);
}

TEST(CompositionMemo, TracksEditsAndStaysExact) {
    // Cold start, then a rate edit and a connectivity edit: each is a
    // new composition, evaluated in full and equal to the analysis.
    engine::EvalEngine engine;
    const analysis::ProbabilityOptions options;
    ArchitectureModel m = scenarios::ecotwin_lateral_control();
    expect_same_result(engine.analyze(m, options),
                       analysis::analyze_failure_probability(m, options));

    const ResourceId r = m.find_resource("lateral_control_hw");
    ASSERT_TRUE(r.valid());
    m.resources().node(r).lambda_override = 7.5e-8;
    expect_same_result(engine.analyze(m, options),
                       analysis::analyze_failure_probability(m, options));

    m.connect_app(m.find_app_node("camera"), m.find_app_node("lateral_control"));
    expect_same_result(engine.analyze(m, options),
                       analysis::analyze_failure_probability(m, options));
    EXPECT_EQ(engine.stats().analyze_calls, 3u);
    EXPECT_EQ(engine.stats().ftree_memo_hits, 0u);
}

TEST(CompositionMemo, RevisitedCompositionHitsTheMemo) {
    // A -> B -> A: the walk of a search that tries a move, tries
    // another, and re-scores the first — the steady state the memo
    // exists for.
    engine::EvalEngine engine;
    const analysis::ProbabilityOptions options;
    const ArchitectureModel a = scenarios::ecotwin_lateral_control();
    ArchitectureModel b = a;
    b.resources().node(b.find_resource("lateral_control_hw")).lambda_override = 7.5e-8;

    const analysis::ProbabilityResult first = engine.analyze(a, options);
    (void)engine.analyze(b, options);
    EXPECT_EQ(engine.stats().ftree_memo_hits, 0u);

    const analysis::ProbabilityResult again = engine.analyze(a, options);
    EXPECT_EQ(engine.stats().ftree_memo_hits, 1u);
    EXPECT_EQ(engine.stats().tree_hits, 1u);  // a memo hit is a tree hit
    expect_same_result(again, first);
    expect_same_result(again, analysis::analyze_failure_probability(a, options));
}

TEST(CompositionMemo, DistinctOptionsNeverShareMemoEntries) {
    engine::EvalEngine engine;
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    analysis::ProbabilityOptions exact;
    analysis::ProbabilityOptions approx;
    approx.approximate = true;

    (void)engine.analyze(m, exact);
    expect_same_result(engine.analyze(m, approx),
                       analysis::analyze_failure_probability(m, approx));
    EXPECT_EQ(engine.stats().ftree_memo_hits, 0u);
    expect_same_result(engine.analyze(m, exact),
                       analysis::analyze_failure_probability(m, exact));
    EXPECT_EQ(engine.stats().ftree_memo_hits, 1u);
}

TEST(CompositionMemo, CutSetsAreEnumeratedOncePerComposition) {
    engine::EvalEngine engine;
    const ftree::FtBuildOptions options;
    const ArchitectureModel m = scenarios::ecotwin_lateral_control();
    const ftree::FaultTree tree = ftree::build_fault_tree(m, options).tree;
    const engine::EvalEngine::RawCutSets& first = engine.minimal_cut_sets(m, options);
    EXPECT_EQ(first.cut_sets, analysis::minimal_cut_sets(tree));
    // The raw tree's event indices and rates, so its readers build no tree.
    ASSERT_EQ(first.lambdas.size(), tree.basic_events().size());
    EXPECT_EQ(first.event_index.size(), tree.basic_events().size());
    for (std::uint32_t e = 0; e < tree.basic_events().size(); ++e) {
        const ftree::BasicEvent& event = tree.basic_events()[e];
        EXPECT_EQ(first.event_index.at(event.name), e) << event.name;
        EXPECT_EQ(first.lambdas[e], event.lambda) << event.name;
    }
    // A copy of the model is the same composition: served by reference,
    // without building its tree again.
    const obs::Counter& trees_built = obs::Registry::global().counter("ftree.trees_built");
    const std::uint64_t built_before = trees_built.value();
    const ArchitectureModel copy = m;
    EXPECT_EQ(&engine.minimal_cut_sets(copy, options), &first);
    EXPECT_EQ(trees_built.value(), built_before);
}

// ---- counter ledger ------------------------------------------------------

/// The ledger every engine balances: each analyze call ends as exactly
/// one tree hit or one tree miss.
void expect_ledger_balances(const engine::EvalEngine::Stats& s) {
    EXPECT_EQ(s.tree_hits + s.tree_misses, s.analyze_calls);
}

TEST(CounterLedger, SingleAnalyze) {
    engine::EvalEngine engine;
    (void)engine.analyze(scenarios::fig3_camera_gps_fusion(), {});
    const engine::EvalEngine::Stats s = engine.stats();
    EXPECT_EQ(s.analyze_calls, 1u);
    EXPECT_EQ(s.tree_misses, 1u);
    expect_ledger_balances(s);
}

TEST(CounterLedger, EnginesDoNotShareCounts) {
    // Each engine counts its own calls, while the registry ids see
    // every engine's: --metrics output is the process-wide total.
    obs::Counter& registry_calls = obs::Registry::global().counter("engine.analyze_calls");
    const std::uint64_t registry_before = registry_calls.value();
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    engine::EvalEngine a;
    engine::EvalEngine b;
    (void)a.analyze(m, {});

    const engine::EvalEngine::Stats sa = a.stats();
    EXPECT_EQ(sa.analyze_calls, 1u);
    EXPECT_EQ(sa.tree_misses, 1u);
    const engine::EvalEngine::Stats sb = b.stats();
    EXPECT_EQ(sb.analyze_calls, 0u);
    EXPECT_EQ(sb.tree_hits, 0u);
    EXPECT_EQ(sb.tree_misses, 0u);

    // B's memo is its own: the same model is a miss there, and A does
    // not see B's call.
    (void)b.analyze(m, {});
    EXPECT_EQ(b.stats().tree_misses, 1u);
    EXPECT_EQ(a.stats().analyze_calls, 1u);
    EXPECT_EQ(registry_calls.value() - registry_before, 2u);
}

TEST(CounterLedger, MappingSearch) {
    ArchitectureModel m = scenarios::chain_n_stages(3);
    for (const char* n : {"f1", "f2", "f3"}) transform::expand(m, m.find_app_node(n));
    engine::EvalEngine engine;
    const explore::MappingSearchResult r = explore::search_mapping(m, {}, engine);
    const engine::EvalEngine::Stats s = engine.stats();
    EXPECT_GT(s.analyze_calls, 0u);
    expect_ledger_balances(s);
    // The search reports the same ledger for its own calls.
    EXPECT_EQ(r.evaluations, s.analyze_calls);
    EXPECT_EQ(r.eval_cache_hits, s.tree_hits);
    EXPECT_EQ(r.eval_cache_misses, s.tree_misses);
    // Per search: the initial state's evaluation plus every generated
    // candidate the bound check let through.
    EXPECT_GT(r.candidates, 0u);
    EXPECT_EQ(r.evaluations, 1 + r.candidates - r.bound_rejections);
    EXPECT_EQ(r.evaluations, r.eval_cache_hits + r.eval_cache_misses);
}

}  // namespace
}  // namespace asilkit
