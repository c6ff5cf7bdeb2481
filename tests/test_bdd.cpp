#include "bdd/bdd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <random>
#include <set>
#include <vector>

#include "bdd/from_fault_tree.h"
#include "helpers.h"
#include "obs/metrics.h"

namespace asilkit::bdd {
namespace {

TEST(Bdd, TerminalsAndVariables) {
    BddManager mgr(3);
    EXPECT_TRUE(BddManager::is_terminal(kFalse));
    EXPECT_TRUE(BddManager::is_terminal(kTrue));
    const BddRef x = mgr.variable(0);
    EXPECT_FALSE(BddManager::is_terminal(x));
    EXPECT_EQ(mgr.variable(0), x);  // hash-consed
    EXPECT_THROW((void)mgr.variable(3), AnalysisError);
}

TEST(Bdd, ReductionRule) {
    BddManager mgr(2);
    EXPECT_EQ(mgr.make(0, kTrue, kTrue), kTrue);
    EXPECT_EQ(mgr.make(1, kFalse, kFalse), kFalse);
}

TEST(Bdd, ApplyTerminalCases) {
    BddManager mgr(2);
    const BddRef x = mgr.variable(0);
    EXPECT_EQ(mgr.apply_or(x, kTrue), kTrue);
    EXPECT_EQ(mgr.apply_or(x, kFalse), x);
    EXPECT_EQ(mgr.apply_or(x, x), x);
    EXPECT_EQ(mgr.apply_and(x, kFalse), kFalse);
    EXPECT_EQ(mgr.apply_and(x, kTrue), x);
    EXPECT_EQ(mgr.apply_and(x, x), x);
}

TEST(Bdd, ApplyIsCommutativeAndCanonical) {
    BddManager mgr(3);
    const BddRef x = mgr.variable(0);
    const BddRef y = mgr.variable(1);
    const BddRef z = mgr.variable(2);
    EXPECT_EQ(mgr.apply_or(x, y), mgr.apply_or(y, x));
    // (x|y)&z == z&(y|x): canonical node identity, not just equivalence.
    EXPECT_EQ(mgr.apply_and(mgr.apply_or(x, y), z), mgr.apply_and(z, mgr.apply_or(y, x)));
}

TEST(Bdd, EvaluateMatchesSemantics) {
    BddManager mgr(2);
    const BddRef f = mgr.apply_or(mgr.variable(0), mgr.variable(1));
    EXPECT_TRUE(mgr.evaluate(f, {true, true}));
    EXPECT_TRUE(mgr.evaluate(f, {true, false}));
    EXPECT_TRUE(mgr.evaluate(f, {false, true}));
    EXPECT_FALSE(mgr.evaluate(f, {false, false}));
}

TEST(Bdd, NotOperator) {
    BddManager mgr(2);
    const BddRef x = mgr.variable(0);
    const BddRef not_x = mgr.apply_not(x);
    EXPECT_FALSE(mgr.evaluate(not_x, {true, false}));
    EXPECT_TRUE(mgr.evaluate(not_x, {false, false}));
    EXPECT_EQ(mgr.apply_not(kTrue), kFalse);
    EXPECT_EQ(mgr.apply_not(kFalse), kTrue);
    EXPECT_EQ(mgr.apply_not(not_x), x);  // double negation is identity
}

TEST(Bdd, ProbabilityOfSingleVariable) {
    BddManager mgr(1);
    const double p[] = {0.3};
    EXPECT_NEAR(mgr.probability(mgr.variable(0), p), 0.3, 1e-12);
    EXPECT_NEAR(mgr.probability(kTrue, p), 1.0, 1e-12);
    EXPECT_NEAR(mgr.probability(kFalse, p), 0.0, 1e-12);
}

TEST(Bdd, ProbabilityOrAnd) {
    BddManager mgr(2);
    const BddRef x = mgr.variable(0);
    const BddRef y = mgr.variable(1);
    const double p[] = {0.3, 0.5};
    EXPECT_NEAR(mgr.probability(mgr.apply_or(x, y), p), 0.3 + 0.5 - 0.15, 1e-12);
    EXPECT_NEAR(mgr.probability(mgr.apply_and(x, y), p), 0.15, 1e-12);
}

TEST(Bdd, ProbabilityHandlesRepeatedEventsExactly) {
    // (x&y) | (x&z): rare-event addition double-counts x; the BDD must not.
    BddManager mgr(3);
    const BddRef x = mgr.variable(0);
    const BddRef y = mgr.variable(1);
    const BddRef z = mgr.variable(2);
    const BddRef f = mgr.apply_or(mgr.apply_and(x, y), mgr.apply_and(x, z));
    const double p[] = {0.5, 0.5, 0.5};
    // P = P(x & (y|z)) = 0.5 * 0.75.
    EXPECT_NEAR(mgr.probability(f, p), 0.375, 1e-12);
}

TEST(Bdd, ProbabilityVectorSizeChecked) {
    BddManager mgr(2);
    const std::vector<double> wrong{0.5};
    EXPECT_THROW((void)mgr.probability(mgr.variable(0), wrong), AnalysisError);
}

TEST(Bdd, NodeCountOfSharedStructure) {
    BddManager mgr(3);
    const BddRef f =
        mgr.apply_or(mgr.apply_and(mgr.variable(0), mgr.variable(2)),
                     mgr.apply_and(mgr.variable(1), mgr.variable(2)));
    EXPECT_GE(mgr.node_count(f), 3u);
    EXPECT_LE(mgr.node_count(f), 4u);
    EXPECT_EQ(mgr.node_count(kTrue), 0u);
}

/// A fixed sequence of operations over 5 variables; returns every ref
/// it produced, in order.
std::vector<BddRef> build_small_function(BddManager& mgr) {
    std::vector<BddRef> refs;
    for (std::uint32_t v = 0; v < 5; ++v) refs.push_back(mgr.variable(v));
    refs.push_back(mgr.apply_and(refs[0], refs[1]));
    refs.push_back(mgr.apply_and(refs[2], refs[3]));
    refs.push_back(mgr.apply_or(refs[5], refs[6]));
    refs.push_back(mgr.apply_or(refs[7], refs[4]));
    refs.push_back(mgr.apply_and(refs[8], mgr.apply_or(refs[1], refs[3])));
    refs.push_back(mgr.apply_not(refs[9]));
    return refs;
}

TEST(Bdd, ResetBehavesLikeAFreshManager) {
    // A function large enough to grow the unique table and the apply
    // caches past their initial 1024 slots, then a reset: the small
    // function after it must come out as on a fresh manager, ref for
    // ref and bit for bit.
    BddManager reused(48);
    BddRef big = kFalse;
    for (std::uint32_t i = 0; i < 48; ++i) {
        const BddRef pair =
            reused.apply_and(reused.variable(i), reused.variable((i * 17 + 5) % 48));
        big = reused.apply_or(big, pair);
    }
    ASSERT_GT(reused.size(), 1024u) << "the large function must outgrow the initial tables";
    ASSERT_GT(reused.node_count(big), 0u);
    const std::size_t discarded = reused.size();
    reused.reset(5);  // no flush_obs() first: the discarded nodes stay counted
    EXPECT_EQ(reused.variable_count(), 5u);
    EXPECT_EQ(reused.size(), 0u);

    BddManager fresh(5);
    const std::vector<BddRef> got = build_small_function(reused);
    const std::vector<BddRef> want = build_small_function(fresh);
    EXPECT_EQ(got, want);
    EXPECT_EQ(reused.size(), fresh.size());

    // The unique table is back at its initial 1024 slots: the same
    // entries leave the same load factor.
    const obs::Counter& created = obs::Registry::global().counter("bdd.nodes_created");
    const obs::Gauge& load = obs::Registry::global().gauge("bdd.unique_load_factor");
    fresh.flush_obs();
    const double fresh_load = load.value();
    const std::uint64_t created_before = created.value();
    reused.flush_obs();
    EXPECT_EQ(load.value(), fresh_load);
    EXPECT_EQ(created.value() - created_before, discarded + reused.size());

    const std::vector<double> p{0.1, 0.2, 0.3, 0.4, 0.5};
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(reused.node_count(got[i]), fresh.node_count(want[i])) << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(reused.probability(got[i], p)),
                  std::bit_cast<std::uint64_t>(fresh.probability(want[i], p)))
            << i;
    }
    EXPECT_THROW((void)reused.variable(5), AnalysisError);
}

TEST(Bdd, NodeViewExposesStructure) {
    BddManager mgr(1);
    const BddRef x = mgr.variable(0);
    const auto view = mgr.node(x);
    EXPECT_EQ(view.var, 0u);
    EXPECT_EQ(view.high, kTrue);
    EXPECT_EQ(view.low, kFalse);
    EXPECT_THROW((void)mgr.node(kTrue), AnalysisError);
}

// ---- fault tree compilation -------------------------------------------------

ftree::FaultTree simple_tree() {
    ftree::FaultTree ft;
    const auto a = ft.add_basic_event("a", 0.1);  // p(1h) = 1-e^-0.1
    const auto b = ft.add_basic_event("b", 0.2);
    const auto c = ft.add_basic_event("c", 0.3);
    const auto and_bc = ft.add_gate("and_bc", ftree::GateKind::And, {b, c});
    ft.set_top(ft.add_gate("top", ftree::GateKind::Or, {a, and_bc}));
    return ft;
}

TEST(FtCompile, VariableOrderIsTopDownLeftRight) {
    const ftree::FaultTree ft = simple_tree();
    const auto order = ft_variable_order(ft);
    // BFS: a (direct child of top) first, then b, c.
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(ft.basic_event(order[0]).name, "a");
    EXPECT_EQ(ft.basic_event(order[1]).name, "b");
    EXPECT_EQ(ft.basic_event(order[2]).name, "c");
}

TEST(FtCompile, ProbabilityMatchesHandComputation) {
    const ftree::FaultTree ft = simple_tree();
    const CompiledFaultTree compiled = compile_fault_tree(ft);
    const auto probs = compiled.variable_probabilities(ft, 1.0);
    const double pa = 1.0 - std::exp(-0.1);
    const double pb = 1.0 - std::exp(-0.2);
    const double pc = 1.0 - std::exp(-0.3);
    const double expected = pa + (1.0 - pa) * pb * pc;
    EXPECT_NEAR(compiled.manager.probability(compiled.root, probs), expected, 1e-12);
}

TEST(FtCompile, EmptyGateIsConstantFalse) {
    ftree::FaultTree ft;
    ft.set_top(ft.add_gate("empty", ftree::GateKind::Or, {}));
    const CompiledFaultTree compiled = compile_fault_tree(ft);
    EXPECT_EQ(compiled.root, kFalse);
}

TEST(FtCompile, MissionTimeScalesProbability) {
    ftree::FaultTree ft;
    ft.set_top(ft.add_basic_event("e", 1e-6));
    const CompiledFaultTree compiled = compile_fault_tree(ft);
    const double p1 = compiled.manager.probability(compiled.root,
                                                   compiled.variable_probabilities(ft, 1.0));
    const double p1000 = compiled.manager.probability(
        compiled.root, compiled.variable_probabilities(ft, 1000.0));
    EXPECT_NEAR(p1, 1e-6, 1e-9);
    EXPECT_NEAR(p1000, 1e-3, 1e-6);
    EXPECT_GT(p1000, p1);
}

TEST(FtCompile, BasicEventProbability) {
    EXPECT_NEAR(basic_event_probability(1e-9, 1.0), 1e-9, 1e-15);
    EXPECT_NEAR(basic_event_probability(0.5, 1.0), 1.0 - std::exp(-0.5), 1e-12);
    EXPECT_DOUBLE_EQ(basic_event_probability(0.0, 100.0), 0.0);
}

TEST(FtCompile, CustomOrderGivesSameProbability) {
    const ftree::FaultTree ft = simple_tree();
    const auto default_order = ft_variable_order(ft);
    std::vector<std::uint32_t> reversed(default_order.rbegin(), default_order.rend());
    const CompiledFaultTree a = compile_fault_tree(ft, default_order);
    const CompiledFaultTree b = compile_fault_tree(ft, reversed);
    const double pa = a.manager.probability(a.root, a.variable_probabilities(ft, 1.0));
    const double pb = b.manager.probability(b.root, b.variable_probabilities(ft, 1.0));
    EXPECT_NEAR(pa, pb, 1e-14);
}

// ---- property tests: BDD probability == brute-force enumeration -------------

class BddProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BddProperty, MatchesBruteForceOnRandomTrees) {
    const std::uint32_t seed = GetParam();
    const ftree::FaultTree ft = testing::random_fault_tree(seed, 3 + seed % 10, 2 + seed % 6);
    const CompiledFaultTree compiled = compile_fault_tree(ft);
    const double bdd_p = compiled.manager.probability(
        compiled.root, compiled.variable_probabilities(ft, 1.0));
    const double brute = testing::brute_force_probability(ft);
    EXPECT_NEAR(bdd_p, brute, 1e-10) << "seed " << seed;
}

TEST_P(BddProperty, EvaluateAgreesWithTreeSemantics) {
    const std::uint32_t seed = GetParam();
    const ftree::FaultTree ft = testing::random_fault_tree(seed, 3 + seed % 8, 2 + seed % 5);
    const CompiledFaultTree compiled = compile_fault_tree(ft);
    const std::size_t n = ft.basic_events().size();
    std::mt19937 rng(seed ^ 0xBEEF);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<bool> tree_assignment(n);
        for (std::size_t i = 0; i < n; ++i) tree_assignment[i] = rng() & 1;
        // Permute into BDD variable order.
        std::vector<bool> bdd_assignment(compiled.event_of_var.size());
        for (std::size_t v = 0; v < compiled.event_of_var.size(); ++v) {
            bdd_assignment[v] = tree_assignment[compiled.event_of_var[v]];
        }
        EXPECT_EQ(compiled.manager.evaluate(compiled.root, bdd_assignment),
                  testing::evaluate_fault_tree(ft, ft.top(), tree_assignment))
            << "seed " << seed << " trial " << trial;
    }
}

/// Interior nodes reachable from `f`, counted depth first with a set.
std::size_t depth_first_node_count(const BddManager& mgr, BddRef f) {
    std::set<BddRef> seen;
    std::vector<BddRef> stack{f};
    while (!stack.empty()) {
        const BddRef x = stack.back();
        stack.pop_back();
        if (BddManager::is_terminal(x) || !seen.insert(x).second) continue;
        const BddManager::NodeView n = mgr.node(x);
        stack.push_back(n.high);
        stack.push_back(n.low);
    }
    return seen.size();
}

TEST_P(BddProperty, NodeCountMatchesDepthFirstCount) {
    const std::uint32_t seed = GetParam();
    const ftree::FaultTree ft = testing::random_fault_tree(seed, 3 + seed % 10, 2 + seed % 6);
    const CompiledFaultTree compiled = compile_fault_tree(ft);
    EXPECT_EQ(compiled.manager.node_count(compiled.root),
              depth_first_node_count(compiled.manager, compiled.root))
        << "seed " << seed;
    // Every node of the arena as a root, terminals included.
    for (BddRef f = 0; f < compiled.manager.size() + 2; ++f) {
        EXPECT_EQ(compiled.manager.node_count(f), depth_first_node_count(compiled.manager, f))
            << "seed " << seed << " node " << f;
    }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, BddProperty, ::testing::Range(0u, 40u));

// ---- probability memo: forced fingerprint collision -------------------------
//
// probability() used to trust a 64-bit chained fingerprint of the
// probability vector (key = mix64(key ^ bits), seeded mix64(n)).  mix64
// is an invertible bijection, so a second vector colliding with any
// given one can be constructed outright — and the memo then served the
// FIRST vector's per-node probabilities for the second.  The memo now
// compares a retained copy of the vector bit-for-bit.

TEST(ProbabilityMemo, SurvivesForcedFingerprintCollision) {
    BddManager mgr(2);
    const BddRef f = mgr.variable(0);
    const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };

    const double a1 = 0.25;
    const double a2 = 0.5;
    const double b1 = 0.75;
    // Choose b2 so (b1, b2) collides with (a1, a2) under the retired
    // fingerprint: equal chain state before the final mix64.
    const std::uint64_t k0 = detail::mix64(2);
    const double b2 = std::bit_cast<double>(detail::mix64(k0 ^ bits(a1)) ^
                                            detail::mix64(k0 ^ bits(b1)) ^ bits(a2));

    const auto retired_fingerprint = [&](double p1, double p2) {
        std::uint64_t key = detail::mix64(2);  // mix64(variable_count)
        key = detail::mix64(key ^ bits(p1));
        key = detail::mix64(key ^ bits(p2));
        return key;
    };
    ASSERT_EQ(retired_fingerprint(a1, a2), retired_fingerprint(b1, b2));

    // f only tests variable 0, so the second lane's garbage double is
    // never read — but the vectors differ, so the memo must not replay.
    const std::vector<double> va{a1, a2};
    const std::vector<double> vb{b1, b2};
    EXPECT_EQ(mgr.probability(f, va), 0.25);
    EXPECT_EQ(mgr.probability(f, vb), 0.75);  // a stale memo returns 0.25
    EXPECT_EQ(mgr.probability(f, va), 0.25);
}

// ---- hash mixing regression ------------------------------------------------
//
// The unique/apply tables are power-of-two open-addressing tables, so
// only the low bits of the mixed key select a bucket.  The previous
// multiply-then-add scheme let (f, g) pairs with small deltas collide
// after masking; the splitmix64 finalizer must avalanche every input
// bit into the low bits.

TEST(BddHashMixing, SingleBitFlipAvalanches) {
    std::mt19937_64 rng(7);
    for (int sample = 0; sample < 64; ++sample) {
        const std::uint64_t x = rng();
        for (int bit = 0; bit < 64; ++bit) {
            const std::uint64_t diff = detail::mix64(x) ^ detail::mix64(x ^ (1ull << bit));
            const int flipped = std::popcount(diff);
            // Full avalanche flips ~32 bits; the old additive scheme
            // flipped a handful for low-bit deltas.
            EXPECT_GE(flipped, 12) << "x=" << x << " bit=" << bit;
            EXPECT_LE(flipped, 52) << "x=" << x << " bit=" << bit;
        }
    }
}

TEST(BddHashMixing, DenseApplyKeysSpreadAcrossPowerOfTwoBuckets) {
    // Incremental BDD construction produces (f, g) pairs from a dense
    // low range — exactly the keys that clustered under the old mix.
    constexpr std::size_t kBuckets = 4096;  // power of two, as in the tables
    std::vector<int> load(kBuckets, 0);
    for (std::uint64_t f = 2; f < 130; ++f) {
        for (std::uint64_t g = f; g < f + 32; ++g) {
            const std::uint64_t key = (f << 32) | g;
            ++load[static_cast<std::size_t>(detail::mix64(key)) & (kBuckets - 1)];
        }
    }
    const std::size_t keys = 128 * 32;
    std::size_t occupied = 0;
    int max_load = 0;
    for (const int l : load) {
        if (l > 0) ++occupied;
        max_load = std::max(max_load, l);
    }
    // With 4096 uniform keys in 4096 buckets: ~2589 occupied expected,
    // max load ~6.  A clustered mix collapses occupancy and spikes the
    // longest probe chain.
    EXPECT_GE(occupied, keys / 2);
    EXPECT_LE(max_load, 12);
}

TEST(BddHashMixing, DenseNodeKeysSpreadAcrossPowerOfTwoBuckets) {
    constexpr std::size_t kBuckets = 4096;
    std::vector<int> load(kBuckets, 0);
    std::size_t keys = 0;
    for (std::uint32_t var = 0; var < 16; ++var) {
        for (std::uint32_t high = 2; high < 18; ++high) {
            for (std::uint32_t low = 2; low < 18; ++low) {
                ++load[static_cast<std::size_t>(detail::mix_node_key(var, high, low)) &
                       (kBuckets - 1)];
                ++keys;
            }
        }
    }
    std::size_t occupied = 0;
    int max_load = 0;
    for (const int l : load) {
        if (l > 0) ++occupied;
        max_load = std::max(max_load, l);
    }
    EXPECT_GE(occupied, keys / 2);
    EXPECT_LE(max_load, 12);
}

}  // namespace
}  // namespace asilkit::bdd
