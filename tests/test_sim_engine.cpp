// Vectorized Monte Carlo engine (analysis::SimEngine): determinism,
// statistical agreement with the exact BDD pipeline, and the
// importance-sampling estimator's soundness at unscaled automotive
// rates (docs/simulation.md).
#include "analysis/sim_engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "analysis/probability.h"
#include "analysis/simulation.h"
#include "ftree/builder.h"
#include "helpers.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"

namespace asilkit::analysis {
namespace {

/// Bitwise equality of two simulation results — the determinism
/// contract compares doubles by value identity, not tolerance.
void expect_identical(const SimulationResult& a, const SimulationResult& b,
                      const std::string& what) {
    EXPECT_EQ(a.failures, b.failures) << what;
    EXPECT_EQ(a.trials, b.trials) << what;
    EXPECT_EQ(a.estimate, b.estimate) << what;
    EXPECT_EQ(a.std_error, b.std_error) << what;
    EXPECT_EQ(a.ci95_low, b.ci95_low) << what;
    EXPECT_EQ(a.ci95_high, b.ci95_high) << what;
    EXPECT_EQ(a.ess, b.ess) << what;
    EXPECT_EQ(a.importance_sampled, b.importance_sampled) << what;
}

TEST(SimEngine, BitwiseIdenticalAcrossThreadCounts) {
    const ftree::FaultTree ft = testing::random_fault_tree(11, 10, 7);
    const SimEngine engine(ft);
    SimulationOptions options;
    options.trials = 200000;
    options.seed = 99;
    options.threads = 1;
    const SimulationResult reference = engine.run(options);
    EXPECT_GT(reference.failures, 0u);
    for (const unsigned threads : {2u, 4u, 8u}) {
        options.threads = threads;
        expect_identical(engine.run(options), reference,
                         "threads " + std::to_string(threads));
    }
}

TEST(SimEngine, ImportanceSamplingDeterministicAcrossThreadsAndBlocks) {
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    const ftree::FaultTree ft = ftree::build_fault_tree(m).tree;
    const SimEngine engine(ft);
    SimulationOptions options;
    options.trials = 100000;
    options.seed = 1234;
    options.importance_sampling = true;
    options.threads = 1;
    const SimulationResult reference = engine.run(options);
    EXPECT_TRUE(reference.importance_sampled);
    for (const unsigned threads : {2u, 4u, 8u}) {
        options.threads = threads;
        expect_identical(engine.run(options), reference,
                         "IS threads " + std::to_string(threads));
    }
}

TEST(SimEngine, WrapperAndEngineAgreeBitwise) {
    const ftree::FaultTree ft = testing::random_fault_tree(3, 8, 5);
    SimulationOptions options;
    options.trials = 50000;
    options.seed = 77;
    expect_identical(simulate_fault_tree(ft, options), SimEngine(ft).run(options), "wrapper");
}

TEST(SimEngine, SingleEventMaskMatchesBernoulliLaw) {
    // Mean check of the bit-sliced Bernoulli masks across a spread of
    // probabilities, including values that are not dyadic rationals.
    for (const double p : {0.5, 0.25, 0.1, 0.031, 0.731}) {
        ftree::FaultTree ft;
        ft.set_top(ft.add_basic_event("e", -std::log(1.0 - p)));
        SimulationOptions options;
        options.trials = 400000;
        options.seed = static_cast<std::uint64_t>(p * 1e6);
        const SimulationResult r = SimEngine(ft).run(options);
        EXPECT_TRUE(r.consistent_with(p)) << "p=" << p << " estimate=" << r.estimate;
        EXPECT_NEAR(r.estimate, p, 6.0 * std::sqrt(p * (1.0 - p) / 400000.0)) << "p=" << p;
    }
}

TEST(SimEngine, VarianceOfBernoulliMaskMatchesBinomial) {
    // Carve the run into fixed windows and compare the spread of
    // per-window failure counts against Binomial(window, p).
    ftree::FaultTree ft;
    const double p = 0.2;
    ft.set_top(ft.add_basic_event("e", -std::log(1.0 - p)));
    const SimEngine engine(ft);
    const std::uint64_t window = 4096;
    const std::uint64_t windows = 64;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::uint64_t w = 0; w < windows; ++w) {
        SimulationOptions options;
        options.trials = window;
        options.seed = 9000 + w;  // independent windows via the key
        const auto f = static_cast<double>(engine.run(options).failures);
        sum += f;
        sum_sq += f * f;
    }
    const double mean = sum / static_cast<double>(windows);
    const double variance = sum_sq / static_cast<double>(windows) - mean * mean;
    const double expected_mean = static_cast<double>(window) * p;
    const double expected_var = static_cast<double>(window) * p * (1.0 - p);
    // Mean of `windows` binomials: sigma = sqrt(var/windows).
    EXPECT_NEAR(mean, expected_mean, 5.0 * std::sqrt(expected_var / windows));
    // Sample variance concentrates ~ sqrt(2/windows) relative.
    EXPECT_NEAR(variance, expected_var, 5.0 * expected_var * std::sqrt(2.0 / windows));
}

TEST(SimEngine, ThreeEstimatorsAgreeWithExactBddOnRandomTrees) {
    // The cross-validation triangle: naive oracle, bit-parallel kernel
    // and importance-sampled kernel must all bracket the exact BDD value
    // on trees small enough for exactness.
    for (std::uint32_t seed = 1; seed <= 6; ++seed) {
        const ftree::FaultTree ft = testing::random_fault_tree(seed, 8, 5);
        const double exact = fault_tree_probability(ft);
        SimulationOptions options;
        options.trials = 120000;
        options.seed = seed;

        options.engine = SimEngineKind::Naive;
        const SimulationResult naive = simulate_fault_tree(ft, options);
        EXPECT_TRUE(naive.consistent_with(exact)) << "naive seed " << seed << ": " << exact
                                                  << " vs " << naive.estimate;

        options.engine = SimEngineKind::BitParallel;
        const SimulationResult vectorized = simulate_fault_tree(ft, options);
        EXPECT_TRUE(vectorized.consistent_with(exact))
            << "bit-parallel seed " << seed << ": " << exact << " vs " << vectorized.estimate;

        options.importance_sampling = true;
        const SimulationResult weighted = simulate_fault_tree(ft, options);
        EXPECT_TRUE(weighted.consistent_with(exact))
            << "IS seed " << seed << ": " << exact << " vs [" << weighted.ci95_low << ", "
            << weighted.ci95_high << "]";
        EXPECT_TRUE(weighted.importance_sampled);
        EXPECT_GT(weighted.ess, 0.0);
        EXPECT_LE(weighted.ess, static_cast<double>(options.trials) * (1.0 + 1e-9));
    }
}

TEST(SimEngine, ImportanceSamplingBracketsExactAtUnscaledAutomotiveRates) {
    // The rare-event headline: at rate_scale = 1 the EcoTwin top-event
    // probability sits far below naive reach (~1e-8 over one hour), yet
    // the biased estimator must produce a finite, non-degenerate CI that
    // brackets the exact BDD value.
    const ArchitectureModel m = scenarios::ecotwin_lateral_control();
    const ftree::FaultTree ft = ftree::build_fault_tree(m).tree;
    const double exact = fault_tree_probability(ft);
    ASSERT_GT(exact, 0.0);
    ASSERT_LT(exact, 1e-4);  // genuinely rare: naive would see ~0 failures

    SimulationOptions options;
    options.trials = 1u << 20;
    options.seed = 2024;
    options.rate_scale = 1.0;
    options.importance_sampling = true;
    options.threads = 4;
    const SimulationResult r = SimEngine(ft).run(options);

    EXPECT_TRUE(r.importance_sampled);
    EXPECT_GT(r.failures, 0u);  // the proposal makes rare failures common
    EXPECT_TRUE(std::isfinite(r.estimate));
    EXPECT_TRUE(std::isfinite(r.std_error));
    EXPECT_GT(r.std_error, 0.0);
    EXPECT_TRUE(r.consistent_with(exact))
        << "exact " << exact << " vs [" << r.ci95_low << ", " << r.ci95_high << "]";
    // The interval must actually resolve the magnitude, not span [0, 1].
    EXPECT_LT(r.ci95_high, 100.0 * exact);
    EXPECT_GT(r.ess, 0.0);
}

TEST(SimEngine, NaiveMatchesPrePlanOracle) {
    // The naive path is the frozen oracle: same mt19937_64 stream, same
    // per-trial evaluation — so the failure count for a given seed is a
    // regression anchor for the plan-compiled rewrite.
    const ftree::FaultTree ft = testing::random_fault_tree(3, 6, 4);
    SimulationOptions options;
    options.engine = SimEngineKind::Naive;
    options.trials = 10000;
    options.seed = 42;
    const SimulationResult a = simulate_fault_tree(ft, options);
    const SimulationResult b = simulate_fault_tree(ft, options);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.ess, static_cast<double>(a.trials));
    EXPECT_FALSE(a.importance_sampled);
}

TEST(SimEngine, CertainAndImpossibleEvents) {
    ftree::FaultTree ft;
    const auto never = ft.add_basic_event("never", 0.0);
    const auto always = ft.add_basic_event("always", 1e12);  // p(1h) = 1 to double precision
    ft.set_top(ft.add_gate("top", ftree::GateKind::And, {never, always}));
    SimulationOptions options;
    options.trials = 5000;
    const SimulationResult and_result = SimEngine(ft).run(options);
    EXPECT_EQ(and_result.failures, 0u);

    ftree::FaultTree ft_or;
    const auto n2 = ft_or.add_basic_event("never", 0.0);
    const auto a2 = ft_or.add_basic_event("always", 1e12);
    ft_or.set_top(ft_or.add_gate("top", ftree::GateKind::Or, {n2, a2}));
    const SimulationResult or_result = SimEngine(ft_or).run(options);
    EXPECT_EQ(or_result.failures, options.trials);
    EXPECT_EQ(or_result.estimate, 1.0);
}

TEST(SimEngine, TrialCountsOffTheGranuleGrid) {
    // Trial counts that are not multiples of 64/4096 must count only
    // real trials — the tail word's invalid bits are masked out.
    ftree::FaultTree ft;
    ft.set_top(ft.add_basic_event("e", 1e12));  // always fails
    const SimEngine engine(ft);
    for (const std::uint64_t trials : {std::uint64_t{1}, std::uint64_t{63}, std::uint64_t{65},
                                       std::uint64_t{4097}, std::uint64_t{100001}}) {
        SimulationOptions options;
        options.trials = trials;
        const SimulationResult r = engine.run(options);
        EXPECT_EQ(r.failures, trials) << trials;
        EXPECT_EQ(r.estimate, 1.0) << trials;
    }
}

TEST(SimEngine, InvalidOptionsThrow) {
    const ftree::FaultTree ft = testing::random_fault_tree(1, 4, 3);
    const SimEngine engine(ft);
    SimulationOptions options;
    options.trials = 0;
    EXPECT_THROW((void)engine.run(options), AnalysisError);
    options.trials = 100;
    options.engine = SimEngineKind::Naive;
    options.importance_sampling = true;
    EXPECT_THROW((void)engine.run(options), AnalysisError);
    options.engine = SimEngineKind::BitParallel;
    options.is_bias = 1.5;
    EXPECT_THROW((void)engine.run(options), AnalysisError);

    const ftree::FaultTree empty;
    EXPECT_THROW(SimEngine{empty}, AnalysisError);
}

/// Bit patterns of a result's floating-point fields, plus its raw
/// failure count.
struct GoldenBits {
    std::uint64_t estimate;
    std::uint64_t std_error;
    std::uint64_t ci95_low;
    std::uint64_t ci95_high;
    std::uint64_t ess;
    std::uint64_t failures;
};

void expect_bits(const SimulationResult& r, const GoldenBits& g, const std::string& what) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.estimate), g.estimate) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.std_error), g.std_error) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.ci95_low), g.ci95_low) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.ci95_high), g.ci95_high) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.ess), g.ess) << what;
    EXPECT_EQ(r.failures, g.failures) << what;
}

TEST(SimEngine, GoldenBits) {
    // Regression anchor for the sampled field and the estimators: any
    // change to the RNG words consumed, the mask comparison, the gate
    // sweep or the accumulation order moves these bits.
    SimulationOptions options;
    options.trials = 200000;
    options.seed = 99;
    expect_bits(SimEngine(testing::random_fault_tree(11, 10, 7)).run(options),
                {0x3FA2F9873FFAC1D3ull, 0x3F3BAEEA388AB45Aull, 0x3FA28CAEA846F96Eull,
                 0x3FA3665FD7AE8A38ull, 0x41086A0000000000ull, 7412},
                "plain random tree");

    options = {};
    options.importance_sampling = true;
    const ftree::FaultTree fig3 =
        ftree::build_fault_tree(scenarios::fig3_camera_gps_fusion()).tree;
    expect_bits(SimEngine(fig3).run(options),
                {0x3E8C3D683419F79Aull, 0x3E2C4BCBC23911D8ull, 0x3E8B5E9B79C8EE3Full,
                 0x3E8D1C34EE6B00F5ull, 0x40E09A61C41DCF61ull, 50418},
                "fig3 IS");

    const ftree::FaultTree lateral =
        ftree::build_fault_tree(scenarios::ecotwin_lateral_control()).tree;
    expect_bits(SimEngine(lateral).run(options),
                {0x3E506E7993DB9396ull, 0x3DE7A248158D3057ull, 0x3E501189FC06E324ull,
                 0x3E50CB692BB04408ull, 0x40C1B28014AB1F89ull, 74840},
                "EcoTwin lateral IS");
}

TEST(SimEngine, GoldenBitsAcrossFanOutRounds) {
    // 2^24 trials and a few granules more: two fan-out rounds of 4096
    // granules, the second a partial one ending off the word grid.  The
    // bits are those of a run that reduced all granules in one pass.
    ftree::FaultTree ft;
    const auto a = ft.add_basic_event("a", 1e-3);
    const auto b = ft.add_basic_event("b", 2e-3);
    ft.set_top(ft.add_gate("top", ftree::GateKind::And, {a, b}));
    const SimEngine engine(ft);
    SimulationOptions options;
    options.trials = (std::uint64_t{1} << 24) + 5 * 4096 + 77;
    options.seed = 5;
    for (const unsigned threads : {1u, 3u}) {
        SCOPED_TRACE(::testing::Message() << threads << " threads");
        options.threads = threads;
        options.importance_sampling = false;
        expect_bits(engine.run(options),
                    {0x3EC57943A562F854ull, 0x3E9A3297466027E1ull, 0x3EBD9C74A0EE2E80ull,
                     0x3ECC244CFA4ED967ull, 0x41700504D0000000ull, 43},
                    "plain");
        options.importance_sampling = true;
        expect_bits(engine.run(options),
                    {0x3EC0E8506540082Aull, 0x3E44FF614AF6435Full, 0x3EC0BF1B943DDE88ull,
                     0x3EC11185364231CCull, 0x416D15BC22E4E3F0ull, 42384},
                    "IS");
    }
}

TEST(SimEngine, TrialCountsBeyondTwoToThe53Throw) {
    // Near 2^64 the word and granule counts must not wrap to 0 (an
    // estimate from no trials at all), and the estimators divide by
    // double(trials), which is exact only up to 2^53.
    const ftree::FaultTree ft = testing::random_fault_tree(1, 4, 3);
    const SimEngine engine(ft);
    SimulationOptions options;
    for (const std::uint64_t trials :
         {(std::uint64_t{1} << 53) + 1, std::uint64_t{1} << 63, std::uint64_t{18446744073709551553u},
          ~std::uint64_t{0}}) {
        options.trials = trials;
        options.engine = SimEngineKind::BitParallel;
        EXPECT_THROW((void)engine.run(options), AnalysisError) << trials;
        options.engine = SimEngineKind::Naive;
        EXPECT_THROW((void)engine.run(options), AnalysisError) << trials;
    }
}

TEST(SimEngine, ZeroImportanceSamplingOrderThrows) {
    const ftree::FaultTree ft = testing::random_fault_tree(1, 4, 3);
    SimulationOptions options;
    options.importance_sampling = true;
    options.is_max_order = 0;
    EXPECT_THROW((void)SimEngine(ft).run(options), AnalysisError);
}

TEST(SimEngine, PlanExposesTreeDimensions) {
    const ftree::FaultTree ft = testing::random_fault_tree(2, 7, 4);
    const SimEngine engine(ft);
    EXPECT_EQ(engine.event_count(), ft.basic_events().size());
    EXPECT_EQ(engine.gate_count(), ft.gates().size());
}

}  // namespace
}  // namespace asilkit::analysis
