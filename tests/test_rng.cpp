// Statistical smoke tests for the counter-based RNG (core/rng.h).
//
// These are not a test battery (two mix64 rounds have well-studied
// output quality); they pin the properties the Monte Carlo engine
// actually leans on: determinism as a pure function, decorrelation
// between adjacent counters/streams, and Bernoulli bit masks whose
// mean and variance match the binomial law.
#include "core/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

namespace asilkit::core {
namespace {

TEST(CounterRng, PureFunctionOfInputs) {
    EXPECT_EQ(counter_word(1, 2, 3), counter_word(1, 2, 3));
    EXPECT_NE(counter_word(1, 2, 3), counter_word(2, 2, 3));
    EXPECT_NE(counter_word(1, 2, 3), counter_word(1, 3, 3));
    EXPECT_NE(counter_word(1, 2, 3), counter_word(1, 2, 4));
}

TEST(CounterRng, WordIsTheCompositionOfItsRounds) {
    // Pinned words: the sampled Monte Carlo field is a function of these.
    EXPECT_EQ(counter_word(1, 2, 3), 0x2AA5A36D328E40C2ull);
    EXPECT_EQ(counter_word(0, 0, 0), 0x171E1479D77A1703ull);
    EXPECT_EQ(counter_word(~std::uint64_t{0}, 123456789, 64 * 137 + 63), 0xB743F4F429B0F53Cull);
    for (std::uint64_t c = 0; c < 1000; ++c) {
        const std::uint64_t round1 = counter_round1(77, c);
        for (std::uint64_t stream = 0; stream < 8; ++stream) {
            EXPECT_EQ(counter_round2(round1, stream), counter_word(77, c, stream));
        }
    }
}

TEST(CounterRng, UniformInUnitInterval) {
    EXPECT_GE(counter_uniform(7, 0, 0), 0.0);
    EXPECT_LT(counter_uniform(7, 0, 0), 1.0);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += counter_uniform(7, static_cast<std::uint64_t>(i), 0);
    // Mean of n uniforms: 1/2 +- a few sigma, sigma = 1/sqrt(12 n).
    EXPECT_NEAR(sum / n, 0.5, 5.0 / std::sqrt(12.0 * n));
}

TEST(CounterRng, AdjacentCountersShareNoWords) {
    // A sequential walk must look like distinct draws: collisions among
    // 10^5 64-bit words are overwhelmingly unlikely (p ~ 3e-10).
    std::set<std::uint64_t> seen;
    for (std::uint64_t c = 0; c < 100000; ++c) seen.insert(counter_word(42, c, 0));
    EXPECT_EQ(seen.size(), 100000u);
}

TEST(CounterRng, PopcountMatchesBinomialLaw) {
    // Each word carries 64 Bernoulli(1/2) bits: across n words the total
    // popcount is Binomial(64 n, 1/2).
    const std::uint64_t n = 50000;
    std::uint64_t ones = 0;
    for (std::uint64_t c = 0; c < n; ++c) {
        ones += static_cast<std::uint64_t>(std::popcount(counter_word(9, c, 5)));
    }
    const double bits = 64.0 * static_cast<double>(n);
    const double mean = static_cast<double>(ones) / bits;
    EXPECT_NEAR(mean, 0.5, 5.0 * std::sqrt(0.25 / bits));
}

TEST(CounterRng, PerBitPositionUnbiased) {
    // No bit position may be stuck or skewed: every one of the 64 lanes
    // is its own Bernoulli(1/2) sequence.
    const std::uint64_t n = 20000;
    std::vector<std::uint64_t> per_bit(64, 0);
    for (std::uint64_t c = 0; c < n; ++c) {
        const std::uint64_t w = counter_word(3, c, 11);
        for (int b = 0; b < 64; ++b) per_bit[b] += (w >> b) & 1;
    }
    const double sigma = std::sqrt(0.25 / static_cast<double>(n));
    for (int b = 0; b < 64; ++b) {
        EXPECT_NEAR(static_cast<double>(per_bit[b]) / static_cast<double>(n), 0.5, 6.0 * sigma)
            << "bit " << b;
    }
}

TEST(CounterRng, StreamsAreDecorrelated) {
    // The engine assigns one stream per (event, threshold bit); masks
    // built from adjacent streams must not co-vary.  Estimate the
    // correlation of the bit fields of streams s and s+1.
    const std::uint64_t n = 20000;
    std::uint64_t both = 0;
    for (std::uint64_t c = 0; c < n; ++c) {
        both += static_cast<std::uint64_t>(
            std::popcount(counter_word(5, c, 100) & counter_word(5, c, 101)));
    }
    // Independent Bernoulli(1/2) pairs AND to Bernoulli(1/4).
    const double bits = 64.0 * static_cast<double>(n);
    EXPECT_NEAR(static_cast<double>(both) / bits, 0.25, 5.0 * std::sqrt(0.1875 / bits));
}

TEST(CounterRng, VarianceOfWordPopcountsMatchesBinomial) {
    // Binomial(64, 1/2): mean 32, variance 16.  A correlated bit field
    // inside one word would inflate or deflate the variance.
    const std::uint64_t n = 50000;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::uint64_t c = 0; c < n; ++c) {
        const auto pc = static_cast<double>(std::popcount(counter_word(12, c, 2)));
        sum += pc;
        sum_sq += pc * pc;
    }
    const double mean = sum / static_cast<double>(n);
    const double variance = sum_sq / static_cast<double>(n) - mean * mean;
    EXPECT_NEAR(mean, 32.0, 0.2);
    // Var of the sample variance of a binomial ~ 2*16^2/n; 5 sigma.
    EXPECT_NEAR(variance, 16.0, 5.0 * std::sqrt(2.0 * 256.0 / static_cast<double>(n)));
}

}  // namespace
}  // namespace asilkit::core
