// Counter-based (stateless) random number generation.
//
// A sequential generator (mt19937) owns a mutable state, so parallel
// consumers either share it (contention + nondeterminism) or split it
// (results depend on the split).  A counter-based generator has no
// state at all: every 64-bit output is a pure function of
// (key, counter, stream), so any worker can produce any word of the
// random field in any order and the field is bitwise identical at every
// thread count, block size and visitation order.  This is what makes
// the Monte Carlo engine (analysis::SimEngine) deterministic by
// construction instead of by careful scheduling.
//
// Construction: the splitmix64 finalizer (core/hash.h) is a full-
// avalanche bijection; `counter_word` applies it twice over an affine
// combination of the inputs — once to decorrelate the counter walk
// (this round alone is exactly the splitmix64 generator, whose output
// quality is well studied), and once more to decorrelate parallel
// streams that differ only in the stream index.  Philox-style designs
// buy provable guarantees with more rounds; two mix64 rounds are ample
// for simulation use and keep the word cost at ~10 ALU ops.
#pragma once

#include <cstdint>

#include "core/hash.h"

namespace asilkit::core {

/// The golden-ratio increment of the splitmix64 sequence.
inline constexpr std::uint64_t kRngGamma = 0x9E3779B97F4A7C15ull;

/// Round 1 of counter_word: splitmix64 with the caller's key folded
/// into the state, so walking `counter` walks the splitmix sequence.
/// It does not see the stream, so a caller drawing many streams at one
/// (key, counter) computes it once: the Monte Carlo sampler draws one
/// stream per (event, threshold bit) at each trial word.
[[nodiscard]] constexpr std::uint64_t counter_round1(std::uint64_t key,
                                                     std::uint64_t counter) noexcept {
    return hash::mix64(key + counter * kRngGamma);
}

/// Round 2 of counter_word: folds the stream id into a round-1 word
/// through a second full-avalanche mix, so streams with adjacent ids
/// share no structure.
[[nodiscard]] constexpr std::uint64_t counter_round2(std::uint64_t round1,
                                                     std::uint64_t stream) noexcept {
    return hash::mix64(round1 ^ (stream + 0xD1B54A32D192ED03ull) * 0xEB44ACCAB455D165ull);
}

/// The `counter`-th word of the stream identified by (key, stream).
/// Pure function; uniform over the full 64-bit range.
[[nodiscard]] constexpr std::uint64_t counter_word(std::uint64_t key, std::uint64_t counter,
                                                   std::uint64_t stream) noexcept {
    return counter_round2(counter_round1(key, counter), stream);
}

/// Uniform double in [0, 1) from one counter word (53 mantissa bits).
[[nodiscard]] constexpr double counter_uniform(std::uint64_t key, std::uint64_t counter,
                                               std::uint64_t stream) noexcept {
    return static_cast<double>(counter_word(key, counter, stream) >> 11) * 0x1.0p-53;
}

}  // namespace asilkit::core
