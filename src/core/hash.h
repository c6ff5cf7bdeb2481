// Shared 64-bit hashing primitives.
//
// Every open-addressing table in the hot analysis path (the BDD
// unique/apply tables, the cut-set duplicate table) uses power-of-two
// capacities, so the mixer must achieve full avalanche: keys produced
// by incremental construction differ only in a few low bits, and a weak
// mix makes them cluster after masking.  splitmix64's finalizer is the standard choice
// (also used as the recommended seeder for xoshiro generators).
#pragma once

#include <cstdint>

namespace asilkit::hash {

/// splitmix64 finalizer: full-avalanche 64-bit mix.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/// Order-dependent accumulation: combine(combine(s, a), b) != with b, a.
[[nodiscard]] constexpr std::uint64_t combine(std::uint64_t seed, std::uint64_t value) noexcept {
    return mix64(seed ^ (value + 0x9E3779B97F4A7C15ull + (seed << 6) + (seed >> 2)));
}

}  // namespace asilkit::hash
