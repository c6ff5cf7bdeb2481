// Monte Carlo fault simulation.
//
// An independent estimator for the top-event probability: sample every
// basic event as Bernoulli(p_i), evaluate the fault tree, repeat.  Two
// engines share one options/result surface (see docs/simulation.md):
//
//   * Naive — the original scalar loop, one trial at a time through a
//     sequential mt19937_64.  Kept bit-for-bit as the cross-validation
//     oracle: it shares no code with the analytic (BDD) pipeline, so
//     agreement within the confidence interval is strong evidence of
//     correctness.
//   * BitParallel — analysis::SimEngine (sim_engine.h): 64 trials per
//     machine word, counter-based RNG, fork-join fan-out, optional
//     cut-set importance sampling.  Deterministic at every thread count
//     and block size by construction.
//
// Naive sampling cannot resolve automotive-scale probabilities (1e-9
// needs ~1e11 trials), so validation runs either scale the rates up
// (`rate_scale`) into the regime where a few hundred thousand trials
// give tight intervals, or enable importance sampling, which estimates
// the unscaled probability directly with likelihood-ratio weights.
#pragma once

#include <cstdint>

#include "ftree/fault_tree.h"
#include "model/architecture.h"
#include "model/failure_rates.h"

namespace asilkit::analysis {

enum class SimEngineKind : std::uint8_t {
    Naive,       ///< scalar oracle loop (sequential mt19937_64)
    BitParallel  ///< vectorized SimEngine (counter-based RNG, 64 trials/word)
};

struct SimulationOptions {
    /// At least 1 and at most 2^53, the largest count the estimators'
    /// division by double(trials) represents exactly; SimEngine::run
    /// throws AnalysisError outside that range.  A run's memory does
    /// not grow with the count.
    std::uint64_t trials = 100000;
    /// Full 64-bit seed space; the naive oracle feeds it to mt19937_64
    /// unchanged, the bit-parallel engine uses it as the counter-RNG key.
    std::uint64_t seed = 1;
    double mission_hours = 1.0;
    /// Multiplies every basic-event rate before sampling (validation aid).
    double rate_scale = 1.0;
    FailureRates rates{};

    SimEngineKind engine = SimEngineKind::BitParallel;
    /// Threads of the bit-parallel engine: the caller plus threads - 1
    /// it starts and joins for each round of trials (0 = ASILKIT_THREADS
    /// env var, else hardware concurrency; core::resolve_thread_count).
    /// Results are bitwise identical at every thread count.  Ignored by
    /// the naive engine.
    unsigned threads = 1;

    /// Rare-event importance sampling (bit-parallel engine only): bias
    /// the proposal toward minimal-cut-set events and weight trials by
    /// the likelihood ratio.  Unbiased at any bias level; makes
    /// unscaled automotive rates (1e-9 fph) estimable.
    bool importance_sampling = false;
    /// Proposal floor for cut-set events: q_i = max(p_i, is_bias).
    double is_bias = 0.05;
    /// Order limit (at least 1) for the proposal's minimal-cut-set
    /// enumeration.
    std::size_t is_max_order = 4;
};

struct SimulationResult {
    double estimate = 0.0;   ///< failures / trials (weighted under IS)
    double std_error = 0.0;  ///< sqrt(p(1-p)/n), or the weighted-sample SE under IS
    double ci95_low = 0.0;
    double ci95_high = 0.0;
    std::uint64_t failures = 0;  ///< raw failing trials (unweighted, even under IS)
    std::uint64_t trials = 0;
    /// Kish effective sample size (sum w)^2 / sum w^2 of the
    /// likelihood-ratio weights; equals `trials` when IS is off.  A
    /// collapsed ESS (<< failures) flags an overdispersed proposal.
    double ess = 0.0;
    bool importance_sampled = false;

    /// True when `value` lies within the 95% confidence interval.
    [[nodiscard]] bool consistent_with(double value) const noexcept {
        return value >= ci95_low && value <= ci95_high;
    }
};

/// Simulates an already-built fault tree with the selected engine.
/// Repeated runs over one tree should construct a SimEngine instead —
/// this convenience wrapper recompiles the evaluation plan every call.
[[nodiscard]] SimulationResult simulate_fault_tree(const ftree::FaultTree& ft,
                                                   const SimulationOptions& options = {});

/// Builds the model's fault tree (exact form) and simulates it.
[[nodiscard]] SimulationResult simulate_failure_probability(const ArchitectureModel& m,
                                                            const SimulationOptions& options = {});

}  // namespace asilkit::analysis
