// Vectorized Monte Carlo estimation engine (ROADMAP item 3).
//
// Exact BDD analysis is the first choice on every tree it can reach,
// but it blows up on wide synthetic workloads.  SimEngine is the
// sampling alternative and the independent check on the exact
// evaluators, built for throughput and statistical soundness:
//
//   * Bit-parallel trials — 64 trials are packed into one uint64_t
//     word.  Basic events are sampled as Bernoulli bit masks and the
//     fault tree is swept bottom-up with AND/OR word instructions over
//     a flattened SoA plan, so one pass of the gate array evaluates 64
//     trials.
//   * Counter-based RNG — every random word is a pure function of
//     (seed, trial-word index, event/slice stream) via
//     core::counter_word, so the sampled field does not depend on who
//     generates it: results are bitwise identical at every thread
//     count and block size.  Trial blocks fan out through
//     core::fork_join, one thread per block, in rounds of a fixed
//     number of granules; per-granule partial sums are written to
//     disjoint slots and reduced in granule order.
//   * Cut-set importance sampling — the proposal raises the failure
//     probability of every event appearing in a minimal cut set
//     (analysis::minimal_cut_sets) to at least `is_bias`; trials are
//     weighted by the exact likelihood ratio, so the estimator stays
//     unbiased while true 1e-9 probabilities become estimable without
//     rate_scale inflation.  Weights are bounded above by the
//     all-clear ratio, so variance is finite and the reported CLT
//     confidence intervals are sound (docs/simulation.md).
//
// The scalar oracle (SimulationOptions::engine = Naive) lives behind
// the same run() so the two estimators share one compiled evaluation
// plan (flattened children, swept in gate index order, which puts every
// gate after its children) computed once per SimEngine, not once per
// call.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/simulation.h"
#include "ftree/fault_tree.h"

namespace asilkit::analysis {

class SimEngine {
public:
    /// Compiles the evaluation plan (flattened child slots, event rates)
    /// once.  Non-owning: `ft` must outlive the engine.
    explicit SimEngine(const ftree::FaultTree& ft);

    /// Runs `options.trials` Monte Carlo trials with the selected
    /// engine.  Thread-safe for concurrent calls with distinct options;
    /// bitwise deterministic in (seed, trials, engine, IS settings)
    /// whatever `threads` says.
    [[nodiscard]] SimulationResult run(const SimulationOptions& options = {}) const;

    [[nodiscard]] std::size_t event_count() const noexcept { return lambdas_.size(); }
    [[nodiscard]] std::size_t gate_count() const noexcept { return gate_is_and_.size(); }

private:
    struct Proposal;  // biased event probabilities + likelihood-ratio weights

    [[nodiscard]] SimulationResult run_naive(const SimulationOptions& options) const;
    [[nodiscard]] SimulationResult run_bit_parallel(const SimulationOptions& options) const;
    [[nodiscard]] std::vector<double> event_probabilities(const SimulationOptions& options) const;

    const ftree::FaultTree* ft_;

    // Flattened SoA plan.  Value slots: gates occupy [0, gate_count()),
    // basic events [gate_count(), gate_count() + event_count()) — one
    // unified array indexes both, so a gate's child list is plain slot
    // indices whatever the child kind.
    std::vector<std::uint8_t> gate_is_and_;   ///< per gate
    std::vector<std::uint32_t> child_begin_;  ///< per gate: offset into child_slot_ (+1 sentinel)
    std::vector<std::uint32_t> child_slot_;   ///< flattened child value slots
    std::vector<double> lambdas_;             ///< per basic event
    std::uint32_t top_slot_ = 0;
};

}  // namespace asilkit::analysis
