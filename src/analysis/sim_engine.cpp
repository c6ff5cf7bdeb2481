#include "analysis/sim_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <random>
#include <string>

#include "analysis/cutsets.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace asilkit::analysis {
namespace {

// Kernel geometry.  A *lane batch* of kLaneWords words (512 trials) is
// the sweep unit: event masks and gate values live in SoA lanes of
// kLaneWords contiguous words per slot, so every gate op is a short
// fixed-length loop the vectorizer unrolls.  A *granule* of
// kGranuleWords words (4096 trials) is the accumulation unit: partial
// sums are written to one slot per granule and reduced in granule
// order, which is what makes the estimate bitwise independent of the
// thread count (it only decides who computes a granule, never what a
// granule contains).
constexpr std::size_t kLaneWords = 8;
constexpr std::size_t kGranuleWords = 64;
constexpr std::uint64_t kGranuleTrials = kGranuleWords * 64;
/// Granules per fan-out round (2^24 trials): the partial slots of one
/// round are all a run holds, 192 KiB however long it is.
constexpr std::uint64_t kRoundGranules = 4096;

/// Number of significant bits kept in a sampling threshold.  An event
/// probability is truncated toward zero to this many significant bits
/// of its 64-bit fixed-point form, which bounds the worst-case
/// MSB-first comparison scan (it may stop at the threshold's lowest
/// set bit; the expected scan is ~log2(64) words regardless).  The
/// relative bias is below 2^-24 ~ 6e-8 — orders of magnitude under any
/// reachable sampling error — and both the plain and the
/// importance-sampled estimator target the same truncated model, so
/// the truncation never unbalances a likelihood ratio.
constexpr int kThresholdBits = 24;

/// The estimators divide by double(trials), which is exact only up to
/// 2^53.
constexpr std::uint64_t kMaxTrials = std::uint64_t{1} << 53;

/// ceil(n / d), without the wrap-around of (n + d - 1) / d near 2^64.
constexpr std::uint64_t ceil_div(std::uint64_t n, std::uint64_t d) noexcept {
    return n / d + (n % d != 0 ? 1 : 0);
}

/// `p` as a truncated 64-bit fixed-point threshold: the sampled
/// probability is threshold / 2^64.  `certain` marks p >= 1 (the mask
/// is all-ones, no RNG consumed); probabilities below 2^-64 truncate
/// to a zero threshold (the mask is all-zeros).
struct EventThreshold {
    std::uint64_t bits = 0;
    bool certain = false;
};

EventThreshold make_threshold(double p) noexcept {
    if (!(p > 0.0)) return {0, false};
    if (p >= 1.0) return {0, true};
    std::uint64_t t = static_cast<std::uint64_t>(p * 0x1p64);
    if (t != 0) {
        const int low = 63 - std::countl_zero(t) - (kThresholdBits - 1);
        if (low > 0) t &= ~((std::uint64_t{1} << low) - 1);
    }
    return {t, false};
}

/// The probability a truncated threshold actually samples at.  Exact:
/// the threshold has at most kThresholdBits significant bits, so the
/// double conversion does not round.
double threshold_probability(const EventThreshold& t) noexcept {
    return t.certain ? 1.0 : std::ldexp(static_cast<double>(t.bits), -64);
}

/// CLT interval shared by every estimator, with half a trial of slack
/// so a zero-failure run still brackets 0.  `slack_weight` is the
/// estimator's granularity: 1 for unweighted counting, the heaviest
/// observed failing weight under importance sampling (so a sharp
/// rare-event interval is not inflated to the worst-case weight bound).
void fill_interval(SimulationResult& r, double std_error, double slack_weight) {
    r.std_error = std_error;
    const double slack = 0.5 * slack_weight / static_cast<double>(r.trials);
    r.ci95_low = r.estimate - 1.96 * std_error - slack;
    r.ci95_high = r.estimate + 1.96 * std_error + slack;
}

struct GranulePartial {
    std::uint64_t failures = 0;
    double sum_w = 0.0;    ///< sum of likelihood-ratio weights, all trials
    double sum_w2 = 0.0;   ///< sum of squared weights, all trials
    double sum_wi = 0.0;   ///< sum of weights over failing trials
    double sum_w2i = 0.0;  ///< sum of squared weights over failing trials
    double max_wi = 0.0;   ///< heaviest weight among failing trials
};

}  // namespace

/// Sampling distribution of the bit-parallel kernel: per-event
/// thresholds (possibly biased toward cut-set events) plus everything
/// the likelihood-ratio estimator needs to stay unbiased under the
/// bias.  With importance sampling off, `ratios` is empty and `w0` is
/// exactly 1, so the weighted accumulators degenerate to plain counts.
struct SimEngine::Proposal {
    std::vector<EventThreshold> thresholds;  ///< per event: actual sampling probability
    bool is = false;
    double w0 = 1.0;  ///< all-clear likelihood ratio, prod (1-p)/(1-q) >= 1
    /// Biased events with their per-occurrence weight factor
    /// R_e = (p_e/q_e) * ((1-q_e)/(1-p_e)) <= 1: a trial's weight is
    /// w0 * prod over *failed* biased events of R_e, so every weight is
    /// bounded by w0 and the estimator's variance is finite.
    std::vector<std::pair<std::uint32_t, double>> ratios;

    static Proposal make(const ftree::FaultTree& ft, const SimulationOptions& options,
                         const std::vector<double>& p) {
        obs::ObsSpan span("proposal", "sim");
        Proposal proposal;
        proposal.thresholds.resize(p.size());
        for (std::size_t e = 0; e < p.size(); ++e) proposal.thresholds[e] = make_threshold(p[e]);
        if (!options.importance_sampling) return proposal;

        if (!(options.is_bias > 0.0) || !(options.is_bias < 1.0)) {
            throw AnalysisError("importance sampling bias must lie in (0, 1)");
        }
        proposal.is = true;
        CutSetOptions cut_options;
        cut_options.max_order = options.is_max_order;
        std::vector<std::uint8_t> in_cut(p.size(), 0);
        for (const CutSet& cut : minimal_cut_sets(ft, cut_options)) {
            for (const std::uint32_t e : cut) in_cut[e] = 1;
        }
        for (std::size_t e = 0; e < p.size(); ++e) {
            if (in_cut[e] == 0 || proposal.thresholds[e].certain) continue;
            const EventThreshold biased =
                make_threshold(std::max(p[e], options.is_bias));
            if (biased.bits <= proposal.thresholds[e].bits && !biased.certain) continue;
            const double target = threshold_probability(proposal.thresholds[e]);
            const double q = threshold_probability(biased);
            proposal.w0 *= (1.0 - target) / (1.0 - q);
            proposal.ratios.emplace_back(
                static_cast<std::uint32_t>(e), (target / q) * ((1.0 - q) / (1.0 - target)));
            proposal.thresholds[e] = biased;
        }
        return proposal;
    }
};

SimEngine::SimEngine(const ftree::FaultTree& ft) : ft_(&ft) {
    if (!ft.has_top()) throw AnalysisError("SimEngine: fault tree has no top event");
    obs::ObsSpan span("plan", "sim");
    const auto gates = ft.gates();
    const auto basics = ft.basic_events();
    gate_is_and_.resize(gates.size());
    child_begin_.resize(gates.size() + 1, 0);
    std::size_t children = 0;
    for (const ftree::Gate& g : gates) children += g.children.size();
    child_slot_.reserve(children);
    for (std::uint32_t g = 0; g < gates.size(); ++g) {
        gate_is_and_[g] = gates[g].kind == ftree::GateKind::And ? 1 : 0;
        child_begin_[g] = static_cast<std::uint32_t>(child_slot_.size());
        for (const ftree::FtRef& c : gates[g].children) {
            const std::uint32_t slot = c.kind == ftree::FtRef::Kind::Gate
                                           ? c.index
                                           : static_cast<std::uint32_t>(gates.size()) + c.index;
            child_slot_.push_back(slot);
        }
    }
    child_begin_[gates.size()] = static_cast<std::uint32_t>(child_slot_.size());
    lambdas_.resize(basics.size());
    for (std::size_t e = 0; e < basics.size(); ++e) lambdas_[e] = basics[e].lambda;
    const ftree::FtRef top = ft.top();
    top_slot_ = top.kind == ftree::FtRef::Kind::Gate
                    ? top.index
                    : static_cast<std::uint32_t>(gates.size()) + top.index;
}

std::vector<double> SimEngine::event_probabilities(const SimulationOptions& options) const {
    std::vector<double> p(lambdas_.size());
    for (std::size_t e = 0; e < lambdas_.size(); ++e) {
        p[e] = 1.0 - std::exp(-lambdas_[e] * options.rate_scale * options.mission_hours);
    }
    return p;
}

SimulationResult SimEngine::run(const SimulationOptions& options) const {
    obs::ObsSpan span("run", "sim");
    if (options.trials == 0) throw AnalysisError("simulation needs at least one trial");
    if (options.trials > kMaxTrials) {
        throw AnalysisError("simulation trials must not exceed 2^53 = " +
                            std::to_string(kMaxTrials) + " (got " +
                            std::to_string(options.trials) + ")");
    }
    const SimulationResult result = options.engine == SimEngineKind::Naive
                                        ? run_naive(options)
                                        : run_bit_parallel(options);
    static obs::Counter& runs = obs::Registry::global().counter("sim.runs");
    static obs::Counter& trials = obs::Registry::global().counter("sim.trials");
    static obs::Counter& failures = obs::Registry::global().counter("sim.failures");
    static obs::Gauge& ess = obs::Registry::global().gauge("sim.ess");
    runs.inc();
    trials.add(result.trials);
    failures.add(result.failures);
    ess.set(result.ess);
    return result;
}

SimulationResult SimEngine::run_naive(const SimulationOptions& options) const {
    if (options.importance_sampling) {
        throw AnalysisError("importance sampling requires the bit-parallel engine");
    }
    const std::vector<double> p = event_probabilities(options);
    std::mt19937_64 rng(options.seed);
    std::uniform_real_distribution<double> uniform(0.0, 1.0);

    const std::size_t gate_count = gate_is_and_.size();
    std::vector<std::uint8_t> values(gate_count + lambdas_.size(), 0);

    SimulationResult result;
    result.trials = options.trials;
    for (std::uint64_t t = 0; t < options.trials; ++t) {
        for (std::size_t e = 0; e < p.size(); ++e) {
            values[gate_count + e] = uniform(rng) < p[e] ? 1 : 0;
        }
        for (std::uint32_t g = 0; g < gate_count; ++g) {  // children first
            const std::uint32_t begin = child_begin_[g];
            const std::uint32_t end = child_begin_[g + 1];
            std::uint8_t value = gate_is_and_[g] != 0 && begin != end ? 1 : 0;
            for (std::uint32_t c = begin; c < end; ++c) {
                const std::uint8_t child = values[child_slot_[c]];
                if (gate_is_and_[g] == 0) {
                    if (child != 0) {
                        value = 1;
                        break;
                    }
                } else if (child == 0) {
                    value = 0;
                    break;
                }
            }
            values[g] = value;
        }
        if (values[top_slot_] != 0) ++result.failures;
    }
    result.estimate =
        static_cast<double>(result.failures) / static_cast<double>(result.trials);
    fill_interval(result,
                  std::sqrt(result.estimate * (1.0 - result.estimate) /
                            static_cast<double>(result.trials)),
                  1.0);
    result.ess = static_cast<double>(result.trials);
    return result;
}

SimulationResult SimEngine::run_bit_parallel(const SimulationOptions& options) const {
    const std::vector<double> p = event_probabilities(options);
    const Proposal proposal = Proposal::make(*ft_, options, p);

    const std::size_t gate_count = gate_is_and_.size();
    const std::size_t slots = gate_count + lambdas_.size();
    const std::uint64_t total_words = ceil_div(options.trials, 64);
    const std::uint64_t granules = ceil_div(options.trials, kGranuleTrials);

    // Samples the Bernoulli masks of every basic event for the lane
    // batch of words [word0, word0 + kLaneWords).  Each trial's mask
    // bit is [X < t] for a uniform 64-bit X whose bit b is taken from
    // the RNG word addressed by (seed, absolute trial word,
    // event * 64 + b) — a pure function, so the sampled field is
    // identical whatever thread visits it.  Round 1 of that word
    // depends only on (seed, trial word), so it is computed once per
    // lane here, not once per event and bit.  The comparison is
    // bit-sliced MSB-first and runs the batch's lanes in lockstep: a
    // trial stays `undecided` only while its random bits tie the
    // threshold's, so half the undecided trials resolve per bit and the
    // scan stops once no trial of the batch is left undecided — after
    // ~log2(512) + a few RNG words, independent of how small t is.
    // Neither the early exit nor the extra rounds a lane runs after it
    // is decided change a mask (decided bits are final, `lt` only grows
    // by undecided bits, and below the threshold's lowest set bit it
    // cannot grow at all), which keeps the output bitwise deterministic.
    const auto sample_events = [&](std::uint64_t* values, std::uint64_t word0) {
        std::uint64_t round1[kLaneWords];
        for (std::size_t lane = 0; lane < kLaneWords; ++lane) {
            round1[lane] = core::counter_round1(options.seed, word0 + lane);
        }
        for (std::size_t e = 0; e < lambdas_.size(); ++e) {
            std::uint64_t* mask = values + (gate_count + e) * kLaneWords;
            const EventThreshold& threshold = proposal.thresholds[e];
            if (threshold.certain) {
                std::fill_n(mask, kLaneWords, ~std::uint64_t{0});
                continue;
            }
            const std::uint64_t t = threshold.bits;
            if (t == 0) {
                std::fill_n(mask, kLaneWords, std::uint64_t{0});
                continue;
            }
            const int stop = std::countr_zero(t);
            std::uint64_t lt[kLaneWords] = {};
            std::uint64_t undecided[kLaneWords];
            std::fill_n(undecided, kLaneWords, ~std::uint64_t{0});
            for (int b = 63; b >= stop; --b) {
                const std::uint64_t stream =
                    static_cast<std::uint64_t>(e) * 64 + static_cast<std::uint64_t>(b);
                std::uint64_t open = 0;
                if ((t >> b) & 1) {  // a clear random bit decides X < t
                    for (std::size_t lane = 0; lane < kLaneWords; ++lane) {
                        const std::uint64_t r = core::counter_round2(round1[lane], stream);
                        lt[lane] |= undecided[lane] & ~r;
                        undecided[lane] &= r;
                        open |= undecided[lane];
                    }
                } else {  // a set random bit decides X > t
                    for (std::size_t lane = 0; lane < kLaneWords; ++lane) {
                        const std::uint64_t r = core::counter_round2(round1[lane], stream);
                        undecided[lane] &= ~r;
                        open |= undecided[lane];
                    }
                }
                if (open == 0) break;
            }
            std::copy_n(lt, kLaneWords, mask);  // ties (X == t) correctly stay clear
        }
    };

    // Bottom-up AND/OR word sweep over the lane batch, in gate index
    // order: every gate comes after its children.  An empty gate is
    // false for both kinds — the oracle's convention.
    const auto sweep_gates = [&](std::uint64_t* values) {
        for (std::uint32_t g = 0; g < gate_count; ++g) {
            std::uint64_t* out = values + static_cast<std::size_t>(g) * kLaneWords;
            const std::uint32_t begin = child_begin_[g];
            const std::uint32_t end = child_begin_[g + 1];
            if (begin == end) {
                std::fill_n(out, kLaneWords, std::uint64_t{0});
                continue;
            }
            std::uint64_t acc[kLaneWords];
            const std::uint64_t* first =
                values + static_cast<std::size_t>(child_slot_[begin]) * kLaneWords;
            std::copy_n(first, kLaneWords, acc);
            if (gate_is_and_[g] != 0) {
                for (std::uint32_t c = begin + 1; c < end; ++c) {
                    const std::uint64_t* child =
                        values + static_cast<std::size_t>(child_slot_[c]) * kLaneWords;
                    for (std::size_t lane = 0; lane < kLaneWords; ++lane) acc[lane] &= child[lane];
                }
            } else {
                for (std::uint32_t c = begin + 1; c < end; ++c) {
                    const std::uint64_t* child =
                        values + static_cast<std::size_t>(child_slot_[c]) * kLaneWords;
                    for (std::size_t lane = 0; lane < kLaneWords; ++lane) acc[lane] |= child[lane];
                }
            }
            std::copy_n(acc, kLaneWords, out);
        }
    };

    const auto run_granule = [&](std::uint64_t granule, std::uint64_t* values,
                                 double* weights) {
        GranulePartial partial;
        const std::uint64_t first_word = granule * kGranuleWords;
        for (std::size_t batch = 0; batch < kGranuleWords / kLaneWords; ++batch) {
            const std::uint64_t word0 = first_word + batch * kLaneWords;
            if (word0 >= total_words) break;
            sample_events(values, word0);
            sweep_gates(values);
            const std::uint64_t* top =
                values + static_cast<std::size_t>(top_slot_) * kLaneWords;

            if (proposal.is) {
                std::fill_n(weights, kLaneWords * 64, proposal.w0);
                for (const auto& [e, ratio] : proposal.ratios) {
                    const std::uint64_t* mask =
                        values + (gate_count + e) * kLaneWords;
                    for (std::size_t lane = 0; lane < kLaneWords; ++lane) {
                        std::uint64_t bits = mask[lane];
                        while (bits != 0) {
                            weights[lane * 64 +
                                    static_cast<std::size_t>(std::countr_zero(bits))] *= ratio;
                            bits &= bits - 1;
                        }
                    }
                }
            }
            for (std::size_t lane = 0; lane < kLaneWords; ++lane) {
                const std::uint64_t word = word0 + lane;
                if (word >= total_words) break;
                const unsigned rem = static_cast<unsigned>(options.trials % 64);
                const std::uint64_t valid = (word == total_words - 1 && rem != 0)
                                                ? (std::uint64_t{1} << rem) - 1
                                                : ~std::uint64_t{0};
                const std::uint64_t failed = top[lane] & valid;
                partial.failures += static_cast<std::uint64_t>(std::popcount(failed));
                if (!proposal.is) continue;
                const unsigned count = rem != 0 && word == total_words - 1 ? rem : 64u;
                // Branch-free: the failing sums take a trial's terms
                // through a bit mask, so a trial that does not fail adds
                // an exact +0.0, which leaves their bits as they are (the
                // sums start at +0.0 and never go negative).
                for (unsigned trial = 0; trial < count; ++trial) {
                    const double w = weights[lane * 64 + trial];
                    const double w2 = w * w;
                    const std::uint64_t keep = std::uint64_t{0} - ((failed >> trial) & 1);
                    const double wi = std::bit_cast<double>(std::bit_cast<std::uint64_t>(w) & keep);
                    const double w2i = std::bit_cast<double>(std::bit_cast<std::uint64_t>(w2) & keep);
                    partial.sum_w += w;
                    partial.sum_w2 += w2;
                    partial.sum_wi += wi;
                    partial.sum_w2i += w2i;
                    partial.max_wi = std::max(partial.max_wi, wi);
                }
            }
        }
        return partial;
    };

    // The granules run in rounds of kRoundGranules.  Each thread of a
    // round takes one contiguous run of its granules and sets up its
    // scratch once.  After the join, the round's partials are added to
    // the totals in granule index order, whichever thread produced them:
    // the same sequence of additions at every thread count.
    const unsigned threads = core::resolve_thread_count(options.threads);
    std::vector<GranulePartial> partials(std::min(granules, kRoundGranules));
    GranulePartial total;
    for (std::uint64_t first = 0; first < granules; first += kRoundGranules) {
        const std::uint64_t round = std::min(kRoundGranules, granules - first);
        const std::uint64_t blocks = std::min<std::uint64_t>(threads, round);
        core::fork_join(static_cast<std::size_t>(blocks), [&](std::size_t block) {
            std::vector<std::uint64_t> values(slots * kLaneWords);
            std::vector<double> weights(proposal.is ? kLaneWords * 64 : 0);
            const std::uint64_t begin = round * block / blocks;
            const std::uint64_t end = round * (block + 1) / blocks;
            for (std::uint64_t g = begin; g < end; ++g) {
                partials[g] = run_granule(first + g, values.data(), weights.data());
            }
        });
        for (std::uint64_t g = 0; g < round; ++g) {
            const GranulePartial& partial = partials[g];
            total.failures += partial.failures;
            total.sum_w += partial.sum_w;
            total.sum_w2 += partial.sum_w2;
            total.sum_wi += partial.sum_wi;
            total.sum_w2i += partial.sum_w2i;
            total.max_wi = std::max(total.max_wi, partial.max_wi);
        }
    }

    SimulationResult result;
    result.trials = options.trials;
    result.failures = total.failures;
    const double n = static_cast<double>(options.trials);
    if (proposal.is) {
        result.importance_sampled = true;
        result.estimate = total.sum_wi / n;
        double variance = std::max(0.0, total.sum_w2i / n - result.estimate * result.estimate);
        if (options.trials > 1) variance *= n / (n - 1.0);
        // With zero observed failures the granularity is unknown; fall
        // back to the worst-case weight bound w0 so the interval still
        // covers what one heaviest-possible failure would have moved it.
        fill_interval(result, std::sqrt(variance / n),
                      total.failures > 0 ? total.max_wi : proposal.w0);
        result.ess = total.sum_w2 > 0.0 ? (total.sum_w * total.sum_w) / total.sum_w2 : 0.0;
    } else {
        result.estimate = static_cast<double>(total.failures) / n;
        fill_interval(result, std::sqrt(result.estimate * (1.0 - result.estimate) / n), 1.0);
        result.ess = n;
    }
    return result;
}

}  // namespace asilkit::analysis
