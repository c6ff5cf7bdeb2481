// Minimal cut sets (MOCUS-style, order-limited).
//
// A cut set is a set of basic events whose joint occurrence causes the top
// event; a minimal cut set has no proper subset with that property.  The
// paper's CCF discussion is naturally phrased in cut-set terms: a valid
// k-branch decomposition must not leave any cut set of order < k inside
// the redundant region.  This module is an extension beyond the paper's
// text used by the ccf_audit example and the failure-injection tests.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ftree/fault_tree.h"

namespace asilkit::analysis {

/// Sorted basic-event indices.
using CutSet = std::vector<std::uint32_t>;

struct CutSetOptions {
    /// Discard cut sets with more than this many events (order-limit);
    /// keeps the enumeration polynomial in practice.  At least 1.
    std::size_t max_order = 4;
    /// Hard cap on the rows of order 2 and up that one gate builds
    /// before minimising them: an OR gate's rows taken from its
    /// children, or one AND product's unions of the members its two
    /// sides do not share, plus the rows they do; exceeded ->
    /// AnalysisError.
    std::size_t max_sets = 200000;
};

/// Minimal cut sets of order <= max_order, lexicographically sorted.
/// Throws AnalysisError when max_order is 0 or an intermediate family
/// exceeds max_sets.
[[nodiscard]] std::vector<CutSet> minimal_cut_sets(const ftree::FaultTree& ft,
                                                   const CutSetOptions& options = {});

/// Rare-event upper bound on the top probability from the cut sets:
/// sum over cut sets of the product of event probabilities.
[[nodiscard]] double cut_set_probability_bound(const ftree::FaultTree& ft,
                                               const std::vector<CutSet>& cut_sets,
                                               double mission_hours = 1.0);

/// Order (cardinality) of the smallest cut set; 0 when there are none.
[[nodiscard]] std::size_t minimal_cut_order(const std::vector<CutSet>& cut_sets) noexcept;

/// Admissible (never over-estimating) lower bound on the top-event
/// probability from a family of cut sets, with support for cheap
/// re-bounding after substituting a few cuts.
///
/// The bound is the second-order Bonferroni inequality combined with the
/// best single cut:
///
///     P(top) >= P(union of cuts) >= max( max_i P(C_i),  S1 - S2 )
///
/// where S1 = sum_i P(C_i) and S2 = sum_{i<j} P(C_i and C_j); under event
/// independence P(C_i and C_j) is the probability product over the merged
/// event set.  Both inequalities hold for ANY finite list of cuts of a
/// monotone structure function — duplicates and non-minimal cuts only
/// weaken the bound, never break it — which is exactly what makes the
/// substitution API sound for conservatively transformed cut lists.
///
/// Under event independence a pair of cuts sharing no events satisfies
/// P(C_i and C_j) = P(C_i) * P(C_j), so S2 splits into a closed form
/// over all pairs plus corrections for the (sparse) event-sharing pairs.
/// Those pairs come from a bit-row index: one row of ceil(k/64) words per
/// event, bit i set when cut i contains the event, so the cuts sharing an
/// event with a set of events are the OR of their rows, walked in
/// ascending order.  Construction is therefore
/// O(k * ceil(k/64) * |C| + sharing pairs), |C| the largest cut's order,
/// and the index takes events * ceil(k/64) words: sized for the families
/// of a few thousand cuts the mapping search bounds.  rebound() is
/// O(|affected|^2 + |replacements| * (|C| * ceil(k/64) + sharing)) instead
/// of O(|affected| * k).
class CutSetLowerBound {
public:
    /// `event_probability[e]` is the failure probability of basic event e
    /// over the mission; `cuts` index into it.  Cut sets must be sorted.
    /// Throws AnalysisError when a cut names an event out of range.
    CutSetLowerBound(std::vector<CutSet> cuts, std::vector<double> event_probability);

    [[nodiscard]] std::size_t cut_count() const noexcept { return cuts_.size(); }
    [[nodiscard]] const std::vector<CutSet>& cuts() const& noexcept { return cuts_; }
    /// Moves the family out of a bound that is about to be replaced.
    [[nodiscard]] std::vector<CutSet> cuts() && noexcept { return std::move(cuts_); }
    [[nodiscard]] double event_probability(std::uint32_t e) const { return probs_.at(e); }

    /// Lower bound with no substitution applied.
    [[nodiscard]] double base_bound() const noexcept { return base_bound_; }

    /// Indices (ascending, unique) of the cuts containing at least one of
    /// `events`.  Throws AnalysisError when an event is out of range.
    [[nodiscard]] std::vector<std::uint32_t> cuts_containing(
        const std::vector<std::uint32_t>& events) const;

    /// A conservative rewrite of the cut list: the cuts at `affected`
    /// are dropped and `replacements` (cuts of the transformed structure
    /// function, sorted event lists) take their place; `overrides`
    /// re-prices individual events.  Precondition: every cut containing
    /// an overridden event is listed in `affected` (its re-priced form,
    /// if still a cut, belongs in `replacements`).
    struct Substitution {
        std::vector<std::uint32_t> affected;  ///< sorted, unique cut indices
        std::vector<CutSet> replacements;
        std::vector<std::pair<std::uint32_t, double>> overrides;  ///< event -> new probability
    };

    /// Lower bound on P(union) of the substituted cut list.  Throws
    /// AnalysisError when `affected` names a cut index out of range, or a
    /// replacement or override an event out of range.
    [[nodiscard]] double rebound(const Substitution& s) const;

private:
    void check_event(std::uint32_t e) const;
    /// Event e's row: words_ words, bit i set when cut i contains e.
    [[nodiscard]] const std::uint64_t* row(std::uint32_t e) const noexcept {
        return rows_.data() + static_cast<std::size_t>(e) * words_;
    }
    [[nodiscard]] double priced(std::uint32_t e,
                                const std::vector<std::pair<std::uint32_t, double>>& ov) const;
    [[nodiscard]] double set_probability(
        const CutSet& cs, const std::vector<std::pair<std::uint32_t, double>>& ov) const;
    [[nodiscard]] double pair_probability(
        const CutSet& a, const CutSet& b,
        const std::vector<std::pair<std::uint32_t, double>>& ov) const;

    std::vector<CutSet> cuts_;
    std::vector<double> probs_;
    std::vector<double> cut_prob_;               ///< P(C_i)
    std::vector<double> pair_sum_;               ///< T_i = sum_{j != i} P(C_i and C_j)
    std::size_t words_ = 0;                      ///< ceil(k / 64): words per row
    std::vector<std::uint64_t> rows_;            ///< event -> bit row over the cuts
    std::vector<std::uint32_t> by_prob_desc_;    ///< cut indices, P(C_i) descending
    double s1_ = 0.0;
    double s2_ = 0.0;
    double base_bound_ = 0.0;
};

/// Basic-event probabilities for a whole fault tree over `mission_hours`,
/// indexed by basic-event index — the natural `event_probability` input
/// for CutSetLowerBound.
[[nodiscard]] std::vector<double> basic_event_probabilities(const ftree::FaultTree& ft,
                                                            double mission_hours = 1.0);

}  // namespace asilkit::analysis
