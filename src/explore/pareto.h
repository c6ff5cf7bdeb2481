// Pareto-front extraction over trade-off points (lower cost AND lower
// failure probability are both better).  Used to compare curve families
// (Fig. 1: which decomposition/metric combinations dominate) and, via
// ParetoTracker, to maintain the best-front-so-far of an anytime search.
#pragma once

#include <cstdint>
#include <vector>

#include "core/sync.h"
#include "explore/tradeoff.h"

namespace asilkit::explore {

/// True iff `a` dominates `b` (no worse in both objectives, strictly
/// better in at least one).
[[nodiscard]] bool dominates(const TradeoffPoint& a, const TradeoffPoint& b) noexcept;

/// The non-dominated subset, sorted by ascending cost (ties by ascending
/// failure probability), with exact (cost, probability) duplicates
/// collapsed to their first occurrence.  Sort-then-sweep, O(n log n):
/// every dominator of a point sorts strictly before it under
/// (cost, probability) lexicographic order, so one pass keeping the
/// running minimum probability finds exactly the non-dominated points.
[[nodiscard]] std::vector<TradeoffPoint> pareto_front(const std::vector<TradeoffPoint>& points);

/// Incremental Pareto front: the best-front-so-far of an anytime search.
///
/// The front is stored as the same staircase pareto_front() returns —
/// ascending cost, strictly descending failure probability, no
/// duplicates — so insert() is a binary search plus a contiguous erase
/// of newly dominated points: O(log n) to locate, O(k) to evict the k
/// points the new one dominates (each point is evicted at most once over
/// the tracker's lifetime, so a whole run is O(n log n) like the batch
/// sweep).  Feeding every point of a set through insert() yields exactly
/// pareto_front() of that set (asserted by tests/test_pareto.cpp).
///
/// Thread-safe: a tracker may be shared across concurrent searches via
/// MappingSearchOptions::front_tracker, so the staircase and its
/// counters live behind a mutex and front() returns a consistent snapshot rather than a
/// reference into mutable state.  Within one search, inserts happen on
/// the calling thread in deterministic order, so the lock never changes
/// results — it only makes cross-search sharing legal.
class ParetoTracker {
public:
    /// Offers a point.  Returns true iff the front changed (the point is
    /// not dominated by — and not an exact (cost, probability) duplicate
    /// of — a point already on the front).  Dominated offers are dropped.
    bool insert(TradeoffPoint p);

    /// Snapshot of the current front, ascending cost.
    [[nodiscard]] std::vector<TradeoffPoint> front() const;

    /// Number of points currently on the front.
    [[nodiscard]] std::size_t front_size() const;

    /// Number of insert() calls that changed the front.
    [[nodiscard]] std::uint64_t updates() const;

    /// Number of insert() calls observed (changed or not).
    [[nodiscard]] std::uint64_t offers() const;

    void clear();

private:
    mutable core::Mutex mu_;
    std::vector<TradeoffPoint> front_ GUARDED_BY(mu_);
    std::uint64_t updates_ GUARDED_BY(mu_) = 0;
    std::uint64_t offers_ GUARDED_BY(mu_) = 0;
};

}  // namespace asilkit::explore
