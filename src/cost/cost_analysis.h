// Architecture cost calculation (paper Section VI).
//
// The cost of an architecture is the sum of the metric cost of its
// resources.  Only resources that actually implement application nodes
// count (MapG-used): an unused spare costs nothing, so removing a node
// together with its dedicated hardware — as Connect()/Reduce() do —
// lowers the total.
#pragma once

#include <string>
#include <vector>

#include "cost/cost_metric.h"
#include "model/architecture.h"

namespace asilkit::cost {

struct CostBreakdownEntry {
    ResourceId resource;
    std::string name;
    ResourceKind kind = ResourceKind::Functional;
    Asil asil = Asil::QM;
    double cost = 0.0;
};

struct CostReport {
    double total = 0.0;
    std::vector<CostBreakdownEntry> breakdown;  ///< descending by cost
    /// Per-kind subtotal, indexed by static_cast<size_t>(ResourceKind).
    std::array<double, kResourceKindCount> by_kind{};
};

[[nodiscard]] double total_cost(const ArchitectureModel& m, const CostMetric& metric);

[[nodiscard]] CostReport cost_report(const ArchitectureModel& m, const CostMetric& metric);

/// Total cost after merging resource `from` into `into` (the merge raises
/// `into` to the cheapest feasible ASIL — asil_max of the pair, per Eq. 3
/// — and removes `from`), given the pre-merge `current_total` under the
/// same metric.  This mirrors the bookkeeping of explore::search_mapping's
/// apply_merge exactly, so the value is both an admissible lower bound
/// for pruning and the exact post-merge total.
[[nodiscard]] double merged_total_cost(double current_total, const CostMetric& metric,
                                       const Resource& into, const Resource& from);

}  // namespace asilkit::cost
