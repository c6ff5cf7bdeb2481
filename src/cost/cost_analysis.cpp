#include "cost/cost_analysis.h"

#include <algorithm>

namespace asilkit::cost {

double total_cost(const ArchitectureModel& m, const CostMetric& metric) {
    double total = 0.0;
    for (ResourceId r : m.used_resources()) {
        total += metric.resource_cost(m.resources().node(r));
    }
    return total;
}

double merged_total_cost(double current_total, const CostMetric& metric, const Resource& into,
                         const Resource& from) {
    Resource merged = into;
    merged.asil = asil_max(into.asil, from.asil);
    return current_total - metric.resource_cost(into) - metric.resource_cost(from) +
           metric.resource_cost(merged);
}

CostReport cost_report(const ArchitectureModel& m, const CostMetric& metric) {
    CostReport report;
    for (ResourceId r : m.used_resources()) {
        const Resource& res = m.resources().node(r);
        const double c = metric.resource_cost(res);
        report.total += c;
        report.by_kind[static_cast<std::size_t>(res.kind)] += c;
        report.breakdown.push_back(CostBreakdownEntry{r, res.name, res.kind, res.asil, c});
    }
    std::sort(report.breakdown.begin(), report.breakdown.end(),
              [](const CostBreakdownEntry& a, const CostBreakdownEntry& b) {
                  if (a.cost != b.cost) return a.cost > b.cost;
                  return a.name < b.name;
              });
    return report;
}

}  // namespace asilkit::cost
