#include "explore/advisor.h"

#include <algorithm>
#include <ostream>

#include "cost/cost_analysis.h"
#include "transform/expand.h"

namespace asilkit::explore {

std::ostream& operator<<(std::ostream& os, const ExpansionAdvice& a) {
    return os << "expand(" << a.node << "): dP=" << a.delta_probability
              << ", dCost=" << a.delta_cost << (a.recommended ? " [recommended]" : "");
}

std::vector<ExpansionAdvice> advise_expansions(const ArchitectureModel& m,
                                               const AdvisorOptions& options) {
    const double p_before =
        analysis::analyze_failure_probability(m, options.probability).failure_probability;
    const double c_before = cost::total_cost(m, options.metric);

    std::vector<ExpansionAdvice> advice;
    for (NodeId n : m.app().node_ids()) {
        const AppNode& node = m.app().node(n);
        if (node.kind != NodeKind::Functional && node.kind != NodeKind::Communication) continue;
        if (node.asil.level == Asil::QM) continue;
        if (m.app().in_degree(n) < 1 || m.app().out_degree(n) < 1) continue;

        ArchitectureModel trial = m;
        transform::ExpandOptions expand_options;
        expand_options.strategy = options.strategy;
        expand_options.branches = options.branches;
        transform::expand(trial, n, expand_options);

        ExpansionAdvice entry;
        entry.node = node.name;
        entry.kind = node.kind;
        entry.delta_probability =
            analysis::analyze_failure_probability(trial, options.probability).failure_probability -
            p_before;
        entry.delta_cost = cost::total_cost(trial, options.metric) - c_before;
        const bool safer = entry.delta_probability < 0.0;
        const bool cheaper_at_no_risk = entry.delta_cost < 0.0 && entry.delta_probability <= 0.0;
        entry.recommended = safer || cheaper_at_no_risk;
        advice.push_back(std::move(entry));
    }
    std::sort(advice.begin(), advice.end(), [](const ExpansionAdvice& a, const ExpansionAdvice& b) {
        if (a.delta_probability != b.delta_probability) {
            return a.delta_probability < b.delta_probability;
        }
        return a.delta_cost < b.delta_cost;
    });
    return advice;
}

}  // namespace asilkit::explore
