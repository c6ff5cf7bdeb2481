#include "explore/tradeoff.h"

#include <ostream>

#include "cost/cost_analysis.h"

namespace asilkit::explore {

std::ostream& operator<<(std::ostream& os, const TradeoffPoint& p) {
    return os << p.label << ": cost=" << p.cost << ", P(fail)=" << p.failure_probability
              << ", app_nodes=" << p.app_nodes << ", resources=" << p.resources
              << ", ft_nodes=" << p.ft_dag_nodes << ", ft_paths=" << p.ft_paths
              << ", bdd_nodes=" << p.bdd_nodes;
}

TradeoffPoint make_point(const ArchitectureModel& m, std::string label, double cost,
                         const analysis::ProbabilityResult& prob) {
    TradeoffPoint point;
    point.label = std::move(label);
    point.cost = cost;
    point.failure_probability = prob.failure_probability;
    point.app_nodes = m.app().node_count();
    point.resources = m.resources().node_count();
    point.ft_dag_nodes = prob.ft_stats.dag_nodes;
    point.ft_paths = prob.ft_stats.paths;
    point.bdd_nodes = prob.bdd_nodes;
    return point;
}

TradeoffPoint measure_point(const ArchitectureModel& m, std::string label,
                            const cost::CostMetric& metric,
                            const analysis::ProbabilityOptions& prob_options,
                            engine::EvalEngine& engine) {
    return make_point(m, std::move(label), cost::total_cost(m, metric),
                      engine.analyze(m, prob_options));
}

}  // namespace asilkit::explore
