// Cost vs failure-probability trade-off recording (paper Figs. 1 and 12).
//
// Every step of a transformation sequence is snapshotted as one point of
// a curve: total cost under the configured metric, system failure
// probability, and the structural measures the paper discusses alongside
// (model size, fault-tree size, path counts).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/probability.h"
#include "cost/cost_metric.h"
#include "engine/engine.h"
#include "model/architecture.h"

namespace asilkit::explore {

struct TradeoffPoint {
    std::string label;  ///< e.g. "initial", "expand(world_model)", "connect#3"
    double cost = 0.0;
    double failure_probability = 0.0;
    std::size_t app_nodes = 0;
    std::size_t resources = 0;
    std::size_t ft_dag_nodes = 0;
    std::uint64_t ft_paths = 0;
    std::size_t bdd_nodes = 0;
};

std::ostream& operator<<(std::ostream& os, const TradeoffPoint& p);

struct TradeoffCurve {
    std::string name;
    std::vector<TradeoffPoint> points;

    [[nodiscard]] const TradeoffPoint& front() const { return points.front(); }
    [[nodiscard]] const TradeoffPoint& back() const { return points.back(); }
};

/// The point for one state of `m`: its `cost` under the caller's
/// metric, and the failure probability and tree/BDD sizes of `prob`,
/// the evaluation that scored this state.
[[nodiscard]] TradeoffPoint make_point(const ArchitectureModel& m, std::string label, double cost,
                                       const analysis::ProbabilityResult& prob);

/// Measures one point on the current model state through a caller-owned
/// engine, so repeated measurements of structurally identical states
/// are served from the engine's memos.
[[nodiscard]] TradeoffPoint measure_point(const ArchitectureModel& m, std::string label,
                                          const cost::CostMetric& metric,
                                          const analysis::ProbabilityOptions& prob_options,
                                          engine::EvalEngine& engine);

}  // namespace asilkit::explore
