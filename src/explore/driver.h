// The exploration driver: the paper's experiment loop (Section IX).
//
// Starting from an "ideal" architecture (every node at its required ASIL
// on dedicated ASIL-ready hardware), the driver replays the EcoTwin
// design flow:
//   1. Expand() each selected node (points A ... B of Fig. 12),
//   2. Connect() + Reduce() until no pair remains (... point C),
//   3. in-branch mapping optimisation (point D),
// measuring cost and failure probability after every step.  The RND
// strategy draws from a seeded generator owned by the driver, so a curve
// is a pure function of (model, node list, options).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/probability.h"
#include "core/decomposition.h"
#include "cost/cost_metric.h"
#include "engine/engine.h"
#include "explore/pareto.h"
#include "explore/tradeoff.h"
#include "model/architecture.h"

namespace asilkit::explore {

struct ExplorationOptions {
    DecompositionStrategy strategy = DecompositionStrategy::BB;
    cost::CostMetric metric = cost::CostMetric::exponential_metric1();
    analysis::ProbabilityOptions probability{};
    unsigned rng_seed = 42;  ///< consumed only by the RND strategy
    bool run_connect_reduce = true;
    bool run_mapping_optimization = true;
    /// Anytime front streaming: every measured point is offered to a
    /// best-front-so-far; when it changes, the point and the updated
    /// front size are reported here (synchronously, in flow order).
    std::function<void(const TradeoffPoint& point, std::size_t front_size)> on_front_update;
    /// Optional caller-owned tracker to accumulate one front across
    /// several runs (a whole strategy x metric sweep); defaults to a
    /// tracker local to the run, whose front lands in
    /// ExplorationResult::front either way.
    ParetoTracker* front_tracker = nullptr;
};

struct ExplorationResult {
    TradeoffCurve curve;
    ArchitectureModel final_model;
    std::size_t expansions = 0;
    std::size_t connects = 0;
    std::size_t reductions = 0;
    std::size_t mapping_groups_merged = 0;
    /// Full engine counters: analyze calls plus the tree hit/miss split.
    engine::EvalEngine::Stats engine_stats{};
    /// Best front so far over the measured points (ascending cost).
    /// With options.front_tracker set, this is that tracker's front —
    /// including points accumulated by earlier runs feeding it.
    std::vector<TradeoffPoint> front;
    /// Front changes streamed during this run.
    std::uint64_t front_updates = 0;
};

/// Runs the flow on a copy of `model`, expanding the nodes named in
/// `nodes_to_expand` (names, not ids: ids do not survive the expansions).
/// Unknown names throw TransformError.
[[nodiscard]] ExplorationResult run_exploration(const ArchitectureModel& model,
                                                const std::vector<std::string>& nodes_to_expand,
                                                const ExplorationOptions& options = {});

/// Same, but on a caller-owned engine: a sweep running the flow many
/// times (strategy x metric configurations, rate studies) shares the
/// engine's memos across its branches —
/// identical intermediate states measured by different branches stop
/// re-evaluating.  The result's engine counters cover the engine's
/// whole lifetime, not just this call.
[[nodiscard]] ExplorationResult run_exploration(const ArchitectureModel& model,
                                                const std::vector<std::string>& nodes_to_expand,
                                                const ExplorationOptions& options,
                                                engine::EvalEngine& engine);

}  // namespace asilkit::explore
