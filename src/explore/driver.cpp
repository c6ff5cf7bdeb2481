#include "explore/driver.h"

#include <random>

#include "core/error.h"
#include "explore/mapping_opt.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transform/connect.h"
#include "transform/expand.h"
#include "transform/reduce.h"

namespace asilkit::explore {

ExplorationResult run_exploration(const ArchitectureModel& model,
                                  const std::vector<std::string>& nodes_to_expand,
                                  const ExplorationOptions& options) {
    engine::EvalEngine engine;
    return run_exploration(model, nodes_to_expand, options, engine);
}

ExplorationResult run_exploration(const ArchitectureModel& model,
                                  const std::vector<std::string>& nodes_to_expand,
                                  const ExplorationOptions& options,
                                  engine::EvalEngine& engine) {
    const obs::ObsSpan span("run_exploration", "explore");
    static obs::Counter& obs_front_updates = obs::Registry::global().counter("explore.front_updates");
    ExplorationResult result;
    result.final_model = model;  // work on a copy
    ArchitectureModel& m = result.final_model;
    result.curve.name = std::string(to_string(options.strategy)) + "/" + options.metric.name();

    std::mt19937 rng(options.rng_seed);
    std::uniform_real_distribution<double> uniform(0.0, 1.0);

    ParetoTracker local_tracker;
    ParetoTracker& tracker = options.front_tracker ? *options.front_tracker : local_tracker;
    auto record = [&](std::string label) {
        result.curve.points.push_back(
            measure_point(m, std::move(label), options.metric, options.probability, engine));
        const TradeoffPoint& point = result.curve.points.back();
        if (tracker.insert(point)) {
            ++result.front_updates;
            obs_front_updates.inc();
            if (options.on_front_update) options.on_front_update(point, tracker.front_size());
        }
    };

    record("initial");

    // Phase 1: Expand (A -> B).
    {
        const obs::ObsSpan expand_span("expand", "explore", "nodes",
                                       static_cast<double>(nodes_to_expand.size()));
        for (const std::string& name : nodes_to_expand) {
            const NodeId n = m.find_app_node(name);
            if (!n.valid()) {
                throw TransformError("run_exploration: no application node named '" + name +
                                     "'");
            }
            transform::ExpandOptions expand_options;
            expand_options.strategy = options.strategy;
            expand_options.splitter_merger_asil = options.splitter_merger_asil;
            expand_options.rng_draws = {uniform(rng), uniform(rng)};
            transform::expand(m, n, expand_options);
            ++result.expansions;
            record("expand(" + name + ")");
        }
    }

    // Phase 2: Connect + Reduce (B -> C).  Reducing first matters: two
    // adjacent expanded blocks leave a c_post -> c_pre communication pair
    // between them, and Connect() requires a single middle node.
    if (options.run_connect_reduce) {
        const obs::ObsSpan connect_span("connect_reduce", "explore");
        result.reductions += transform::reduce_all(m);
        for (;;) {
            const std::vector<NodeId> connectable = transform::find_connectable(m);
            if (connectable.empty()) break;
            transform::connect(m, connectable.front());
            ++result.connects;
            result.reductions += transform::reduce_all(m);
            if (options.record_each_connect) {
                record("connect#" + std::to_string(result.connects));
            }
        }
        result.reductions += transform::reduce_all(m);
        if (!options.record_each_connect || result.connects == 0) {
            record("connected+reduced");
        }
    }

    // Phase 3: mapping optimisation (C -> D).
    if (options.run_mapping_optimization) {
        const obs::ObsSpan mapping_span("mapping_optimize", "explore");
        MappingOptimizeOptions mapping_options;
        mapping_options.include_non_branch_nodes = options.trunk_consolidation;
        const MappingOptimizeResult opt = optimize_mapping(m, mapping_options);
        result.mapping_groups_merged = opt.groups_merged;
        record("mapping-optimized");
    }

    result.front = tracker.front();
    result.engine_stats = engine.stats();
    return result;
}

}  // namespace asilkit::explore
