#include "scenarios/synthetic.h"

#include <cmath>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenarios/builder.h"

namespace asilkit::scenarios {

ArchitectureModel synthetic_model(const SyntheticOptions& options) {
    ScenarioBuilder b("synthetic-" + std::to_string(options.seed));
    std::mt19937 rng(options.seed);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    const Asil level = options.level;

    const LocationId zone_a = b.loc("zone_a");
    const LocationId zone_b = b.loc("zone_b");
    const LocationId zone_c = b.loc("zone_c");
    const LocationId zones[] = {zone_a, zone_b, zone_c};
    auto pick_zone = [&]() { return zones[rng() % 3]; };

    // Sensors feed the first layer through explicit communication nodes.
    std::vector<NodeId> previous;
    for (std::size_t i = 0; i < options.sensors; ++i) {
        const LocationId at = pick_zone();
        const NodeId s = b.sensor(std::string("s").append(std::to_string(i)), level, at);
        const NodeId c = b.comm("sc" + std::to_string(i), level, at);
        b.link(s, c);
        previous.push_back(c);
    }

    for (std::size_t layer = 0; layer < options.layers; ++layer) {
        std::vector<NodeId> current;
        for (std::size_t i = 0; i < options.width; ++i) {
            const LocationId at = pick_zone();
            const std::string tag = std::to_string(layer) + "_" + std::to_string(i);
            const NodeId f = b.func("f" + tag, level, at);
            // Primary input keeps the graph connected; optional extras add
            // fan-in.
            b.link(previous[rng() % previous.size()], f);
            if (previous.size() > 1 && coin(rng) < options.extra_edge_probability) {
                b.link(previous[rng() % previous.size()], f);
            }
            const NodeId c = b.comm("c" + tag, level, at);
            b.link(f, c);
            current.push_back(c);
        }
        previous = std::move(current);
    }

    for (std::size_t i = 0; i < options.actuators; ++i) {
        const NodeId a = b.actuator(std::string("a").append(std::to_string(i)), level, pick_zone());
        b.link(previous[rng() % previous.size()], a);
        // Every layer output must reach some actuator to avoid dangling
        // chains: the first actuator absorbs the rest.
        if (i == 0) {
            for (NodeId c : previous) {
                if (!b.model().app().find_edge(c, a).valid()) b.link(c, a);
            }
        }
    }
    return b.take();
}

ftree::FaultTree synthetic_fault_tree(const SyntheticTreeOptions& options) {
    if (options.events == 0) throw std::invalid_argument("synthetic_fault_tree: events == 0");
    if (options.max_arity < 2) throw std::invalid_argument("synthetic_fault_tree: max_arity < 2");
    std::mt19937 rng(options.seed);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::uniform_real_distribution<double> log_lambda(std::log(options.lambda_low),
                                                      std::log(options.lambda_high));

    ftree::FaultTree ft;
    std::vector<ftree::FtRef> pool;
    std::vector<std::uint8_t> referenced;
    pool.reserve(options.events + options.gates);
    referenced.reserve(options.events + options.gates);
    for (std::size_t i = 0; i < options.events; ++i) {
        pool.push_back(ft.add_basic_event(std::string("e").append(std::to_string(i)),
                                          std::exp(log_lambda(rng))));
        referenced.push_back(0);
    }
    for (std::size_t i = 0; i < options.gates; ++i) {
        const auto kind =
            coin(rng) < options.and_fraction ? ftree::GateKind::And : ftree::GateKind::Or;
        const std::size_t arity = 2 + rng() % (options.max_arity - 1);
        std::vector<ftree::FtRef> children;
        children.reserve(arity);
        for (std::size_t c = 0; c < arity; ++c) {
            const std::size_t pick = rng() % pool.size();
            referenced[pick] = 1;
            children.push_back(pool[pick]);
        }
        pool.push_back(
            ft.add_gate(std::string("g").append(std::to_string(i)), kind, std::move(children)));
        referenced.push_back(0);
    }
    // Every dangling root feeds the top OR, so no generated node is dead
    // weight in a sweep — the advertised node count is all working set.
    std::vector<ftree::FtRef> roots;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        if (referenced[i] == 0) roots.push_back(pool[i]);
    }
    ft.set_top(ft.add_gate("top", ftree::GateKind::Or, std::move(roots)));
    return ft;
}

}  // namespace asilkit::scenarios
