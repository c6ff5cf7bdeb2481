#include "transform/expand.h"

#include <algorithm>
#include <string>

#include "core/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace asilkit::transform {
namespace {

struct Neighbour {
    NodeId node;
    Channel channel;
};

/// A dedicated resource + placement for a freshly created node; the FSR
/// of the expanded node is carried onto every node of the new block so
/// requirement traceability survives the transformation.
NodeId add_node_at(ArchitectureModel& m, AppNode node, LocationId loc, const std::string& fsr) {
    node.fsr = fsr;
    return m.add_node_with_dedicated_resource(std::move(node), loc);
}

LocationId ensure_location(ArchitectureModel& m, LocationId requested, const std::string& name) {
    if (requested.valid()) return requested;
    return m.add_location(Location{name, kDefaultLocationLambda, {}});
}

}  // namespace

std::vector<Asil> branch_levels(Asil parent, DecompositionStrategy strategy,
                                std::size_t branches, std::span<const double> rng_draws) {
    if (branches < 2) {
        throw TransformError("branch_levels: a redundant block needs >= 2 branches");
    }
    auto draw_at = [&](std::size_t i) {
        return i < rng_draws.size() ? rng_draws[i] : 0.0;
    };
    // Repeated two-way splitting of the strongest branch so far.  The
    // strongest branch is the one whose further decomposition reduces the
    // highest remaining requirement; QM branches cannot split further.
    std::vector<Asil> levels;
    const DecompositionPattern first = select_pattern(parent, strategy, draw_at(0));
    levels.push_back(first.left);
    levels.push_back(first.right);
    std::size_t split_index = 1;
    while (levels.size() < branches) {
        std::sort(levels.begin(), levels.end(),
                  [](Asil a, Asil b) { return asil_value(a) > asil_value(b); });
        Asil& strongest = levels.front();
        if (strongest == Asil::QM) {
            throw TransformError("branch_levels: cannot split further (all branches are QM)");
        }
        const DecompositionPattern p =
            select_pattern(strongest, strategy, draw_at(split_index++));
        strongest = p.left;
        levels.push_back(p.right);
    }
    std::sort(levels.begin(), levels.end(),
              [](Asil a, Asil b) { return asil_value(a) > asil_value(b); });
    return levels;
}

ExpandResult expand(ArchitectureModel& m, NodeId node, const ExpandOptions& options) {
    static obs::Counter& ops = obs::Registry::global().counter("transform.expand.ops");
    ops.inc();
    const obs::ObsSpan span("expand", "transform");
    const AppNode original = m.app().node(node);  // copy: the node is erased below
    if (original.kind != NodeKind::Functional && original.kind != NodeKind::Communication) {
        throw TransformError("Expand(" + original.name + "): only functional and communication "
                             "nodes can be expanded, not " + std::string(to_string(original.kind)));
    }
    if (m.app().in_degree(node) < 1 || m.app().out_degree(node) < 1) {
        throw TransformError("Expand(" + original.name + "): node needs >=1 input and >=1 output");
    }
    if (original.asil.level == Asil::QM) {
        throw TransformError("Expand(" + original.name + "): a QM requirement has nothing to decompose");
    }
    const std::size_t branches = options.branches;
    if (branches < 2) {
        throw TransformError("Expand(" + original.name + "): needs >= 2 branches");
    }
    if (!options.branch_locations.empty() && options.branch_locations.size() != branches) {
        throw TransformError("Expand(" + original.name +
                             "): branch_locations must be empty or match the branch count");
    }

    ExpandResult result;
    result.branch_levels =
        branch_levels(original.asil.level, options.strategy, branches, options.rng_draws);
    result.pattern = select_pattern(original.asil.level, options.strategy,
                                    options.rng_draws.empty() ? 0.0 : options.rng_draws[0]);
    const Asil parent = original.asil.level;

    // Capture the neighbourhood before erasing the node.
    std::vector<Neighbour> inputs;
    for (ChannelId e : m.app().in_edges(node)) {
        inputs.push_back(Neighbour{m.app().edge(e).source, m.app().edge(e).data});
    }
    std::vector<Neighbour> outputs;
    for (ChannelId e : m.app().out_edges(node)) {
        outputs.push_back(Neighbour{m.app().edge(e).sink, m.app().edge(e).data});
    }

    // Placement: the new splitters and mergers go to the expanded node's
    // first location, or to a fresh one when it has none.
    const auto locs = m.node_locations(node);
    const LocationId management_loc =
        locs.empty() ? ensure_location(m, LocationId{}, "loc_" + original.name + "_mgmt")
                     : locs.front();
    std::vector<LocationId> branch_loc(branches);
    for (std::size_t b = 0; b < branches; ++b) {
        branch_loc[b] = options.branch_locations.empty()
                            ? ensure_location(m, LocationId{},
                                              "loc_" + original.name + "_b" + std::to_string(b + 1))
                            : options.branch_locations[b];
    }

    const std::size_t nodes_before = m.app().node_count();
    m.erase_app_node(node, /*drop_dedicated_resources=*/true);

    const AsilTag management_tag{parent, parent};

    // Splitters: one per original input edge.
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const std::string suffix =
            inputs.size() > 1 ? std::string("_").append(std::to_string(i + 1)) : "";
        if (original.kind == NodeKind::Communication) {
            // New communication node between the producer and the splitter.
            const NodeId pre = add_node_at(
                m, AppNode{"c_pre_" + original.name + suffix, NodeKind::Communication, management_tag, {}},
                management_loc, original.fsr);
            m.connect_app(inputs[i].node, pre, inputs[i].channel);
            const NodeId s = add_node_at(
                m, AppNode{"split_" + original.name + suffix, NodeKind::Splitter, management_tag, {}},
                management_loc, original.fsr);
            m.connect_app(pre, s);
            result.splitters.push_back(s);
        } else {
            const NodeId s = add_node_at(
                m, AppNode{"split_" + original.name + suffix, NodeKind::Splitter, management_tag, {}},
                management_loc, original.fsr);
            m.connect_app(inputs[i].node, s, inputs[i].channel);
            result.splitters.push_back(s);
        }
    }

    // Mergers: one per original output edge.
    for (std::size_t j = 0; j < outputs.size(); ++j) {
        const std::string suffix =
            outputs.size() > 1 ? std::string("_").append(std::to_string(j + 1)) : "";
        const NodeId mg = add_node_at(
            m, AppNode{"merge_" + original.name + suffix, NodeKind::Merger, management_tag, {}},
            management_loc, original.fsr);
        if (original.kind == NodeKind::Communication) {
            const NodeId post = add_node_at(
                m,
                AppNode{"c_post_" + original.name + suffix, NodeKind::Communication, management_tag, {}},
                management_loc, original.fsr);
            m.connect_app(mg, post);
            m.connect_app(post, outputs[j].node, outputs[j].channel);
        } else {
            m.connect_app(mg, outputs[j].node, outputs[j].channel);
        }
        result.mergers.push_back(mg);
    }

    // Branches.
    for (std::size_t b = 0; b < branches; ++b) {
        const AsilTag branch_tag{result.branch_levels[b], parent};
        const std::string bsuf = std::string("_").append(std::to_string(b + 1));
        std::vector<NodeId> branch_nodes;

        if (original.kind == NodeKind::Communication) {
            // One communication node per branch, fed by every splitter and
            // feeding every merger.
            const NodeId cb = add_node_at(
                m, AppNode{original.name + bsuf, NodeKind::Communication, branch_tag, {}}, branch_loc[b], original.fsr);
            branch_nodes.push_back(cb);
            result.replicas.push_back(cb);
            for (NodeId s : result.splitters) m.connect_app(s, cb);
            for (NodeId mg : result.mergers) m.connect_app(cb, mg);
        } else {
            const NodeId replica = add_node_at(
                m, AppNode{original.name + bsuf, NodeKind::Functional, branch_tag, {}}, branch_loc[b], original.fsr);
            result.replicas.push_back(replica);
            for (std::size_t i = 0; i < result.splitters.size(); ++i) {
                const std::string isuf =
                    result.splitters.size() > 1 ? std::string("_").append(std::to_string(i + 1)) : "";
                const NodeId cin = add_node_at(
                    m,
                    AppNode{"c_in_" + original.name + bsuf + isuf, NodeKind::Communication,
                            branch_tag, {}},
                    branch_loc[b], original.fsr);
                m.connect_app(result.splitters[i], cin);
                m.connect_app(cin, replica);
                branch_nodes.push_back(cin);
            }
            branch_nodes.push_back(replica);
            for (std::size_t j = 0; j < result.mergers.size(); ++j) {
                const std::string osuf =
                    result.mergers.size() > 1 ? std::string("_").append(std::to_string(j + 1)) : "";
                const NodeId cout = add_node_at(
                    m,
                    AppNode{"c_out_" + original.name + bsuf + osuf, NodeKind::Communication,
                            branch_tag, {}},
                    branch_loc[b], original.fsr);
                m.connect_app(replica, cout);
                m.connect_app(cout, result.mergers[j]);
                branch_nodes.push_back(cout);
            }
        }
        result.branches.push_back(std::move(branch_nodes));
    }

    result.nodes_added = m.app().node_count() - nodes_before;
    return result;
}

}  // namespace asilkit::transform
