#include "transform/expand.h"

#include <algorithm>
#include <string>
#include <vector>

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

/// `_<i + 1>` when there are several of a kind, else nothing.
std::string index_suffix(std::size_t count, std::size_t i) {
    return count > 1 ? std::string("_").append(std::to_string(i + 1)) : std::string();
}

/// The names Expand gives what it creates for node `node` with `inputs`
/// input and `outputs` output edges: one definition serves the clash
/// check and the construction.  Every new node's resource is its name
/// plus "_hw" (ArchitectureModel::add_node_with_dedicated_resource).
struct BlockNames {
    const std::string& node;
    std::size_t inputs;
    std::size_t outputs;

    [[nodiscard]] std::string splitter(std::size_t i) const {
        return "split_" + node + index_suffix(inputs, i);
    }
    [[nodiscard]] std::string pre(std::size_t i) const {
        return "c_pre_" + node + index_suffix(inputs, i);
    }
    [[nodiscard]] std::string merger(std::size_t j) const {
        return "merge_" + node + index_suffix(outputs, j);
    }
    [[nodiscard]] std::string post(std::size_t j) const {
        return "c_post_" + node + index_suffix(outputs, j);
    }
    [[nodiscard]] std::string replica(std::size_t b) const {
        return node + std::string("_").append(std::to_string(b + 1));
    }
    [[nodiscard]] std::string c_in(std::size_t b, std::size_t i) const {
        return "c_in_" + replica(b) + index_suffix(inputs, i);
    }
    [[nodiscard]] std::string c_out(std::size_t b, std::size_t j) const {
        return "c_out_" + replica(b) + index_suffix(outputs, j);
    }
    [[nodiscard]] std::string management_location() const { return "loc_" + node + "_mgmt"; }
    [[nodiscard]] std::string branch_location(std::size_t b) const {
        return "loc_" + node + std::string("_b").append(std::to_string(b + 1));
    }
};

/// Throws TransformError when a resource or location name the expansion
/// of `node` would create is already in use: the model loader rejects two
/// resources or two locations of one name.  A resource only `node` uses
/// does not count, since the expansion drops it first.  The generated
/// names never repeat each other: their prefixes differ, and so do their
/// numeric suffixes.
void check_new_names(const ArchitectureModel& m, NodeId node, const BlockNames& names,
                     bool communication, std::size_t branches, bool new_management_location,
                     bool new_branch_locations) {
    std::vector<std::string> resources;
    const auto add = [&](std::string name) {
        name.append("_hw");
        resources.push_back(std::move(name));
    };
    for (std::size_t i = 0; i < names.inputs; ++i) {
        if (communication) add(names.pre(i));
        add(names.splitter(i));
    }
    for (std::size_t j = 0; j < names.outputs; ++j) {
        add(names.merger(j));
        if (communication) add(names.post(j));
    }
    for (std::size_t b = 0; b < branches; ++b) {
        add(names.replica(b));
        if (communication) continue;
        for (std::size_t i = 0; i < names.inputs; ++i) add(names.c_in(b, i));
        for (std::size_t j = 0; j < names.outputs; ++j) add(names.c_out(b, j));
    }
    const std::vector<ResourceId>& own = m.mapped_resources(node);
    for (const ResourceId r : m.resources().node_ids()) {
        const std::string& name = m.resources().node(r).name;
        if (std::find(resources.begin(), resources.end(), name) == resources.end()) continue;
        const bool dropped = std::find(own.begin(), own.end(), r) != own.end() &&
                             m.nodes_on_resource(r).size() == 1;
        if (!dropped) {
            throw TransformError("Expand(" + names.node + "): resource name '" + name +
                                 "' is already in use");
        }
    }

    std::vector<std::string> locations;
    if (new_management_location) locations.push_back(names.management_location());
    if (new_branch_locations) {
        for (std::size_t b = 0; b < branches; ++b) locations.push_back(names.branch_location(b));
    }
    if (locations.empty()) return;
    for (const LocationId p : m.physical().node_ids()) {
        const std::string& name = m.physical().node(p).name;
        if (std::find(locations.begin(), locations.end(), name) != locations.end()) {
            throw TransformError("Expand(" + names.node + "): location name '" + name +
                                 "' is already in use");
        }
    }
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

    const bool communication = original.kind == NodeKind::Communication;
    const BlockNames names{original.name, inputs.size(), outputs.size()};
    const auto locs = m.node_locations(node);
    check_new_names(m, node, names, communication, branches, locs.empty(),
                    options.branch_locations.empty());

    // Placement: the new splitters and mergers go to the expanded node's
    // first location, or to a fresh one when it has none.
    const LocationId management_loc =
        locs.empty() ? ensure_location(m, LocationId{}, names.management_location())
                     : locs.front();
    std::vector<LocationId> branch_loc(branches);
    for (std::size_t b = 0; b < branches; ++b) {
        branch_loc[b] = options.branch_locations.empty()
                            ? ensure_location(m, LocationId{}, names.branch_location(b))
                            : options.branch_locations[b];
    }

    const std::size_t nodes_before = m.app().node_count();
    m.erase_app_node(node, /*drop_dedicated_resources=*/true);

    const AsilTag management_tag{parent, parent};

    // Splitters: one per original input edge.
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (communication) {
            // New communication node between the producer and the splitter.
            const NodeId pre = add_node_at(
                m, AppNode{names.pre(i), NodeKind::Communication, management_tag, {}},
                management_loc, original.fsr);
            m.connect_app(inputs[i].node, pre, inputs[i].channel);
            const NodeId s = add_node_at(
                m, AppNode{names.splitter(i), NodeKind::Splitter, management_tag, {}},
                management_loc, original.fsr);
            m.connect_app(pre, s);
            result.splitters.push_back(s);
        } else {
            const NodeId s = add_node_at(
                m, AppNode{names.splitter(i), NodeKind::Splitter, management_tag, {}},
                management_loc, original.fsr);
            m.connect_app(inputs[i].node, s, inputs[i].channel);
            result.splitters.push_back(s);
        }
    }

    // Mergers: one per original output edge.
    for (std::size_t j = 0; j < outputs.size(); ++j) {
        const NodeId mg = add_node_at(
            m, AppNode{names.merger(j), NodeKind::Merger, management_tag, {}},
            management_loc, original.fsr);
        if (communication) {
            const NodeId post = add_node_at(
                m, AppNode{names.post(j), NodeKind::Communication, management_tag, {}},
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
        std::vector<NodeId> branch_nodes;

        if (communication) {
            // One communication node per branch, fed by every splitter and
            // feeding every merger.
            const NodeId cb = add_node_at(
                m, AppNode{names.replica(b), NodeKind::Communication, branch_tag, {}}, branch_loc[b], original.fsr);
            branch_nodes.push_back(cb);
            result.replicas.push_back(cb);
            for (NodeId s : result.splitters) m.connect_app(s, cb);
            for (NodeId mg : result.mergers) m.connect_app(cb, mg);
        } else {
            const NodeId replica = add_node_at(
                m, AppNode{names.replica(b), NodeKind::Functional, branch_tag, {}}, branch_loc[b], original.fsr);
            result.replicas.push_back(replica);
            for (std::size_t i = 0; i < result.splitters.size(); ++i) {
                const NodeId cin = add_node_at(
                    m, AppNode{names.c_in(b, i), NodeKind::Communication, branch_tag, {}},
                    branch_loc[b], original.fsr);
                m.connect_app(result.splitters[i], cin);
                m.connect_app(cin, replica);
                branch_nodes.push_back(cin);
            }
            branch_nodes.push_back(replica);
            for (std::size_t j = 0; j < result.mergers.size(); ++j) {
                const NodeId cout = add_node_at(
                    m, AppNode{names.c_out(b, j), NodeKind::Communication, branch_tag, {}},
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
