// The three-layer architecture model (paper Section IV).
//
//   G = (N, E)   application graph   — what the vehicle does
//   H = (R, L)   resource graph      — the EE hardware implementing it
//   F = (P, C)   physical graph      — where the hardware sits
//
// plus the two mappings
//
//   MapG : N -> P(R)   which resources execute/carry each application node
//   MapH : R -> P(P)   which locations host each resource
//
// ArchitectureModel owns all five and keeps them consistent: erasing an
// application node drops its MapG entries; erasing a resource drops its
// MapH entries and its appearances in MapG.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "core/asil.h"
#include "core/ids.h"
#include "graph/digraph.h"
#include "model/location.h"
#include "model/node.h"
#include "model/resource.h"

namespace asilkit {

using AppGraph = graph::Digraph<AppNode, Channel, NodeId, ChannelId>;
using ResourceGraph = graph::Digraph<Resource, ResourceLink, ResourceId, LinkId>;
using PhysicalGraph = graph::Digraph<Location, PhysicalConnection, LocationId, ConnectionId>;

class ArchitectureModel {
public:
    ArchitectureModel() = default;
    explicit ArchitectureModel(std::string name) : name_(std::move(name)) {}

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    void set_name(std::string name) { name_ = std::move(name); }

    // ---- layer access ----------------------------------------------------
    [[nodiscard]] AppGraph& app() noexcept { return app_; }
    [[nodiscard]] const AppGraph& app() const noexcept { return app_; }
    [[nodiscard]] ResourceGraph& resources() noexcept { return res_; }
    [[nodiscard]] const ResourceGraph& resources() const noexcept { return res_; }
    [[nodiscard]] PhysicalGraph& physical() noexcept { return phy_; }
    [[nodiscard]] const PhysicalGraph& physical() const noexcept { return phy_; }

    // ---- construction helpers ---------------------------------------------
    NodeId add_app_node(AppNode node) { return app_.add_node(std::move(node)); }
    ResourceId add_resource(Resource r) { return res_.add_node(std::move(r)); }
    LocationId add_location(Location loc) { return phy_.add_node(std::move(loc)); }
    ChannelId connect_app(NodeId from, NodeId to, Channel c = {}) {
        return app_.add_edge(from, to, std::move(c));
    }

    /// MapG: assigns a resource to an application node.  Throws ModelError
    /// on incompatible kinds (a sensor node on an ECU, ...).
    void map_node(NodeId n, ResourceId r);

    /// Removes one MapG association (no-op if absent).
    void unmap_node(NodeId n, ResourceId r);

    /// Replaces the full MapG entry of `n`.
    void remap_node(NodeId n, const std::vector<ResourceId>& rs);

    /// MapH: places a resource at a physical location.
    void place_resource(ResourceId r, LocationId p);

    /// Convenience: adds an application node together with a dedicated
    /// resource of the default kind and the same ASIL, mapped 1:1 and
    /// placed at `loc` (if valid).  Returns the new node id.  This is the
    /// "one new resource per new application node" policy the paper uses
    /// to evaluate transformations before mapping optimisation.
    NodeId add_node_with_dedicated_resource(AppNode node, LocationId loc = LocationId{});

    // ---- mapping queries ---------------------------------------------------
    [[nodiscard]] const std::vector<ResourceId>& mapped_resources(NodeId n) const;
    [[nodiscard]] const std::vector<LocationId>& resource_locations(ResourceId r) const;
    /// Application nodes mapped onto `r` (linear scan; fine at model scale).
    [[nodiscard]] std::vector<NodeId> nodes_on_resource(ResourceId r) const;
    /// Resources with at least one mapped application node.
    [[nodiscard]] std::vector<ResourceId> used_resources() const;
    /// Physical locations of an application node (union over its resources).
    [[nodiscard]] std::vector<LocationId> node_locations(NodeId n) const;

    // ---- derived quantities -------------------------------------------------
    /// Effective ASIL of an application node (paper Eq. 3):
    /// min(requirement level, min over mapped resources' readiness).
    /// A node with no mapped resource has no implementation: QM.
    [[nodiscard]] Asil effective_asil(NodeId n) const;

    // ---- destructive edits --------------------------------------------------
    /// Erases an application node; when `drop_dedicated_resources` is set,
    /// resources that were mapped *only* by this node are erased as well
    /// (with their MapH entries) — transformations such as Connect() and
    /// Reduce() shrink the hardware architecture this way.
    void erase_app_node(NodeId n, bool drop_dedicated_resources = false);

    void erase_resource(ResourceId r);

    // ---- lookup by name (test/scenario convenience) -------------------------
    [[nodiscard]] NodeId find_app_node(std::string_view name) const;
    [[nodiscard]] ResourceId find_resource(std::string_view name) const;
    [[nodiscard]] LocationId find_location(std::string_view name) const;

private:
    std::string name_;
    AppGraph app_;
    ResourceGraph res_;
    PhysicalGraph phy_;
    std::unordered_map<NodeId, std::vector<ResourceId>> map_g_;
    std::unordered_map<ResourceId, std::vector<LocationId>> map_h_;
    std::vector<ResourceId> empty_resources_;
    std::vector<LocationId> empty_locations_;
};

}  // namespace asilkit
