#include "model/architecture.h"

#include <algorithm>

#include "core/error.h"

namespace asilkit {
namespace {

template <typename Id>
void erase_value(std::vector<Id>& v, Id x) {
    v.erase(std::remove(v.begin(), v.end(), x), v.end());
}

template <typename Id>
bool contains_value(const std::vector<Id>& v, Id x) {
    return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

void ArchitectureModel::map_node(NodeId n, ResourceId r) {
    const AppNode& node = app_.node(n);
    const Resource& res = res_.node(r);
    if (!mapping_compatible(node.kind, res.kind)) {
        throw ModelError("cannot map " + std::string(to_string(node.kind)) + " node '" + node.name +
                         "' onto " + std::string(to_string(res.kind)) + " resource '" + res.name + "'");
    }
    auto& rs = map_g_[n];
    if (!contains_value(rs, r)) rs.push_back(r);
}

void ArchitectureModel::unmap_node(NodeId n, ResourceId r) {
    if (auto it = map_g_.find(n); it != map_g_.end()) {
        erase_value(it->second, r);
        if (it->second.empty()) map_g_.erase(it);
    }
}

void ArchitectureModel::remap_node(NodeId n, const std::vector<ResourceId>& rs) {
    map_g_.erase(n);
    for (ResourceId r : rs) map_node(n, r);
}

void ArchitectureModel::place_resource(ResourceId r, LocationId p) {
    res_.require(r);
    phy_.require(p);
    auto& ps = map_h_[r];
    if (!contains_value(ps, p)) ps.push_back(p);
}

NodeId ArchitectureModel::add_node_with_dedicated_resource(AppNode node, LocationId loc) {
    Resource res;
    res.name = node.name + "_hw";
    res.kind = default_resource_kind(node.kind);
    res.asil = node.asil.level;
    const NodeId n = app_.add_node(std::move(node));
    const ResourceId r = res_.add_node(std::move(res));
    map_node(n, r);
    if (loc.valid()) place_resource(r, loc);
    return n;
}

const std::vector<ResourceId>& ArchitectureModel::mapped_resources(NodeId n) const {
    if (auto it = map_g_.find(n); it != map_g_.end()) return it->second;
    return empty_resources_;
}

const std::vector<LocationId>& ArchitectureModel::resource_locations(ResourceId r) const {
    if (auto it = map_h_.find(r); it != map_h_.end()) return it->second;
    return empty_locations_;
}

std::vector<NodeId> ArchitectureModel::nodes_on_resource(ResourceId r) const {
    std::vector<NodeId> out;
    for (const auto& [n, rs] : map_g_) {
        if (contains_value(rs, r)) out.push_back(n);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<ResourceId> ArchitectureModel::used_resources() const {
    std::vector<ResourceId> out;
    for (const auto& [n, rs] : map_g_) {
        for (ResourceId r : rs) {
            if (!contains_value(out, r)) out.push_back(r);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<LocationId> ArchitectureModel::node_locations(NodeId n) const {
    std::vector<LocationId> out;
    for (ResourceId r : mapped_resources(n)) {
        for (LocationId p : resource_locations(r)) {
            if (!contains_value(out, p)) out.push_back(p);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

Asil ArchitectureModel::effective_asil(NodeId n) const {
    const AppNode& node = app_.node(n);
    const auto& rs = mapped_resources(n);
    if (rs.empty()) return Asil::QM;
    Asil hw = Asil::D;
    for (ResourceId r : rs) hw = asil_min(hw, res_.node(r).asil);
    return asil_min(node.asil.level, hw);
}

void ArchitectureModel::erase_app_node(NodeId n, bool drop_dedicated_resources) {
    app_.require(n);
    std::vector<ResourceId> owned = mapped_resources(n);
    map_g_.erase(n);
    app_.erase_node(n);
    if (drop_dedicated_resources) {
        for (ResourceId r : owned) {
            if (nodes_on_resource(r).empty()) erase_resource(r);
        }
    }
}

void ArchitectureModel::erase_resource(ResourceId r) {
    res_.require(r);
    map_h_.erase(r);
    for (auto it = map_g_.begin(); it != map_g_.end();) {
        erase_value(it->second, r);
        it = it->second.empty() ? map_g_.erase(it) : std::next(it);
    }
    res_.erase_node(r);
}

NodeId ArchitectureModel::find_app_node(std::string_view name) const {
    for (NodeId n : app_.node_ids()) {
        if (app_.node(n).name == name) return n;
    }
    return NodeId{};
}

ResourceId ArchitectureModel::find_resource(std::string_view name) const {
    for (ResourceId r : res_.node_ids()) {
        if (res_.node(r).name == name) return r;
    }
    return ResourceId{};
}

LocationId ArchitectureModel::find_location(std::string_view name) const {
    for (LocationId p : phy_.node_ids()) {
        if (phy_.node(p).name == name) return p;
    }
    return LocationId{};
}

}  // namespace asilkit
