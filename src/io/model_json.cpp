#include "io/model_json.h"

#include <climits>
#include <cmath>
#include <unordered_map>

#include "obs/trace.h"

namespace asilkit::io {
namespace {

/// ids[i] for the index `j` that `field` holds, where `ids` lists the
/// document's `what`.  Checked as a double, before any conversion, so a
/// negative or huge index is a named error, not a wrapped one.
template <typename Id>
Id element_at(const std::vector<Id>& ids, const Json& j, const char* field, const char* what) {
    const double i = j.as_number();
    if (i != std::floor(i)) {
        throw IoError(std::string(field) + ": index " + number_text(i) + " is not an integer");
    }
    if (!(i >= 0.0 && i < static_cast<double>(ids.size()))) {
        throw IoError(std::string(field) + ": index " + number_text(i) + " is out of range for " +
                      std::to_string(ids.size()) + " " + what);
    }
    return ids[static_cast<std::size_t>(i)];
}

/// Throws unless `name`, the name of the `index`-th of the document's
/// `what`, is the first with that name: reports and CLI options name
/// resources and locations, so they could not tell two apart.
void check_unique_name(std::unordered_map<std::string, std::size_t>& seen, const std::string& name,
                       std::size_t index, const char* what) {
    const auto [it, inserted] = seen.emplace(name, index);
    if (!inserted) {
        throw IoError(std::string(what) + ".name: '" + name + "' names " + what + " " +
                      std::to_string(it->second) + " and " + std::to_string(index));
    }
}

/// A failure rate: finite (the parser rejects overflow) and >= 0.
double rate_from_json(const Json& j, const char* field, const std::string& owner) {
    const double rate = j.as_number();
    if (!(rate >= 0.0)) {
        throw IoError(std::string(field) + ": rate " + number_text(rate) + " of '" + owner +
                      "' is negative");
    }
    return rate;
}

/// An environment zone: an integer that fits in int (0 when absent).
int zone_from_json(const Json& env, const char* key) {
    const Json& j = env.get_or_null(key);
    if (j.is_null()) return 0;
    const double zone = j.as_number();
    if (zone != std::floor(zone) || !(zone >= INT_MIN && zone <= INT_MAX)) {
        throw IoError(std::string("locations.env.") + key + ": zone " + number_text(zone) +
                      " is not an int");
    }
    return static_cast<int>(zone);
}

Json env_to_json(const Environment& env) {
    Json j = Json::object();
    j["temperature"] = env.temperature_zone;
    j["vibration"] = env.vibration_zone;
    j["emi"] = env.emi_zone;
    j["water"] = env.water_exposure_zone;
    return j;
}

Environment env_from_json(const Json& j) {
    Environment env;
    if (j.is_null()) return env;
    env.temperature_zone = zone_from_json(j, "temperature");
    env.vibration_zone = zone_from_json(j, "vibration");
    env.emi_zone = zone_from_json(j, "emi");
    env.water_exposure_zone = zone_from_json(j, "water");
    return env;
}

Asil asil_from_json(const Json& j, const char* context) {
    const auto parsed = asil_from_string(j.as_string());
    if (!parsed) throw IoError(std::string("invalid ASIL '") + j.as_string() + "' in " + context);
    return *parsed;
}

NodeKind node_kind_from_string(const std::string& s) {
    for (NodeKind k : kAllNodeKinds) {
        if (s == to_string(k)) return k;
    }
    throw IoError("invalid node kind '" + s + "'");
}

ResourceKind resource_kind_from_string(const std::string& s) {
    for (ResourceKind k : kAllResourceKinds) {
        if (s == to_string(k)) return k;
    }
    throw IoError("invalid resource kind '" + s + "'");
}

}  // namespace

Json to_json(const ArchitectureModel& m) {
    const obs::ObsSpan span("model_serialize", "io");
    Json j = Json::object();
    j["name"] = m.name();

    // Dense index maps (the graphs may contain id holes after erasures).
    std::unordered_map<LocationId, std::size_t> loc_index;
    std::unordered_map<ResourceId, std::size_t> res_index;
    std::unordered_map<NodeId, std::size_t> node_index;

    Json locations = Json::array();
    for (LocationId p : m.physical().node_ids()) {
        const Location& loc = m.physical().node(p);
        Json entry = Json::object();
        entry["name"] = loc.name;
        entry["lambda"] = loc.lambda;
        entry["env"] = env_to_json(loc.env);
        loc_index.emplace(p, locations.size());
        locations.push_back(std::move(entry));
    }
    j["locations"] = std::move(locations);

    Json connections = Json::array();
    for (ConnectionId e : m.physical().edge_ids()) {
        const auto& edge = m.physical().edge(e);
        Json entry = Json::object();
        entry["from"] = loc_index.at(edge.source);
        entry["to"] = loc_index.at(edge.sink);
        if (!edge.data.label.empty()) entry["label"] = edge.data.label;
        connections.push_back(std::move(entry));
    }
    j["physical_connections"] = std::move(connections);

    Json resources = Json::array();
    for (ResourceId r : m.resources().node_ids()) {
        const Resource& res = m.resources().node(r);
        Json entry = Json::object();
        entry["name"] = res.name;
        entry["kind"] = to_string(res.kind);
        entry["asil"] = to_string(res.asil);
        if (res.lambda_override) entry["lambda_override"] = *res.lambda_override;
        if (res.cost_override) entry["cost_override"] = *res.cost_override;
        Json placed = Json::array();
        for (LocationId p : m.resource_locations(r)) placed.push_back(loc_index.at(p));
        entry["locations"] = std::move(placed);
        res_index.emplace(r, resources.size());
        resources.push_back(std::move(entry));
    }
    j["resources"] = std::move(resources);

    Json links = Json::array();
    for (LinkId e : m.resources().edge_ids()) {
        const auto& edge = m.resources().edge(e);
        Json entry = Json::object();
        entry["from"] = res_index.at(edge.source);
        entry["to"] = res_index.at(edge.sink);
        if (!edge.data.label.empty()) entry["label"] = edge.data.label;
        links.push_back(std::move(entry));
    }
    j["resource_links"] = std::move(links);

    Json nodes = Json::array();
    for (NodeId n : m.app().node_ids()) {
        const AppNode& node = m.app().node(n);
        Json entry = Json::object();
        entry["name"] = node.name;
        entry["kind"] = to_string(node.kind);
        entry["asil"] = to_string(node.asil.level);
        entry["inherited"] = to_string(node.asil.inherited);
        if (!node.fsr.empty()) entry["fsr"] = node.fsr;
        Json mapped = Json::array();
        for (ResourceId r : m.mapped_resources(n)) mapped.push_back(res_index.at(r));
        entry["resources"] = std::move(mapped);
        node_index.emplace(n, nodes.size());
        nodes.push_back(std::move(entry));
    }
    j["nodes"] = std::move(nodes);

    Json channels = Json::array();
    for (ChannelId e : m.app().edge_ids()) {
        const auto& edge = m.app().edge(e);
        Json entry = Json::object();
        entry["from"] = node_index.at(edge.source);
        entry["to"] = node_index.at(edge.sink);
        if (!edge.data.label.empty()) entry["label"] = edge.data.label;
        channels.push_back(std::move(entry));
    }
    j["channels"] = std::move(channels);

    return j;
}

ArchitectureModel model_from_json(const Json& j) {
    const obs::ObsSpan span("model_parse", "io");
    ArchitectureModel m(j.get_or_null("name").is_null() ? "" : j.at("name").as_string());

    std::vector<LocationId> locations;
    std::unordered_map<std::string, std::size_t> location_names;
    for (const Json& entry : j.at("locations").as_array()) {
        Location loc;
        loc.name = entry.at("name").as_string();
        check_unique_name(location_names, loc.name, locations.size(), "locations");
        loc.lambda = rate_from_json(entry.at("lambda"), "locations.lambda", loc.name);
        loc.env = env_from_json(entry.get_or_null("env"));
        locations.push_back(m.add_location(std::move(loc)));
    }
    for (const Json& entry : j.get_or_null("physical_connections").is_null()
                                 ? JsonArray{}
                                 : j.at("physical_connections").as_array()) {
        PhysicalConnection c;
        if (entry.contains("label")) c.label = entry.at("label").as_string();
        m.physical().add_edge(
            element_at(locations, entry.at("from"), "physical_connections.from", "locations"),
            element_at(locations, entry.at("to"), "physical_connections.to", "locations"),
            std::move(c));
    }

    std::vector<ResourceId> resources;
    std::unordered_map<std::string, std::size_t> resource_names;
    for (const Json& entry : j.at("resources").as_array()) {
        Resource res;
        res.name = entry.at("name").as_string();
        check_unique_name(resource_names, res.name, resources.size(), "resources");
        res.kind = resource_kind_from_string(entry.at("kind").as_string());
        res.asil = asil_from_json(entry.at("asil"), "resource");
        if (entry.contains("lambda_override")) {
            res.lambda_override =
                rate_from_json(entry.at("lambda_override"), "resources.lambda_override", res.name);
        }
        if (entry.contains("cost_override")) {
            res.cost_override = entry.at("cost_override").as_number();
        }
        const ResourceId r = m.add_resource(std::move(res));
        resources.push_back(r);
        for (const Json& p : entry.at("locations").as_array()) {
            m.place_resource(r, element_at(locations, p, "resources.locations", "locations"));
        }
    }
    for (const Json& entry : j.get_or_null("resource_links").is_null()
                                 ? JsonArray{}
                                 : j.at("resource_links").as_array()) {
        ResourceLink link;
        if (entry.contains("label")) link.label = entry.at("label").as_string();
        m.resources().add_edge(
            element_at(resources, entry.at("from"), "resource_links.from", "resources"),
            element_at(resources, entry.at("to"), "resource_links.to", "resources"),
            std::move(link));
    }

    std::vector<NodeId> nodes;
    for (const Json& entry : j.at("nodes").as_array()) {
        AppNode node;
        node.name = entry.at("name").as_string();
        node.kind = node_kind_from_string(entry.at("kind").as_string());
        node.asil.level = asil_from_json(entry.at("asil"), "node");
        node.asil.inherited = entry.contains("inherited")
                                  ? asil_from_json(entry.at("inherited"), "node")
                                  : node.asil.level;
        if (entry.contains("fsr")) node.fsr = entry.at("fsr").as_string();
        const NodeId n = m.add_app_node(std::move(node));
        nodes.push_back(n);
        for (const Json& r : entry.at("resources").as_array()) {
            m.map_node(n, element_at(resources, r, "nodes.resources", "resources"));
        }
    }
    for (const Json& entry : j.at("channels").as_array()) {
        Channel c;
        if (entry.contains("label")) c.label = entry.at("label").as_string();
        m.connect_app(element_at(nodes, entry.at("from"), "channels.from", "nodes"),
                      element_at(nodes, entry.at("to"), "channels.to", "nodes"), std::move(c));
    }
    return m;
}

void save_model(const ArchitectureModel& m, const std::string& path) {
    save_json_file(to_json(m), path);
}

ArchitectureModel load_model(const std::string& path) {
    return model_from_json(load_json_file(path));
}

}  // namespace asilkit::io
