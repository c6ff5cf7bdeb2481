#include "analysis/fmea.h"

#include <algorithm>
#include <ostream>
#include <set>
#include <unordered_map>

#include "analysis/cutsets.h"
#include "analysis/importance.h"
#include "ftree/builder.h"
#include "model/failure_rates.h"

namespace asilkit::analysis {
namespace {

/// Cut-set order limit for the SPOF enumeration.
constexpr std::size_t kSpofCutOrder = 2;

}  // namespace

std::ostream& operator<<(std::ostream& os, const FmeaRow& row) {
    os << row.resource << " (" << to_string(row.kind) << ", " << to_string(row.asil)
       << ", lambda=" << row.lambda << "): FV=" << row.fussell_vesely << ", B=" << row.birnbaum;
    if (row.single_point_of_failure) os << " [SPOF]";
    return os;
}

std::vector<FmeaRow> fmea_report(const ArchitectureModel& m, const FmeaOptions& options) {
    const ftree::FtBuildResult built = ftree::build_fault_tree(m);

    // Importance per basic-event name.
    std::unordered_map<std::string, ImportanceEntry> importance;
    for (ImportanceEntry& e : importance_measures(built.tree, options.mission_hours)) {
        importance.emplace(e.event, std::move(e));
    }

    // SPOF set from order-1 minimal cut sets (zero-rate events cannot
    // occur and are not SPOFs).
    CutSetOptions cs_options;
    cs_options.max_order = kSpofCutOrder;
    std::set<std::string> spofs;
    for (const CutSet& cs : minimal_cut_sets(built.tree, cs_options)) {
        if (cs.size() == 1 && built.tree.basic_event(cs.front()).lambda > 0.0) {
            spofs.insert(built.tree.basic_event(cs.front()).name);
        }
    }

    const FailureRates rates;
    std::vector<FmeaRow> rows;
    for (ResourceId r : m.used_resources()) {
        const Resource& res = m.resources().node(r);
        FmeaRow row;
        row.resource = res.name;
        row.kind = res.kind;
        row.asil = res.asil;
        row.lambda = rates.resource_rate(res);
        std::set<std::string> fsrs;
        for (NodeId n : m.nodes_on_resource(r)) {
            row.implements.push_back(m.app().node(n).name);
            if (!m.app().node(n).fsr.empty()) fsrs.insert(m.app().node(n).fsr);
        }
        std::sort(row.implements.begin(), row.implements.end());
        row.fsrs.assign(fsrs.begin(), fsrs.end());
        const std::string event = std::string(ftree::kResourceEventPrefix) + res.name;
        if (auto it = importance.find(event); it != importance.end()) {
            row.birnbaum = it->second.birnbaum;
            row.fussell_vesely = it->second.fussell_vesely;
        }
        row.single_point_of_failure = spofs.contains(event);
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(), [](const FmeaRow& a, const FmeaRow& b) {
        if (a.fussell_vesely != b.fussell_vesely) return a.fussell_vesely > b.fussell_vesely;
        return a.resource < b.resource;
    });
    return rows;
}

}  // namespace asilkit::analysis
