#include "analysis/fmea.h"

#include <algorithm>
#include <optional>
#include <ostream>
#include <set>
#include <utility>

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
    // The workspace's resource_event table says which event each
    // resource is; importance and SPOFs are indexed by event.
    ftree::BuildWorkspace workspace;
    const ftree::FtBuildResult built = ftree::build_fault_tree(m, {}, workspace);
    const std::size_t events = built.tree.basic_events().size();

    std::vector<ImportanceEntry> importance(events);
    for (ImportanceEntry& e : importance_measures(built.tree, options.mission_hours)) {
        importance[e.index] = std::move(e);
    }

    // SPOFs from order-1 minimal cut sets (zero-rate events cannot occur
    // and are not SPOFs).
    CutSetOptions cs_options;
    cs_options.max_order = kSpofCutOrder;
    std::vector<char> spof(events, 0);
    for (const CutSet& cs : minimal_cut_sets(built.tree, cs_options)) {
        if (cs.size() == 1 && built.tree.basic_event(cs.front()).lambda > 0.0) spof[cs.front()] = 1;
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
        // A resource no gate reaches has no event: B, FV 0, no SPOF.
        if (const std::optional<ftree::FtRef> event = workspace.resource_event[r.value()]) {
            row.birnbaum = importance[event->index].birnbaum;
            row.fussell_vesely = importance[event->index].fussell_vesely;
            row.single_point_of_failure = spof[event->index] != 0;
        }
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(), [](const FmeaRow& a, const FmeaRow& b) {
        if (a.fussell_vesely != b.fussell_vesely) return a.fussell_vesely > b.fussell_vesely;
        return a.resource < b.resource;
    });
    return rows;
}

}  // namespace asilkit::analysis
