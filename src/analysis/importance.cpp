#include "analysis/importance.h"

#include <algorithm>

#include "bdd/from_fault_tree.h"

namespace asilkit::analysis {

std::vector<ImportanceEntry> importance_measures(const ftree::FaultTree& ft,
                                                 double mission_hours) {
    const bdd::CompiledFaultTree compiled = bdd::compile_fault_tree(ft);
    std::vector<double> probs = compiled.variable_probabilities(ft, mission_hours);
    const double q = compiled.manager.probability(compiled.root, probs);

    std::vector<ImportanceEntry> out;
    out.reserve(probs.size());
    for (std::uint32_t v = 0; v < probs.size(); ++v) {
        ImportanceEntry entry;
        entry.index = compiled.event_of_var[v];
        entry.event = ft.basic_event(entry.index).name;
        entry.probability = probs[v];

        const double saved = probs[v];
        probs[v] = 1.0;
        const double q_up = compiled.manager.probability(compiled.root, probs);
        probs[v] = 0.0;
        const double q_down = compiled.manager.probability(compiled.root, probs);
        probs[v] = saved;

        entry.birnbaum = q_up - q_down;
        entry.criticality = q > 0.0 ? entry.birnbaum * saved / q : 0.0;
        entry.fussell_vesely = q > 0.0 ? 1.0 - q_down / q : 0.0;
        out.push_back(std::move(entry));
    }
    std::sort(out.begin(), out.end(), [](const ImportanceEntry& a, const ImportanceEntry& b) {
        if (a.birnbaum != b.birnbaum) return a.birnbaum > b.birnbaum;
        if (a.event != b.event) return a.event < b.event;
        return a.index < b.index;
    });
    return out;
}

}  // namespace asilkit::analysis
