#include "analysis/tolerance.h"

#include <algorithm>

#include "ftree/builder.h"

namespace asilkit::analysis {

FaultToleranceReport analyze_fault_tolerance(const ArchitectureModel& m,
                                             const FaultToleranceOptions& options) {
    const ftree::FtBuildResult built = ftree::build_fault_tree(m);

    CutSetOptions cs_options;
    cs_options.max_order = options.max_order;
    const std::vector<CutSet> cut_sets = minimal_cut_sets(built.tree, cs_options);

    // A cut set containing a zero-rate event cannot occur: virtual
    // elements (the "observed scene" behind a virtual splitter, perfect
    // pseudo-sources) must not show up as single points of failure.
    std::vector<CutSet> occurring;
    for (const CutSet& cs : cut_sets) {
        const bool possible = std::all_of(cs.begin(), cs.end(), [&](std::uint32_t e) {
            return built.tree.basic_event(e).lambda > 0.0;
        });
        if (possible) occurring.push_back(cs);
    }

    FaultToleranceReport report;
    report.min_cut_order = minimal_cut_order(occurring);
    report.tolerated_faults = report.min_cut_order > 0 ? report.min_cut_order - 1 : 0;
    // No cut set has more events than the tree, so the report stops
    // there and max_order + 1 cannot wrap.
    report.cut_sets_by_order.assign(
        std::min(options.max_order, built.tree.basic_events().size()) + 1, 0);
    for (const CutSet& cs : occurring) {
        ++report.cut_sets_by_order[cs.size()];
        if (cs.size() == 1) {
            report.single_points_of_failure.push_back(built.tree.basic_event(cs.front()).name);
        }
    }
    return report;
}

}  // namespace asilkit::analysis
