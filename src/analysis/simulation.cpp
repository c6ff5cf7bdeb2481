#include "analysis/simulation.h"

#include "analysis/sim_engine.h"
#include "ftree/builder.h"

namespace asilkit::analysis {

SimulationResult simulate_fault_tree(const ftree::FaultTree& ft,
                                     const SimulationOptions& options) {
    if (!ft.has_top()) throw AnalysisError("simulate_fault_tree: fault tree has no top event");
    // One-shot convenience: the evaluation plan (flattened children,
    // rates) is compiled here and discarded.  Repeat callers, such as
    // the benches, should hold a SimEngine and amortize the plan.
    return SimEngine(ft).run(options);
}

SimulationResult simulate_failure_probability(const ArchitectureModel& m,
                                              const SimulationOptions& options) {
    ftree::FtBuildOptions build_options;
    build_options.rates = options.rates;
    const ftree::FtBuildResult built = ftree::build_fault_tree(m, build_options);
    return simulate_fault_tree(built.tree, options);
}

}  // namespace asilkit::analysis
