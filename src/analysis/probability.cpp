#include "analysis/probability.h"

#include <utility>
#include <vector>

namespace asilkit::analysis {

ftree::FtBuildOptions fault_tree_options(const ProbabilityOptions& options) {
    ftree::FtBuildOptions build_options;
    build_options.approximate = options.approximate;
    build_options.include_location_events = options.include_location_events;
    build_options.rates = options.rates;
    return build_options;
}

CanonicalBuild build_canonical_tree(const ArchitectureModel& m, const ProbabilityOptions& options,
                                    EvalWorkspace& workspace) {
    ftree::FtBuildResult built =
        ftree::build_fault_tree(m, fault_tree_options(options), workspace.build);
    CanonicalBuild out{{}, ftree::canonical_form(built.tree, workspace.canonical)};
    out.result.ft_stats = built.tree.stats();
    out.result.approximated_blocks = built.approximated_blocks;
    out.result.cycles_cut = built.cycles_cut;
    out.result.warnings = std::move(built.warnings);
    return out;
}

void set_evaluation(ProbabilityResult& result, const TreeEvaluation& eval) {
    result.failure_probability = eval.failure_probability;
    result.bdd_nodes = eval.bdd_nodes;
    result.bdd_total_nodes = eval.bdd_total_nodes;
    result.variables = eval.variables;
    result.modules = eval.modules;
}

ProbabilityResult analyze_failure_probability(const ArchitectureModel& m,
                                              const ProbabilityOptions& options) {
    EvalWorkspace workspace;
    CanonicalBuild built = build_canonical_tree(m, options, workspace);
    set_evaluation(built.result,
                   modular_probability(built.canonical, options.mission_hours, workspace));
    return std::move(built.result);
}

double fault_tree_probability(const ftree::FaultTree& ft, double mission_hours) {
    const bdd::CompiledFaultTree compiled = bdd::compile_fault_tree(ft);
    const double p = compiled.manager.probability(
        compiled.root, compiled.variable_probabilities(ft, mission_hours));
    compiled.manager.flush_obs();
    return p;
}

double rare_event_probability(const ftree::FaultTree& ft, double mission_hours) {
    const auto event_probability = [&](std::uint32_t e) {
        return bdd::basic_event_probability(ft.basic_event(e).lambda, mission_hours);
    };
    const ftree::FtRef top = ft.top();
    std::vector<double> gate_p(ft.gates().size(), 0.0);
    for (const std::uint32_t g : ft.reachable_gates(top)) {
        const ftree::Gate& gate = ft.gates()[g];
        const bool is_or = gate.kind == ftree::GateKind::Or;
        double p = is_or ? 0.0 : 1.0;
        if (gate.children.empty()) p = 0.0;  // no failure mode
        for (const ftree::FtRef c : gate.children) {
            const double pc = c.kind == ftree::FtRef::Kind::Basic ? event_probability(c.index)
                                                                  : gate_p[c.index];
            if (is_or) {
                p += pc;
            } else {
                p *= pc;
            }
        }
        gate_p[g] = p;
    }
    return top.kind == ftree::FtRef::Kind::Basic ? event_probability(top.index)
                                                 : gate_p[top.index];
}

TreeEvaluation modular_probability(const ftree::FaultTree& ft, double mission_hours,
                                   EvalWorkspace& workspace) {
    const ftree::ModuleDecomposition dec = ftree::find_modules(ft, workspace.modules);
    const std::vector<bdd::ModuleEvalResult> modules =
        bdd::evaluate_modules(ft, dec, mission_hours, workspace.bdd);

    TreeEvaluation total;
    total.modules = dec.size();
    for (const bdd::ModuleEvalResult& eval : modules) {
        total.bdd_nodes += eval.bdd_nodes;
        total.bdd_total_nodes += eval.bdd_total_nodes;
        total.variables += eval.variables;
    }
    total.failure_probability = modules.back().probability;
    return total;
}

TreeEvaluation modular_probability(const ftree::FaultTree& ft, double mission_hours) {
    EvalWorkspace workspace;
    return modular_probability(ft, mission_hours, workspace);
}

}  // namespace asilkit::analysis
