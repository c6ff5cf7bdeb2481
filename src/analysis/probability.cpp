#include "analysis/probability.h"

#include <functional>
#include <unordered_map>
#include <utility>

namespace asilkit::analysis {

ftree::FtBuildOptions fault_tree_options(const ProbabilityOptions& options) {
    ftree::FtBuildOptions build_options;
    build_options.approximate = options.approximate;
    build_options.include_location_events = options.include_location_events;
    build_options.rates = options.rates;
    return build_options;
}

ProbabilityResult analyze_failure_probability(const ArchitectureModel& m,
                                              const ProbabilityOptions& options) {
    ftree::FtBuildResult built = ftree::build_fault_tree(m, fault_tree_options(options));

    ProbabilityResult result;
    result.ft_stats = built.tree.stats();
    result.approximated_blocks = built.approximated_blocks;
    result.cycles_cut = built.cycles_cut;
    result.warnings = std::move(built.warnings);

    const TreeEvaluation eval =
        modular_probability(ftree::canonical_form(built.tree), options.mission_hours);
    result.failure_probability = eval.failure_probability;
    result.bdd_nodes = eval.bdd_nodes;
    result.bdd_total_nodes = eval.bdd_total_nodes;
    result.variables = eval.variables;
    result.modules = eval.modules;
    return result;
}

double fault_tree_probability(const ftree::FaultTree& ft, double mission_hours) {
    const bdd::CompiledFaultTree compiled = bdd::compile_fault_tree(ft);
    const double p = compiled.manager.probability(
        compiled.root, compiled.variable_probabilities(ft, mission_hours));
    compiled.manager.flush_obs();
    return p;
}

double rare_event_probability(const ftree::FaultTree& ft, double mission_hours) {
    std::unordered_map<std::uint32_t, double> gate_memo;
    std::function<double(ftree::FtRef)> visit = [&](ftree::FtRef r) -> double {
        if (r.kind == ftree::FtRef::Kind::Basic) {
            return bdd::basic_event_probability(ft.basic_event(r.index).lambda, mission_hours);
        }
        if (auto it = gate_memo.find(r.index); it != gate_memo.end()) return it->second;
        const ftree::Gate& g = ft.gate(r.index);
        double p = g.kind == ftree::GateKind::Or ? 0.0 : 1.0;
        if (g.children.empty()) p = 0.0;  // no failure mode
        for (ftree::FtRef c : g.children) {
            if (g.kind == ftree::GateKind::Or) {
                p += visit(c);
            } else {
                p *= visit(c);
            }
        }
        gate_memo.emplace(r.index, p);
        return p;
    };
    return visit(ft.top());
}

TreeEvaluation modular_probability(const ftree::FaultTree& ft, double mission_hours) {
    const ftree::ModuleDecomposition dec = ftree::find_modules(ft);

    TreeEvaluation total;
    total.modules = dec.size();
    std::vector<double> module_prob(dec.size());
    std::vector<double> child_probs;
    for (std::size_t i = 0; i < dec.size(); ++i) {
        child_probs.clear();
        for (const std::uint32_t child : dec.modules[i].child_modules) {
            child_probs.push_back(module_prob[child]);
        }
        const bdd::ModuleEvalResult eval =
            bdd::evaluate_module(ft, dec, i, child_probs, mission_hours);
        module_prob[i] = eval.probability;
        total.bdd_nodes += eval.bdd_nodes;
        total.bdd_total_nodes += eval.bdd_total_nodes;
        total.variables += eval.variables;
    }
    total.failure_probability = module_prob.back();
    return total;
}

}  // namespace asilkit::analysis
