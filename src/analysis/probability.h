// System failure-probability analysis (paper Section V).
//
// Pipeline: model -> fault tree (exact or Section-V-approximate) ->
// canonical form -> independent modules -> one BDD per module -> exact
// top-event probability under a mission time, every step on the buffers
// of one EvalWorkspace.  This is the one
// evaluation path: analyze_failure_probability and the DSE engine
// (engine/engine.h) both end in modular_probability on the canonical
// tree, so `asilkit analyze` and every search report the same bits.
// The whole-tree BDD of fault_tree_probability stays as an independent
// oracle.  The result carries the structural diagnostics the paper
// reports alongside the number: fault-tree size (the 87 -> 51 node
// reduction), path counts (the 2^n blow-up per decomposition), BDD
// size, and the soundness warnings raised during generation.
#pragma once

#include <string>
#include <vector>

#include "bdd/from_fault_tree.h"
#include "ftree/builder.h"
#include "ftree/modules.h"
#include "model/architecture.h"
#include "model/failure_rates.h"

namespace asilkit::analysis {

struct ProbabilityOptions {
    /// Exposure over which p = 1 - exp(-lambda t) is evaluated.  At the
    /// default 1 h, probabilities are numerically ~= summed rates, which
    /// is how the paper quotes "failure probability (fph)".
    double mission_hours = 1.0;
    /// Use the Section V path-collapsing approximation.
    bool approximate = false;
    FailureRates rates{};
};

/// The fault-tree generation options a probability analysis implies.
[[nodiscard]] ftree::FtBuildOptions fault_tree_options(const ProbabilityOptions& options);

/// What one modular evaluation of a tree produces: the BDD-derived part
/// of a ProbabilityResult, and what the engine's tree-key memo stores.
struct TreeEvaluation {
    double failure_probability = 0.0;
    std::size_t bdd_nodes = 0;        ///< interior nodes reachable from the module roots, summed
    std::size_t bdd_total_nodes = 0;  ///< nodes each module's BDD allocated, summed over modules
    std::size_t variables = 0;        ///< basic events (the modules partition them)
    std::size_t modules = 0;          ///< independent modules the tree decomposed into
};

struct ProbabilityResult {
    double failure_probability = 0.0;
    ftree::FaultTreeStats ft_stats;
    std::size_t bdd_nodes = 0;        ///< interior nodes reachable from the module roots, summed
    std::size_t bdd_total_nodes = 0;  ///< nodes each module's BDD allocated, summed over modules
    std::size_t variables = 0;        ///< distinct basic events in the BDDs
    std::size_t modules = 0;          ///< independent modules of the canonical tree
    std::size_t approximated_blocks = 0;
    std::size_t cycles_cut = 0;
    std::vector<std::string> warnings;
};

/// What one evaluation reuses from the last: the buffers of
/// build_fault_tree, canonical_form, find_modules and
/// bdd::evaluate_modules, the last holding the one BDD manager that is
/// reset for every module.  An engine keeps one for all its tree
/// misses; analyze_failure_probability runs the same code on a
/// temporary one.  No result depends on what an earlier evaluation left
/// here.  Like a manager, a workspace serves one thread at a time.
struct EvalWorkspace {
    ftree::BuildWorkspace build;
    ftree::CanonicalWorkspace canonical;
    ftree::ModuleWorkspace modules;
    bdd::ModuleEvalWorkspace bdd;
};

/// The tree half of the evaluation path: what build_fault_tree ->
/// canonical_form yields.  `result` holds every field of the
/// ProbabilityResult but the BDD part (set_evaluation fills that), and
/// `canonical` carries its structural hash, the engine's tree key.
struct CanonicalBuild {
    ProbabilityResult result;
    ftree::FaultTree canonical;
};

/// build_fault_tree -> stats -> canonical_form on `workspace`.
[[nodiscard]] CanonicalBuild build_canonical_tree(const ArchitectureModel& m,
                                                  const ProbabilityOptions& options,
                                                  EvalWorkspace& workspace);

/// Copies `eval` into the BDD part of `result`: P, BDD sizes, variables
/// and modules.
void set_evaluation(ProbabilityResult& result, const TreeEvaluation& eval);

/// Full pipeline on a model: build_canonical_tree -> modular_probability,
/// on a temporary workspace.  Bitwise equal to engine::EvalEngine::analyze,
/// which runs the same code on its own workspace.
[[nodiscard]] ProbabilityResult analyze_failure_probability(const ArchitectureModel& m,
                                                            const ProbabilityOptions& options = {});

/// Exact probability of an already-built fault tree through ONE BDD of
/// the whole tree, in the paper's top-down variable order.  The
/// independent oracle for modular_probability (equal to within
/// rounding: different BDD shapes, same exact quantity); importance and
/// sensitivity analyses build on the same whole-tree compilation.
[[nodiscard]] double fault_tree_probability(const ftree::FaultTree& ft, double mission_hours = 1.0);

/// The rare-event reading of the paper's ITE arithmetic evaluated
/// directly on the fault tree: OR = sum, AND = product of child
/// probabilities.  Exact only when no basic event is shared between
/// gates; provided as a cross-check and a baseline for the benches.
[[nodiscard]] double rare_event_probability(const ftree::FaultTree& ft, double mission_hours = 1.0);

/// The one exact evaluation path.  Splits the tree into its independent
/// modules (ftree::find_modules) and evaluates them bottom-up on
/// `workspace`'s BDD manager, reset for each module
/// (bdd::evaluate_modules): nested modules enter their parent's BDD as
/// pseudo-variables carrying the already computed probabilities.  Exact
/// for every tree, including trees with shared events, which stay
/// inside one module.  Callers that want the engine's bits pass the
/// canonical form (ftree::canonical_form).
[[nodiscard]] TreeEvaluation modular_probability(const ftree::FaultTree& ft, double mission_hours,
                                                 EvalWorkspace& workspace);

/// The same on a temporary workspace.
[[nodiscard]] TreeEvaluation modular_probability(const ftree::FaultTree& ft,
                                                 double mission_hours = 1.0);

}  // namespace asilkit::analysis
