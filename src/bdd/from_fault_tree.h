// Fault-tree -> BDD compilation (paper Section V).
//
// Variable ordering follows the paper: a breadth-first, left-to-right
// traversal of the fault tree from the top event, assigning increasing
// variable indices to basic events in first-seen order "so that the base
// events that impact more directly the Top Level Event come first".
// Gates then become apply() chains: OR children are combined with
// BddOp::Or, AND children with BddOp::And — the "+" and "*" of the
// paper's ITE formulation.
#pragma once

#include <cstdint>
#include <vector>

#include "bdd/bdd.h"
#include "ftree/fault_tree.h"
#include "ftree/modules.h"

namespace asilkit::bdd {

/// Basic-event indices in the paper's top-down / left-to-right variable
/// order (restricted to events reachable from the top gate).
[[nodiscard]] std::vector<std::uint32_t> ft_variable_order(const ftree::FaultTree& ft);

/// A compiled fault tree: the manager owning the diagram, the root
/// function, and the var -> basic-event-index mapping.
struct CompiledFaultTree {
    BddManager manager;
    BddRef root = kFalse;
    /// event_of_var[v] = index of the basic event assigned to variable v.
    std::vector<std::uint32_t> event_of_var;

    /// Per-variable failure probabilities for a mission of `hours`,
    /// p = 1 - exp(-lambda * t), aligned with the manager's variables.
    [[nodiscard]] std::vector<double> variable_probabilities(const ftree::FaultTree& ft,
                                                             double hours) const;
};

/// Compiles with the paper's default ordering, or with an explicit order
/// (a permutation of reachable basic-event indices) for ordering studies.
[[nodiscard]] CompiledFaultTree compile_fault_tree(const ftree::FaultTree& ft);
[[nodiscard]] CompiledFaultTree compile_fault_tree(const ftree::FaultTree& ft,
                                                   const std::vector<std::uint32_t>& event_order);

/// p = 1 - exp(-lambda * hours); for lambda*t << 1 this is ~= lambda * t,
/// which is why the paper quotes probabilities numerically equal to rates
/// at t = 1 h.
[[nodiscard]] double basic_event_probability(double lambda, double hours) noexcept;

/// Result of evaluating one module of a ftree::ModuleDecomposition: the
/// module's local region compiled to its own (small) BDD with nested
/// modules as pseudo-variables, Shannon-evaluated with the child
/// modules' probabilities.  Exact: a module's basic events are disjoint
/// from the rest of the tree, so a nested module is an independent
/// boolean variable of the local region — even when it is referenced
/// several times, because the BDD keeps the repeated-variable
/// dependence that a naive sum/product combination would lose.
struct ModuleEvalResult {
    double probability = 0.0;
    std::size_t bdd_nodes = 0;        ///< interior nodes reachable from the local root
    std::size_t bdd_total_nodes = 0;  ///< all nodes the local manager allocated
    std::size_t variables = 0;        ///< real basic events in the local region
};

/// What evaluate_modules reuses from one call to the next: one manager,
/// reset for each module, and the lookup tables indexed by the tree.
/// A caller that evaluates many trees (the engine) keeps one, so a
/// module allocates nothing once the buffers have grown to its size;
/// the results do not depend on what an earlier call left here.
struct ModuleEvalWorkspace {
    BddManager manager{0};
    std::vector<std::uint32_t> region_of;      ///< gate -> module index
    std::vector<std::uint32_t> var_of_event;   ///< basic event -> local variable
    std::vector<std::uint32_t> var_of_pseudo;  ///< nested module root -> local variable
    std::vector<BddRef> gate_bdd;              ///< gate -> its function in its module
    std::vector<std::uint32_t> region;         ///< the current module's gates
    std::vector<double> probs;                 ///< per local variable
};

/// Evaluates every module of `dec` on `ft` (the tree `dec` was detected
/// on) in root order, children before parents, each on `workspace`'s
/// manager reset for it; its region is what a walk from its root reaches
/// short of earlier roots, each a pseudo-variable carrying its module's
/// probability.  The result aligns with dec.roots.  The local variable
/// order follows the paper within the module: breadth-first,
/// left-to-right from the module root over basic events and
/// pseudo-variables in first-seen order, so each module's evaluation is
/// a pure function of its subtree.  Emits one "evaluate_module" span per
/// module.
[[nodiscard]] std::vector<ModuleEvalResult> evaluate_modules(const ftree::FaultTree& ft,
                                                             const ftree::ModuleDecomposition& dec,
                                                             double mission_hours,
                                                             ModuleEvalWorkspace& workspace);

/// The same on a workspace of its own.
[[nodiscard]] std::vector<ModuleEvalResult> evaluate_modules(const ftree::FaultTree& ft,
                                                             const ftree::ModuleDecomposition& dec,
                                                             double mission_hours);

}  // namespace asilkit::bdd
