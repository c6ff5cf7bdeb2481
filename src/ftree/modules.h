// Fault-tree modularization (Dutuit–Rauzy, IEEE Trans. Reliability 1996).
//
// A *module* is a gate whose subtree shares no node with the rest of the
// tree: every basic event and every gate reachable from the module root
// is reachable *only* through it.  Modules are what make evaluation
// compositional — a module's top probability is a function of its own
// subtree alone, so each module compiles to its own small BDD and
// enters its parent's BDD as one pseudo-variable
// (analysis::modular_probability, the one evaluation path).
//
// Detection is one DFS over the DAG reachable from top() with visit
// dates, in the style of Dutuit & Rauzy's linear-time algorithm: every
// edge is traversed exactly once (children of an already-visited gate
// are not re-expanded, but the arrival itself is dated), so an edge
// entering a subtree from outside necessarily dates its target outside
// the subtree root's [first-arrival, completion] window.  A gate is a
// module iff the visit dates of all strict descendants stay inside its
// window.  A gate that is itself referenced from several parents can
// still be a module (its own revisits are excluded from its test); its
// pseudo-variable then simply appears several times in the enclosing
// region, which the BDD evaluation handles exactly.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ftree/fault_tree.h"

namespace asilkit::ftree {

/// One module of a decomposition.  `child_modules` lists the directly
/// nested modules (indices into ModuleDecomposition::modules) in
/// first-seen order of a depth-first traversal of the module's local
/// region; evaluation replaces each with a pseudo-variable.
struct Module {
    FtRef root{};
    std::vector<std::uint32_t> child_modules;
    /// Distinct basic events in the local region (excludes nested
    /// modules' events).
    std::size_t basic_events = 0;
};

struct ModuleDecomposition {
    /// Children-before-parents; back() is the top module.
    std::vector<Module> modules;
    /// Gate index -> index in `modules`, for module-root gates.
    std::unordered_map<std::uint32_t, std::uint32_t> module_of_gate;

    [[nodiscard]] std::size_t size() const noexcept { return modules.size(); }
    [[nodiscard]] const Module& top() const { return modules.back(); }
};

/// Detects the independent modules of the tree reachable from ft.top()
/// in linear time.  The top node is always a module (possibly the only
/// one); a top that is a single basic event yields one leaf module.
[[nodiscard]] ModuleDecomposition find_modules(const FaultTree& ft);

}  // namespace asilkit::ftree
