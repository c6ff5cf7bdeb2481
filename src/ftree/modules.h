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
// region, which the BDD evaluation handles exactly.  The decomposition
// is the roots alone; bdd::evaluate_modules finds each root's region.
#pragma once

#include <cstdint>
#include <vector>

#include "ftree/fault_tree.h"

namespace asilkit::ftree {

struct ModuleDecomposition {
    /// Ascending gate index, so children before parents and back() is
    /// the top; a basic-event top is the one root.
    std::vector<FtRef> roots;

    [[nodiscard]] std::size_t size() const noexcept { return roots.size(); }
    [[nodiscard]] FtRef top() const { return roots.back(); }
};

/// What find_modules reuses from one call to the next: its visit-date
/// arrays, indexed by the tree, and its walk stack.  The result does not
/// depend on what an earlier call left here.
struct ModuleWorkspace {
    std::vector<std::uint64_t> basic_lo;
    std::vector<std::uint64_t> basic_hi;
    std::vector<std::uint64_t> gate_lo;
    std::vector<std::uint64_t> gate_hi;
    std::vector<std::uint64_t> gate_fin;
    std::vector<std::uint64_t> gate_min;
    std::vector<std::uint64_t> gate_max;
    DepthFirstStack stack;
};

/// Detects the independent modules of the tree reachable from ft.top()
/// in linear time, on `workspace`'s buffers.  The top node is always a
/// module (possibly the only one); a top that is a single basic event
/// yields one leaf module.  Emits the "find_modules" span.
[[nodiscard]] ModuleDecomposition find_modules(const FaultTree& ft, ModuleWorkspace& workspace);

/// The same on a workspace of its own.
[[nodiscard]] ModuleDecomposition find_modules(const FaultTree& ft);

}  // namespace asilkit::ftree
