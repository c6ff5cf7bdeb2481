#include "bdd/from_fault_tree.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"

namespace asilkit::bdd {

using ftree::FaultTree;
using ftree::FtRef;
using ftree::GateKind;

namespace {

/// "No variable" sentinel of the index-addressed lookup tables below.
constexpr std::uint32_t kNoVar = 0xFFFFFFFFu;

/// A gate's function: its children's functions folded left to right
/// with apply, OR children with BddOp::Or and AND children with
/// BddOp::And.  `child(c)` yields a child's function.  A failure gate
/// with no children has no failure mode: constant 0 for both gate kinds
/// (fault-tree semantics, not boolean algebra).
template <class Child>
BddRef compile_gate(BddManager& manager, const ftree::Gate& g, Child&& child) {
    if (g.children.empty()) return kFalse;
    const BddOp op = g.kind == GateKind::Or ? BddOp::Or : BddOp::And;
    BddRef acc = child(g.children.front());
    for (std::size_t i = 1; i < g.children.size(); ++i) {
        acc = manager.apply(op, acc, child(g.children[i]));
    }
    return acc;
}

}  // namespace

std::vector<std::uint32_t> ft_variable_order(const FaultTree& ft) {
    // Index-addressed seen flags and a head-cursor queue.
    std::vector<std::uint32_t> order;
    std::vector<char> seen_events(ft.basic_events().size(), 0);
    std::vector<char> seen_gates(ft.gates().size(), 0);
    std::vector<FtRef> queue{ft.top()};
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const FtRef r = queue[head];
        if (r.kind == FtRef::Kind::Basic) {
            if (seen_events[r.index] == 0) {
                seen_events[r.index] = 1;
                order.push_back(r.index);
            }
            continue;
        }
        if (seen_gates[r.index] != 0) continue;
        seen_gates[r.index] = 1;
        for (FtRef c : ft.gate(r.index).children) queue.push_back(c);
    }
    return order;
}

CompiledFaultTree compile_fault_tree(const FaultTree& ft) {
    return compile_fault_tree(ft, ft_variable_order(ft));
}

CompiledFaultTree compile_fault_tree(const FaultTree& ft,
                                     const std::vector<std::uint32_t>& event_order) {
    CompiledFaultTree out{BddManager{static_cast<std::uint32_t>(event_order.size())}, kFalse,
                          event_order};
    std::vector<std::uint32_t> var_of_event(ft.basic_events().size(), kNoVar);
    for (std::uint32_t v = 0; v < event_order.size(); ++v) {
        const std::uint32_t e = event_order[v];
        if (e < var_of_event.size() && var_of_event[e] == kNoVar) var_of_event[e] = v;
    }
    const auto event_bdd = [&](std::uint32_t e) {
        if (var_of_event[e] == kNoVar) {
            throw AnalysisError("compile_fault_tree: event '" + ft.basic_event(e).name +
                                "' missing from ordering");
        }
        return out.manager.variable(var_of_event[e]);
    };

    const FtRef top = ft.top();
    std::vector<BddRef> gate_bdd(ft.gates().size(), kFalse);
    for (const std::uint32_t g : ft.reachable_gates(top)) {
        gate_bdd[g] = compile_gate(out.manager, ft.gates()[g], [&](FtRef c) {
            return c.kind == FtRef::Kind::Basic ? event_bdd(c.index) : gate_bdd[c.index];
        });
    }
    out.root = top.kind == FtRef::Kind::Basic ? event_bdd(top.index) : gate_bdd[top.index];
    return out;
}

double basic_event_probability(double lambda, double hours) noexcept {
    return 1.0 - std::exp(-lambda * hours);
}

std::vector<double> CompiledFaultTree::variable_probabilities(const FaultTree& ft,
                                                              double hours) const {
    std::vector<double> probs;
    probs.reserve(event_of_var.size());
    for (std::uint32_t event : event_of_var) {
        probs.push_back(basic_event_probability(ft.basic_event(event).lambda, hours));
    }
    return probs;
}

std::vector<ModuleEvalResult> evaluate_modules(const FaultTree& ft,
                                               const ftree::ModuleDecomposition& dec,
                                               double mission_hours, ModuleEvalWorkspace& ws) {
    std::vector<ModuleEvalResult> results(dec.size());
    // Lookup tables indexed by the whole tree and filled as the modules
    // go.  Every basic event and gate lies in one module's region, and
    // every nested module root in one parent's region, so no entry is
    // written twice and none is reset: a tree of many small modules
    // costs time linear in its size.  A gate the BFS meets in another
    // module's region is that (already evaluated) module's root.
    const std::size_t gate_count = ft.gates().size();
    std::vector<std::uint32_t>& region_of = ws.region_of;  // gate -> module index
    std::vector<std::uint32_t>& var_of_event = ws.var_of_event;
    std::vector<std::uint32_t>& var_of_pseudo = ws.var_of_pseudo;
    std::vector<BddRef>& gate_bdd = ws.gate_bdd;
    std::vector<std::uint32_t>& region = ws.region;
    std::vector<double>& probs = ws.probs;  // per local variable
    BddManager& manager = ws.manager;
    region_of.assign(gate_count, kNoVar);
    var_of_event.assign(ft.basic_events().size(), kNoVar);
    var_of_pseudo.assign(gate_count, kNoVar);
    gate_bdd.assign(gate_count, kFalse);

    for (std::size_t i = 0; i < dec.size(); ++i) {
        const obs::ObsSpan span("evaluate_module", "bdd", "module", static_cast<double>(i));
        const ftree::Module& mod = dec.modules[i];
        ModuleEvalResult& out = results[i];
        if (mod.root.kind == FtRef::Kind::Basic) {
            // Leaf module: the whole tree is one basic event.
            out.probability = basic_event_probability(ft.basic_event(mod.root.index).lambda,
                                                      mission_hours);
            out.variables = 1;
            out.bdd_nodes = 1;
            out.bdd_total_nodes = 1;
            continue;
        }

        // Local variable order: BFS from the module root, leaves (basic
        // events and nested modules' pseudo-variables) numbered in
        // first-seen order — the paper's ordering restricted to the
        // module.  A pseudo-variable carries its module's probability.
        const auto self = static_cast<std::uint32_t>(i);
        probs.clear();
        region.assign(1, mod.root.index);
        region_of[mod.root.index] = self;
        for (std::size_t head = 0; head < region.size(); ++head) {
            for (const FtRef c : ft.gates()[region[head]].children) {
                if (c.kind == FtRef::Kind::Basic) {
                    if (var_of_event[c.index] != kNoVar) continue;
                    var_of_event[c.index] = static_cast<std::uint32_t>(probs.size());
                    probs.push_back(
                        basic_event_probability(ft.basic_events()[c.index].lambda, mission_hours));
                    ++out.variables;
                } else if (region_of[c.index] == kNoVar) {
                    region_of[c.index] = self;
                    region.push_back(c.index);
                } else if (region_of[c.index] != self && var_of_pseudo[c.index] == kNoVar) {
                    var_of_pseudo[c.index] = static_cast<std::uint32_t>(probs.size());
                    probs.push_back(results[region_of[c.index]].probability);
                }
            }
        }

        // Compile the region's gates in index order, children first, on
        // the workspace's manager emptied for this module.
        manager.reset(static_cast<std::uint32_t>(probs.size()));
        std::sort(region.begin(), region.end());
        for (const std::uint32_t g : region) {
            gate_bdd[g] = compile_gate(manager, ft.gates()[g], [&](FtRef c) {
                if (c.kind == FtRef::Kind::Basic) return manager.variable(var_of_event[c.index]);
                if (region_of[c.index] != self) return manager.variable(var_of_pseudo[c.index]);
                return gate_bdd[c.index];
            });
        }
        const BddRef root = gate_bdd[mod.root.index];
        out.probability = manager.probability(root, probs);
        out.bdd_nodes = manager.node_count(root);
        out.bdd_total_nodes = manager.size();
        manager.flush_obs();
    }
    return results;
}

std::vector<ModuleEvalResult> evaluate_modules(const FaultTree& ft,
                                               const ftree::ModuleDecomposition& dec,
                                               double mission_hours) {
    ModuleEvalWorkspace workspace;
    return evaluate_modules(ft, dec, mission_hours, workspace);
}

}  // namespace asilkit::bdd
