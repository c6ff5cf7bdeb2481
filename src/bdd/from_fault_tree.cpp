#include "bdd/from_fault_tree.h"

#include <cmath>
#include <functional>
#include <unordered_map>

#include "obs/trace.h"

namespace asilkit::bdd {

using ftree::FaultTree;
using ftree::FtRef;
using ftree::GateKind;

namespace {

/// "No variable" sentinel of the index-addressed lookup tables below.
constexpr std::uint32_t kNoVar = 0xFFFFFFFFu;

/// The paper's local variable order of one module: BFS from the module
/// root, leaves (basic events and pseudo-variables) numbered in
/// first-seen order.  Lookup tables are index-addressed (kNoVar =
/// absent): this runs once per module per candidate, and hash-map
/// traffic dominated it.
struct ModuleOrdering {
    std::vector<std::uint32_t> var_of_event;   ///< by basic-event index
    std::vector<std::uint32_t> var_of_pseudo;  ///< by gate index
    struct Leaf {
        bool pseudo = false;
        /// Basic-event index, or (pseudo) position in mod.child_modules.
        std::uint32_t index = 0;
    };
    std::vector<Leaf> leaves;  // in variable order
    std::size_t real_events = 0;
};

ModuleOrdering module_ordering(const FaultTree& ft, const ftree::ModuleDecomposition& dec,
                               const ftree::Module& mod) {
    ModuleOrdering ord;
    ord.var_of_event.assign(ft.basic_events().size(), kNoVar);
    ord.var_of_pseudo.assign(ft.gates().size(), kNoVar);
    std::vector<std::uint32_t> pseudo_pos(ft.gates().size(), kNoVar);  // gate -> child position
    for (std::size_t i = 0; i < mod.child_modules.size(); ++i) {
        pseudo_pos[dec.modules[mod.child_modules[i]].root.index] = static_cast<std::uint32_t>(i);
    }
    std::vector<char> seen_gates(ft.gates().size(), 0);
    seen_gates[mod.root.index] = 1;
    std::vector<FtRef> queue{mod.root};
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const FtRef r = queue[head];
        for (FtRef c : ft.gate(r.index).children) {
            if (c.kind == FtRef::Kind::Basic) {
                if (ord.var_of_event[c.index] == kNoVar) {
                    ord.var_of_event[c.index] = static_cast<std::uint32_t>(ord.leaves.size());
                    ord.leaves.push_back({false, c.index});
                    ++ord.real_events;
                }
                continue;
            }
            if (pseudo_pos[c.index] != kNoVar) {
                if (ord.var_of_pseudo[c.index] == kNoVar) {
                    ord.var_of_pseudo[c.index] = static_cast<std::uint32_t>(ord.leaves.size());
                    ord.leaves.push_back({true, pseudo_pos[c.index]});
                }
                continue;
            }
            if (seen_gates[c.index] == 0) {
                seen_gates[c.index] = 1;
                queue.push_back(c);
            }
        }
    }
    return ord;
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
    std::unordered_map<std::uint32_t, std::uint32_t> var_of_event;
    for (std::uint32_t v = 0; v < event_order.size(); ++v) {
        var_of_event.emplace(event_order[v], v);
    }

    std::unordered_map<std::uint32_t, BddRef> gate_memo;
    std::function<BddRef(FtRef)> compile = [&](FtRef r) -> BddRef {
        if (r.kind == FtRef::Kind::Basic) {
            const auto it = var_of_event.find(r.index);
            if (it == var_of_event.end()) {
                throw AnalysisError("compile_fault_tree: event '" +
                                    ft.basic_event(r.index).name + "' missing from ordering");
            }
            return out.manager.variable(it->second);
        }
        if (auto it = gate_memo.find(r.index); it != gate_memo.end()) return it->second;
        const ftree::Gate& g = ft.gate(r.index);
        // A failure gate with no children has no failure mode: constant 0
        // for both gate kinds (fault-tree semantics, not boolean algebra).
        BddRef acc = kFalse;
        bool first = true;
        for (FtRef c : g.children) {
            const BddRef cb = compile(c);
            if (first) {
                acc = cb;
                first = false;
            } else {
                acc = out.manager.apply(g.kind == GateKind::Or ? BddOp::Or : BddOp::And, acc, cb);
            }
        }
        gate_memo.emplace(r.index, acc);
        return acc;
    };
    out.root = compile(ft.top());
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

ModuleEvalResult evaluate_module(const FaultTree& ft, const ftree::ModuleDecomposition& dec,
                                 std::size_t module_index,
                                 std::span<const double> child_probabilities,
                                 double mission_hours) {
    const obs::ObsSpan span("evaluate_module", "bdd", "module",
                            static_cast<double>(module_index));
    const ftree::Module& mod = dec.modules.at(module_index);
    if (child_probabilities.size() != mod.child_modules.size()) {
        throw AnalysisError("evaluate_module: child probability count mismatch");
    }
    ModuleEvalResult out;
    if (mod.root.kind == FtRef::Kind::Basic) {
        // Leaf module: the whole tree is one basic event.
        out.probability = basic_event_probability(ft.basic_event(mod.root.index).lambda,
                                                  mission_hours);
        out.variables = 1;
        out.bdd_nodes = 1;
        out.bdd_total_nodes = 1;
        return out;
    }

    // Local variable order: BFS from the module root, leaves (basic
    // events and pseudo-variables) numbered in first-seen order —
    // the paper's ordering restricted to the module.
    const ModuleOrdering ord = module_ordering(ft, dec, mod);
    std::vector<double> probs(ord.leaves.size());
    for (std::size_t v = 0; v < ord.leaves.size(); ++v) {
        const ModuleOrdering::Leaf& leaf = ord.leaves[v];
        probs[v] = leaf.pseudo
                       ? child_probabilities[leaf.index]
                       : basic_event_probability(ft.basic_event(leaf.index).lambda, mission_hours);
    }

    BddManager manager(static_cast<std::uint32_t>(probs.size()));
    std::unordered_map<std::uint32_t, BddRef> gate_memo;
    std::function<BddRef(FtRef)> compile = [&](FtRef r) -> BddRef {
        if (r.kind == FtRef::Kind::Basic) return manager.variable(ord.var_of_event[r.index]);
        if (ord.var_of_pseudo[r.index] != kNoVar) {
            return manager.variable(ord.var_of_pseudo[r.index]);
        }
        if (const auto it = gate_memo.find(r.index); it != gate_memo.end()) return it->second;
        const ftree::Gate& g = ft.gate(r.index);
        BddRef acc = kFalse;
        bool first = true;
        for (FtRef c : g.children) {
            const BddRef cb = compile(c);
            if (first) {
                acc = cb;
                first = false;
            } else {
                acc = manager.apply(g.kind == GateKind::Or ? BddOp::Or : BddOp::And, acc, cb);
            }
        }
        gate_memo.emplace(r.index, acc);
        return acc;
    };
    const BddRef root = compile(mod.root);
    out.probability = manager.probability(root, probs);
    out.bdd_nodes = manager.node_count(root);
    out.bdd_total_nodes = manager.size();
    out.variables = ord.real_events;
    manager.flush_obs();
    return out;
}

}  // namespace asilkit::bdd
