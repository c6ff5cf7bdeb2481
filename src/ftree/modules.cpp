#include "ftree/modules.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace asilkit::ftree {
namespace {

/// Counts a finished decomposition into the "ftree.*" registry ids.
void count_decomposition(const ModuleDecomposition& dec) {
    static obs::Counter& decompositions =
        obs::Registry::global().counter("ftree.module_decompositions");
    static obs::Gauge& module_count = obs::Registry::global().gauge("ftree.module_count");
    decompositions.inc();
    module_count.set(static_cast<double>(dec.size()));
}

}  // namespace

ModuleDecomposition find_modules(const FaultTree& ft) {
    const obs::ObsSpan span("find_modules", "ftree");
    ModuleDecomposition dec;
    const FtRef top = ft.top();

    if (top.kind == FtRef::Kind::Basic) {
        Module m;
        m.root = top;
        m.basic_events = 1;
        dec.modules.push_back(std::move(m));
        count_decomposition(dec);
        return dec;
    }

    const std::size_t gate_count = top.index + std::size_t{1};
    const std::size_t basic_count = ft.basic_events().size();

    // Phase 1: DFS visit dates.  Every edge is traversed exactly once
    // (an already-expanded gate is dated again but not re-expanded), so
    // a node referenced from outside a subtree carries a visit date
    // outside that subtree root's [first-arrival, completion] window.
    constexpr std::uint64_t kUnvisited = 0;
    std::vector<std::uint64_t> basic_lo(basic_count, kUnvisited);
    std::vector<std::uint64_t> basic_hi(basic_count, 0);
    std::vector<std::uint64_t> gate_lo(gate_count, kUnvisited);
    std::vector<std::uint64_t> gate_hi(gate_count, 0);
    std::vector<std::uint64_t> gate_fin(gate_count, 0);
    std::uint64_t t = 0;
    depth_first(
        ft, top,
        [&](FtRef r) {
            ++t;
            if (r.kind == FtRef::Kind::Basic) {
                if (basic_lo[r.index] == kUnvisited) basic_lo[r.index] = t;
                basic_hi[r.index] = t;
                return false;
            }
            if (gate_lo[r.index] != kUnvisited) {
                gate_hi[r.index] = t;  // dates are monotone: later revisits win
                return false;
            }
            gate_lo[r.index] = t;
            return true;
        },
        [&](std::uint32_t g) {
            ++t;
            gate_fin[g] = t;
            gate_hi[g] = t;
        });

    // Phase 2: per-gate min/max visit date over the gate and all its
    // descendants, one loop over the dated (reachable) gates in index
    // order, so every gate child is done before its parent.
    //
    // Phase 3, in the same loop: the module test.  A gate is a module
    // iff every strict descendant's dates stay inside its own expansion
    // window — i.e. no descendant is also referenced from outside the
    // subtree.  The gate's own revisit dates are deliberately excluded:
    // a shared module is still a module (its pseudo-variable simply
    // occurs several times in the enclosing region).
    std::vector<std::uint64_t> gate_min(gate_count, 0);
    std::vector<std::uint64_t> gate_max(gate_count, 0);
    std::vector<char> is_module(gate_count, 0);
    for (std::uint32_t g = 0; g < gate_count; ++g) {
        if (gate_lo[g] == kUnvisited) continue;  // unreachable from top
        std::uint64_t mn = gate_lo[g];
        std::uint64_t mx = gate_hi[g];
        bool mod = true;
        for (const FtRef c : ft.gates()[g].children) {
            const bool basic = c.kind == FtRef::Kind::Basic;
            const std::uint64_t cmn = basic ? basic_lo[c.index] : gate_min[c.index];
            const std::uint64_t cmx = basic ? basic_hi[c.index] : gate_max[c.index];
            if (cmn < gate_lo[g] || cmx > gate_fin[g]) mod = false;
            mn = std::min(mn, cmn);
            mx = std::max(mx, cmx);
        }
        gate_min[g] = mn;
        gate_max[g] = mx;
        is_module[g] = mod ? 1 : 0;
    }
    is_module[top.index] = 1;  // the whole tree is always a module

    // Phase 4: build the decomposition in a second walk.  A module's
    // local region is what its root reaches without entering a nested
    // module root.  Regions are disjoint — a node reached from two
    // regions would be referenced from outside the inner module's
    // subtree, which phase 3 rules out — so one walk of the whole tree
    // visits each region once.  A module opens when the walk arrives at
    // its root and closes when the root's children are done: nested
    // modules are numbered first (children before parents) and join
    // their parent's child_modules in first-seen order.
    std::vector<char> expanded(gate_count, 0);
    std::vector<char> counted(basic_count, 0);
    std::vector<Module> open(1);  // the modules being walked, innermost last
    open.front().root = top;
    depth_first(
        ft, top,
        [&](FtRef r) {
            if (r.kind == FtRef::Kind::Basic) {
                if (std::exchange(counted[r.index], 1) == 0) ++open.back().basic_events;
                return false;
            }
            if (std::exchange(expanded[r.index], 1) != 0) return false;
            if (is_module[r.index] != 0 && r != top) {
                open.emplace_back();
                open.back().root = r;
            }
            return true;
        },
        [&](std::uint32_t g) {
            if (is_module[g] == 0 || g == top.index) return;
            const auto index = static_cast<std::uint32_t>(dec.modules.size());
            dec.module_of_gate.emplace(g, index);
            dec.modules.push_back(std::move(open.back()));
            open.pop_back();
            open.back().child_modules.push_back(index);
        });
    dec.module_of_gate.emplace(top.index, static_cast<std::uint32_t>(dec.modules.size()));
    dec.modules.push_back(std::move(open.front()));
    count_decomposition(dec);
    return dec;
}

}  // namespace asilkit::ftree
