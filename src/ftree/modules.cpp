#include "ftree/modules.h"

#include <algorithm>
#include <functional>
#include <unordered_set>
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

    const std::size_t gate_count = ft.gates().size();
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
    std::function<void(FtRef)> visit = [&](FtRef r) {
        ++t;
        if (r.kind == FtRef::Kind::Basic) {
            if (basic_lo[r.index] == kUnvisited) basic_lo[r.index] = t;
            basic_hi[r.index] = t;
            return;
        }
        if (gate_lo[r.index] != kUnvisited) {
            gate_hi[r.index] = t;  // dates are monotone: later revisits win
            return;
        }
        gate_lo[r.index] = t;
        for (FtRef c : ft.gate(r.index).children) visit(c);
        ++t;
        gate_fin[r.index] = t;
        gate_hi[r.index] = t;
    };
    visit(top);

    // Phase 2: per-node min/max visit date over the node and all its
    // descendants, memoised over the DAG.
    std::vector<std::uint64_t> gate_min(gate_count, 0);
    std::vector<std::uint64_t> gate_max(gate_count, 0);
    std::vector<char> agg_done(gate_count, 0);
    std::function<std::pair<std::uint64_t, std::uint64_t>(FtRef)> agg =
        [&](FtRef r) -> std::pair<std::uint64_t, std::uint64_t> {
        if (r.kind == FtRef::Kind::Basic) return {basic_lo[r.index], basic_hi[r.index]};
        if (agg_done[r.index]) return {gate_min[r.index], gate_max[r.index]};
        std::uint64_t mn = gate_lo[r.index];
        std::uint64_t mx = gate_hi[r.index];
        for (FtRef c : ft.gate(r.index).children) {
            const auto [cmn, cmx] = agg(c);
            mn = std::min(mn, cmn);
            mx = std::max(mx, cmx);
        }
        agg_done[r.index] = 1;
        gate_min[r.index] = mn;
        gate_max[r.index] = mx;
        return {mn, mx};
    };
    agg(top);

    // Phase 3: the module test.  A gate is a module iff every strict
    // descendant's dates stay inside its own expansion window — i.e. no
    // descendant is also referenced from outside the subtree.  The
    // gate's own revisit dates are deliberately excluded: a shared
    // module is still a module (its pseudo-variable simply occurs
    // several times in the enclosing region).
    std::vector<char> is_module(gate_count, 0);
    for (std::uint32_t g = 0; g < gate_count; ++g) {
        if (gate_lo[g] == kUnvisited) continue;  // unreachable from top
        bool mod = true;
        for (FtRef c : ft.gate(g).children) {
            const auto [cmn, cmx] = agg(c);
            if (cmn < gate_lo[g] || cmx > gate_fin[g]) {
                mod = false;
                break;
            }
        }
        is_module[g] = mod ? 1 : 0;
    }
    is_module[top.index] = 1;  // the whole tree is always a module

    // Phase 4: build the decomposition bottom-up.  Each module's local
    // region is walked depth-first; nested module roots are not entered
    // but built first (children before parents) and listed in
    // first-seen order.
    std::function<std::uint32_t(FtRef)> build = [&](FtRef mroot) -> std::uint32_t {
        if (auto it = dec.module_of_gate.find(mroot.index); it != dec.module_of_gate.end()) {
            return it->second;
        }
        Module m;
        m.root = mroot;
        std::unordered_set<std::uint32_t> events;
        std::unordered_set<std::uint32_t> nested;
        std::unordered_set<std::uint32_t> visited;
        std::function<void(FtRef, bool)> walk = [&](FtRef r, bool at_root) {
            if (r.kind == FtRef::Kind::Basic) {
                events.insert(r.index);
                return;
            }
            if (!at_root && is_module[r.index]) {
                const std::uint32_t child = build(r);
                if (nested.insert(r.index).second) m.child_modules.push_back(child);
                return;
            }
            if (!visited.insert(r.index).second) return;
            for (FtRef c : ft.gate(r.index).children) walk(c, false);
        };
        walk(mroot, true);
        m.basic_events = events.size();
        const auto index = static_cast<std::uint32_t>(dec.modules.size());
        dec.module_of_gate.emplace(mroot.index, index);
        dec.modules.push_back(std::move(m));
        return index;
    };
    build(top);
    count_decomposition(dec);
    return dec;
}

}  // namespace asilkit::ftree
