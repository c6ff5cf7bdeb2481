#include "ftree/modules.h"

#include <algorithm>

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
    ModuleWorkspace workspace;
    return find_modules(ft, workspace);
}

ModuleDecomposition find_modules(const FaultTree& ft, ModuleWorkspace& ws) {
    const obs::ObsSpan span("find_modules", "ftree");
    ModuleDecomposition dec;
    const FtRef top = ft.top();

    if (top.kind == FtRef::Kind::Basic) {
        dec.roots.push_back(top);
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
    std::vector<std::uint64_t>& basic_lo = ws.basic_lo;
    std::vector<std::uint64_t>& basic_hi = ws.basic_hi;
    std::vector<std::uint64_t>& gate_lo = ws.gate_lo;
    std::vector<std::uint64_t>& gate_hi = ws.gate_hi;
    std::vector<std::uint64_t>& gate_fin = ws.gate_fin;
    basic_lo.assign(basic_count, kUnvisited);
    basic_hi.assign(basic_count, 0);
    gate_lo.assign(gate_count, kUnvisited);
    gate_hi.assign(gate_count, 0);
    gate_fin.assign(gate_count, 0);
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
        },
        ws.stack);

    // Phase 2: per-gate min/max visit date over the gate and all its
    // descendants, one loop over the dated (reachable) gates in index
    // order, so every gate child is done before its parent.
    //
    // Phase 3, in the same loop: the module test.  A gate is a module
    // iff every strict descendant's dates stay inside its own expansion
    // window — i.e. no descendant is also referenced from outside the
    // subtree.  The gate's own revisit dates are deliberately excluded:
    // a shared module is still a module (its pseudo-variable simply
    // occurs several times in the enclosing region).  The top, always
    // a module, is the highest reachable gate, so it comes last.
    std::vector<std::uint64_t>& gate_min = ws.gate_min;
    std::vector<std::uint64_t>& gate_max = ws.gate_max;
    gate_min.assign(gate_count, 0);
    gate_max.assign(gate_count, 0);
    dec.roots.reserve(gate_count);  // one allocation: at most a root per gate
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
        if (mod || g == top.index) dec.roots.push_back(FtRef{FtRef::Kind::Gate, g});
    }
    count_decomposition(dec);
    return dec;
}

}  // namespace asilkit::ftree
