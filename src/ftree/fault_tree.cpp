#include "ftree/fault_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <ostream>
#include <tuple>
#include <unordered_set>

#include "core/hash.h"
#include "obs/trace.h"

namespace asilkit::ftree {

std::string_view to_string(GateKind k) noexcept {
    return k == GateKind::Or ? "OR" : "AND";
}

std::ostream& operator<<(std::ostream& os, const FaultTreeStats& s) {
    return os << "{basic_events=" << s.basic_events << ", gates=" << s.gates
              << ", dag_nodes=" << s.dag_nodes << ", expanded_nodes=" << s.expanded_nodes
              << ", paths=" << s.paths << ", depth=" << s.depth << "}";
}

FtRef FaultTree::add_basic_event(std::string name, double lambda) {
    if (auto it = basic_by_name_.find(name); it != basic_by_name_.end()) {
        const BasicEvent& existing = basics_[it->second];
        if (existing.lambda != lambda) {
            throw AnalysisError("basic event '" + name + "' re-added with lambda " +
                                std::to_string(lambda) + " != " + std::to_string(existing.lambda));
        }
        return FtRef{FtRef::Kind::Basic, it->second};
    }
    const auto index = static_cast<std::uint32_t>(basics_.size());
    basic_by_name_.emplace(name, index);
    basics_.push_back(BasicEvent{std::move(name), lambda});
    return FtRef{FtRef::Kind::Basic, index};
}

FtRef FaultTree::add_gate(std::string name, GateKind kind, std::vector<FtRef> children) {
    const auto index = static_cast<std::uint32_t>(gates_.size());
    gates_.push_back(Gate{std::move(name), kind, std::move(children)});
    return FtRef{FtRef::Kind::Gate, index};
}

void FaultTree::add_child(FtRef gate_ref, FtRef child) {
    if (gate_ref.kind != FtRef::Kind::Gate || gate_ref.index >= gates_.size()) {
        throw AnalysisError("add_child: parent is not a valid gate");
    }
    gates_[gate_ref.index].children.push_back(child);
}

void FaultTree::set_top(FtRef top) {
    top_ = top;
    has_top_ = true;
}

FtRef FaultTree::top() const {
    if (!has_top_) throw AnalysisError("fault tree has no top event");
    return top_;
}

const BasicEvent& FaultTree::basic_event(std::uint32_t index) const {
    if (index >= basics_.size()) throw AnalysisError("basic event index out of range");
    return basics_[index];
}

const Gate& FaultTree::gate(std::uint32_t index) const {
    if (index >= gates_.size()) throw AnalysisError("gate index out of range");
    return gates_[index];
}

const BasicEvent& FaultTree::basic_event(FtRef r) const {
    if (r.kind != FtRef::Kind::Basic) throw AnalysisError("FtRef is not a basic event");
    return basic_event(r.index);
}

const Gate& FaultTree::gate(FtRef r) const {
    if (r.kind != FtRef::Kind::Gate) throw AnalysisError("FtRef is not a gate");
    return gate(r.index);
}

FtRef FaultTree::find_basic_event(std::string_view name) const {
    if (auto it = basic_by_name_.find(std::string(name)); it != basic_by_name_.end()) {
        return FtRef{FtRef::Kind::Basic, it->second};
    }
    throw AnalysisError("no basic event named '" + std::string(name) + "'");
}

bool FaultTree::has_basic_event(std::string_view name) const noexcept {
    return basic_by_name_.contains(std::string(name));
}

FaultTreeStats FaultTree::stats() const {
    FaultTreeStats s;
    if (!has_top_) return s;
    constexpr std::uint64_t kCap = std::uint64_t{1} << 62;
    auto sat_add = [kCap](std::uint64_t a, std::uint64_t b) {
        return a > kCap - std::min(b, kCap) ? kCap : a + b;
    };

    struct Memo {
        std::uint64_t expanded = 0;
        std::uint64_t paths = 0;
        std::size_t depth = 0;
    };
    std::unordered_map<std::uint64_t, Memo> memo;  // key: kind<<32|index
    std::unordered_set<std::uint64_t> dag_seen;
    auto key = [](FtRef r) {
        return (static_cast<std::uint64_t>(r.kind) << 32) | r.index;
    };

    std::function<Memo(FtRef)> visit = [&](FtRef r) -> Memo {
        if (auto it = memo.find(key(r)); it != memo.end()) return it->second;
        dag_seen.insert(key(r));
        Memo m;
        if (r.kind == FtRef::Kind::Basic) {
            m = Memo{1, 1, 1};
        } else {
            m.expanded = 1;
            m.paths = 0;
            m.depth = 1;
            for (FtRef c : gates_[r.index].children) {
                const Memo cm = visit(c);
                m.expanded = sat_add(m.expanded, cm.expanded);
                m.paths = sat_add(m.paths, cm.paths);
                m.depth = std::max(m.depth, cm.depth + 1);
            }
        }
        memo[key(r)] = m;
        return m;
    };
    const Memo top_memo = visit(top_);
    for (std::uint64_t k : dag_seen) {
        if ((k >> 32) == static_cast<std::uint64_t>(FtRef::Kind::Basic)) {
            ++s.basic_events;
        } else {
            ++s.gates;
        }
    }
    s.dag_nodes = s.basic_events + s.gates;
    s.expanded_nodes = top_memo.expanded;
    s.paths = top_memo.paths;
    s.depth = top_memo.depth;
    return s;
}

std::uint64_t FaultTree::structural_hash() const {
    const FtRef root = top();  // throws when the tree has no top event
    // Basic events are numbered by first occurrence in this depth-first
    // traversal, which abstracts names away while preserving the sharing
    // pattern (one event referenced from two gates hashes differently
    // from two equal-rate events referenced once each).
    std::unordered_map<std::uint32_t, std::uint64_t> basic_id;
    std::unordered_map<std::uint32_t, std::uint64_t> gate_memo;
    std::function<std::uint64_t(FtRef)> visit = [&](FtRef r) -> std::uint64_t {
        if (r.kind == FtRef::Kind::Basic) {
            const auto [it, inserted] = basic_id.try_emplace(r.index, basic_id.size());
            const double lambda = basics_[r.index].lambda;
            std::uint64_t lambda_bits;
            static_assert(sizeof(lambda_bits) == sizeof(lambda));
            std::memcpy(&lambda_bits, &lambda, sizeof(lambda_bits));
            return hash::combine(hash::combine(0x6261736963ull /* "basic" */, it->second),
                                 lambda_bits);
        }
        if (auto it = gate_memo.find(r.index); it != gate_memo.end()) return it->second;
        const Gate& g = gates_[r.index];
        std::uint64_t h = hash::combine(0x67617465ull /* "gate" */,
                                        static_cast<std::uint64_t>(g.kind));
        for (FtRef c : g.children) h = hash::combine(h, visit(c));
        gate_memo.emplace(r.index, h);
        return h;
    };
    return visit(root);
}

FaultTree canonical_form(const FaultTree& ft) {
    const obs::ObsSpan span("canonical_form", "ftree");
    const FtRef root = ft.top();

    // Phase 0: reference counts (how many parent slots point at each
    // node, duplicates included).  They feed the ordering hash so that a
    // branch containing a *shared* event — e.g. the single resource
    // event a candidate merge creates — orders differently from a
    // pristine branch whose events carry the same rates.  Without this,
    // mirror merges in redundant branches tie under a sharing-blind hash
    // and stable sort keeps them apart.  The same walk records each
    // event's parent gates for the phase-1.5 context refinement.
    std::unordered_map<std::uint32_t, std::uint32_t> basic_refs;
    std::unordered_map<std::uint32_t, std::uint32_t> gate_refs;
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> basic_parents;
    {
        std::vector<FtRef> stack{root};
        std::unordered_set<std::uint32_t> visited;
        ++gate_refs[root.index];  // root counts as referenced once
        while (!stack.empty()) {
            const FtRef r = stack.back();
            stack.pop_back();
            if (r.kind == FtRef::Kind::Basic) continue;
            if (!visited.insert(r.index).second) continue;
            for (FtRef c : ft.gate(r.index).children) {
                if (c.kind == FtRef::Kind::Basic) {
                    ++basic_refs[c.index];
                    basic_parents[c.index].push_back(r.index);
                } else {
                    ++gate_refs[c.index];
                    stack.push_back(c);
                }
            }
        }
    }

    // Phase 1: bottom-up ordering hashes, one rate-blind and one
    // rate-inclusive per node.  Child hashes are sorted before
    // combining, so both are invariant under child permutation — they
    // only *order* children; the final structural_hash() of the rebuilt
    // tree is what captures sharing exactly.
    //
    // Children sort primarily by the rate-blind hash (shape + sharing),
    // with the rate-inclusive hash as tiebreaker, so rates only order
    // siblings that shape and sharing cannot separate.  Nothing depends
    // on that rate-blindness, but the two-key order fixes today's child
    // order, and with it every module's BDD variable order and the
    // floating-point schedule: the golden bit patterns of OnePath.* in
    // tests/test_engine.cpp pin it.  A different sort key would be
    // equally exact yet move result bits.
    std::unordered_map<std::uint32_t, std::uint64_t> gate_prelim;
    std::function<std::uint64_t(FtRef)> prelim = [&](FtRef r) -> std::uint64_t {
        if (r.kind == FtRef::Kind::Basic) {
            const double lambda = ft.basic_event(r.index).lambda;
            std::uint64_t lambda_bits;
            std::memcpy(&lambda_bits, &lambda, sizeof(lambda_bits));
            return hash::combine(hash::combine(0x6576656E74ull /* "event" */, lambda_bits),
                                 basic_refs[r.index]);
        }
        if (auto it = gate_prelim.find(r.index); it != gate_prelim.end()) return it->second;
        const Gate& g = ft.gate(r.index);
        std::vector<std::uint64_t> child_hashes;
        child_hashes.reserve(g.children.size());
        for (FtRef c : g.children) child_hashes.push_back(prelim(c));
        std::sort(child_hashes.begin(), child_hashes.end());
        std::uint64_t h =
            hash::combine(0x67617465ull /* "gate" */, static_cast<std::uint64_t>(g.kind));
        h = hash::combine(h, gate_refs[r.index]);
        for (const std::uint64_t ch : child_hashes) h = hash::combine(h, ch);
        gate_prelim.emplace(r.index, h);
        return h;
    };
    std::unordered_map<std::uint32_t, std::uint64_t> gate_shape;
    std::function<std::uint64_t(FtRef)> shape_prelim = [&](FtRef r) -> std::uint64_t {
        if (r.kind == FtRef::Kind::Basic) {
            // Reference counts, not rates: a branch containing a
            // *shared* event (the single resource event a candidate
            // merge creates) must still order apart from a pristine
            // branch of the same shape.
            return hash::combine(0x7368617065ull /* "shape" */, basic_refs[r.index]);
        }
        if (auto it = gate_shape.find(r.index); it != gate_shape.end()) return it->second;
        const Gate& g = ft.gate(r.index);
        std::vector<std::uint64_t> child_hashes;
        child_hashes.reserve(g.children.size());
        for (FtRef c : g.children) child_hashes.push_back(shape_prelim(c));
        std::sort(child_hashes.begin(), child_hashes.end());
        std::uint64_t h =
            hash::combine(0x67617465ull /* "gate" */, static_cast<std::uint64_t>(g.kind));
        h = hash::combine(h, gate_refs[r.index]);
        for (const std::uint64_t ch : child_hashes) h = hash::combine(h, ch);
        gate_shape.emplace(r.index, h);
        return h;
    };

    // Phase 1.5: context refinement.  The phase-1 hashes see an event as
    // (rate, ref count) — two *distinct* shared events with equal rates
    // and equal ref counts tie, and the stable sort then falls back to
    // construction order.  Construction order is declaration order of
    // the source model, so two isomorphic models declared in different
    // component/edge order could canonicalise into trees whose event
    // first-occurrence patterns differ — different structural_hash for
    // the same structure.  One Weisfeiler–Leman-style round breaks the
    // tie by context: each event is refined with the sorted multiset of
    // its parent gates' phase-1 hashes, so events shared into different
    // regions order apart by content, not by declaration order.  The
    // rate-blind refinement uses rate-blind parent hashes, so the
    // primary sort key stays rate-blind and the child order stays the
    // one the golden bits pin (see phase 1).
    prelim(root);        // populate gate_prelim for every reachable gate
    shape_prelim(root);  // populate gate_shape likewise
    auto context_sig = [&](const std::vector<std::uint32_t>& parents,
                           const std::unordered_map<std::uint32_t, std::uint64_t>& gate_hash) {
        std::vector<std::uint64_t> hs;
        hs.reserve(parents.size());
        for (const std::uint32_t g : parents) hs.push_back(gate_hash.at(g));
        std::sort(hs.begin(), hs.end());
        std::uint64_t h = 0x637478ull /* "ctx" */;
        for (const std::uint64_t ph : hs) h = hash::combine(h, ph);
        return h;
    };
    std::unordered_map<std::uint32_t, std::uint64_t> refined_gate;
    std::function<std::uint64_t(FtRef)> refined = [&](FtRef r) -> std::uint64_t {
        if (r.kind == FtRef::Kind::Basic) {
            return hash::combine(prelim(r), context_sig(basic_parents[r.index], gate_prelim));
        }
        if (auto it = refined_gate.find(r.index); it != refined_gate.end()) return it->second;
        const Gate& g = ft.gate(r.index);
        std::vector<std::uint64_t> child_hashes;
        child_hashes.reserve(g.children.size());
        for (FtRef c : g.children) child_hashes.push_back(refined(c));
        std::sort(child_hashes.begin(), child_hashes.end());
        std::uint64_t h =
            hash::combine(0x67617465ull /* "gate" */, static_cast<std::uint64_t>(g.kind));
        h = hash::combine(h, gate_refs[r.index]);
        for (const std::uint64_t ch : child_hashes) h = hash::combine(h, ch);
        refined_gate.emplace(r.index, h);
        return h;
    };
    std::unordered_map<std::uint32_t, std::uint64_t> refined_shape_gate;
    std::function<std::uint64_t(FtRef)> refined_shape = [&](FtRef r) -> std::uint64_t {
        if (r.kind == FtRef::Kind::Basic) {
            return hash::combine(shape_prelim(r), context_sig(basic_parents[r.index], gate_shape));
        }
        if (auto it = refined_shape_gate.find(r.index); it != refined_shape_gate.end()) {
            return it->second;
        }
        const Gate& g = ft.gate(r.index);
        std::vector<std::uint64_t> child_hashes;
        child_hashes.reserve(g.children.size());
        for (FtRef c : g.children) child_hashes.push_back(refined_shape(c));
        std::sort(child_hashes.begin(), child_hashes.end());
        std::uint64_t h =
            hash::combine(0x67617465ull /* "gate" */, static_cast<std::uint64_t>(g.kind));
        h = hash::combine(h, gate_refs[r.index]);
        for (const std::uint64_t ch : child_hashes) h = hash::combine(h, ch);
        refined_shape_gate.emplace(r.index, h);
        return h;
    };

    // Phase 2: rebuild with children stably sorted by their refined
    // (rate-blind, rate-inclusive) hash pair.  Stability keeps full
    // ties (identical subtree shapes, sharing, rates and context) in
    // original order — those never produce a false cache hit because the
    // final order-dependent hash still separates them.
    FaultTree out;
    std::unordered_map<std::uint32_t, FtRef> basic_map;
    std::unordered_map<std::uint32_t, FtRef> gate_map;
    std::function<FtRef(FtRef)> rebuild = [&](FtRef r) -> FtRef {
        if (r.kind == FtRef::Kind::Basic) {
            if (auto it = basic_map.find(r.index); it != basic_map.end()) return it->second;
            const BasicEvent& e = ft.basic_event(r.index);
            const FtRef added = out.add_basic_event(e.name, e.lambda);
            basic_map.emplace(r.index, added);
            return added;
        }
        if (auto it = gate_map.find(r.index); it != gate_map.end()) return it->second;
        const Gate& g = ft.gate(r.index);
        std::vector<std::tuple<std::uint64_t, std::uint64_t, std::size_t>> order;
        order.reserve(g.children.size());
        for (std::size_t i = 0; i < g.children.size(); ++i) {
            order.emplace_back(refined_shape(g.children[i]), refined(g.children[i]), i);
        }
        std::stable_sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
            if (std::get<0>(a) != std::get<0>(b)) return std::get<0>(a) < std::get<0>(b);
            return std::get<1>(a) < std::get<1>(b);
        });
        std::vector<FtRef> children;
        children.reserve(order.size());
        for (const auto& [sh, h, i] : order) children.push_back(rebuild(g.children[i]));
        const FtRef added = out.add_gate(g.name, g.kind, std::move(children));
        gate_map.emplace(r.index, added);
        return added;
    };
    out.set_top(rebuild(root));
    return out;
}

std::vector<std::uint32_t> FaultTree::reachable_basic_events(FtRef root) const {
    std::vector<std::uint32_t> out;
    std::unordered_set<std::uint64_t> seen;
    auto key = [](FtRef r) {
        return (static_cast<std::uint64_t>(r.kind) << 32) | r.index;
    };
    std::vector<FtRef> stack{root};
    while (!stack.empty()) {
        const FtRef r = stack.back();
        stack.pop_back();
        if (!seen.insert(key(r)).second) continue;
        if (r.kind == FtRef::Kind::Basic) {
            out.push_back(r.index);
        } else {
            for (FtRef c : gate(r.index).children) stack.push_back(c);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace asilkit::ftree
