#include "ftree/fault_tree.h"

#include <algorithm>
#include <bit>
#include <ostream>
#include <utility>

#include "core/hash.h"
#include "obs/trace.h"

namespace asilkit::ftree {
namespace {

std::uint64_t double_bits(double d) noexcept { return std::bit_cast<std::uint64_t>(d); }

/// structural_hash()'s leaf rule: the event numbered `id` by first
/// arrival, with its rate.
std::uint64_t event_key(std::uint64_t id, double lambda) noexcept {
    return hash::combine(hash::combine(0x6261736963ull /* "basic" */, id), double_bits(lambda));
}

/// The seed every gate hash starts from; the children's hashes follow.
std::uint64_t gate_seed(GateKind kind) noexcept {
    return hash::combine(0x67617465ull /* "gate" */, static_cast<std::uint64_t>(kind));
}

/// Throws AnalysisError naming the gate and the child unless `child`
/// exists and, if it is a gate, comes before gate number `gate`.
void check_child(const FaultTree& ft, std::uint32_t gate, std::string_view gate_name,
                 FtRef child) {
    const bool basic = child.kind == FtRef::Kind::Basic;
    if (basic ? child.index < ft.basic_events().size() : child.index < gate) return;
    std::string what = "gate '" + std::string(gate_name) + "' (#" + std::to_string(gate) +
                       "): child " + (basic ? "basic event #" : "gate #") +
                       std::to_string(child.index);
    if (basic || child.index >= ft.gates().size()) {
        what += " does not exist";
    } else {
        what += " ('" + ft.gates()[child.index].name +
                "') does not come before it; a gate is numbered after its children";
    }
    throw AnalysisError(what);
}

/// The gates reachable from gate `root`, ascending, into `out`: one
/// backward sweep from root marks them, since children come before their
/// parents.  `marked` is the sweep's scratch.
void collect_reachable_gates(std::span<const Gate> gates, std::uint32_t root,
                             std::vector<std::uint8_t>& marked, std::vector<std::uint32_t>& out) {
    marked.assign(root + std::size_t{1}, 0);
    marked[root] = 1;
    std::size_t count = 0;
    for (std::uint32_t g = root + 1; g-- > 0;) {
        if (marked[g] == 0) continue;
        ++count;
        for (const FtRef c : gates[g].children) {
            if (c.kind == FtRef::Kind::Gate) marked[c.index] = 1;
        }
    }
    out.clear();
    out.reserve(count);
    for (std::uint32_t g = 0; g <= root; ++g) {
        if (marked[g] != 0) out.push_back(g);
    }
}

/// One family of canonical_form's ordering hashes, into `out`.  Every
/// reachable gate hashes its kind, its reference count and its
/// children's hashes, sorted so the result is invariant under child
/// permutation; `event_hash` holds the basic events' hashes, the
/// family's leaf rule.  `child_hashes` is scratch.
void gate_hashes(const FaultTree& ft, const std::vector<std::uint32_t>& reachable,
                 const std::vector<std::uint32_t>& gate_refs,
                 const std::vector<std::uint64_t>& event_hash,
                 std::vector<std::uint64_t>& child_hashes, std::vector<std::uint64_t>& out) {
    out.assign(gate_refs.size(), 0);
    for (const std::uint32_t g : reachable) {
        const Gate& gate = ft.gates()[g];
        child_hashes.clear();
        for (const FtRef c : gate.children) {
            child_hashes.push_back(c.kind == FtRef::Kind::Basic ? event_hash[c.index]
                                                                : out[c.index]);
        }
        std::sort(child_hashes.begin(), child_hashes.end());
        std::uint64_t h = hash::combine(gate_seed(gate.kind), gate_refs[g]);
        for (const std::uint64_t ch : child_hashes) h = hash::combine(h, ch);
        out[g] = h;
    }
}

/// Each reachable event's parent gates, one entry per reference, into
/// `ws`: event e's are ws.parent[ws.parent_begin[e]] up to
/// ws.parent[ws.parent_begin[e + 1]].  ws.event_refs[e] counts event e's
/// references from the gates in ws.reachable.
void event_parents(const FaultTree& ft, CanonicalWorkspace& ws) {
    const std::size_t event_count = ws.event_refs.size();
    ws.parent_begin.assign(event_count + 1, 0);
    for (std::size_t e = 0; e < event_count; ++e) {
        ws.parent_begin[e + 1] = ws.parent_begin[e] + ws.event_refs[e];
    }
    ws.parent.resize(ws.parent_begin.back());
    ws.parent_next.assign(ws.parent_begin.begin(), ws.parent_begin.end() - 1);
    for (const std::uint32_t g : ws.reachable) {
        for (const FtRef c : ft.gates()[g].children) {
            if (c.kind == FtRef::Kind::Basic) ws.parent[ws.parent_next[c.index]++] = g;
        }
    }
}

/// canonical_form's context refinement of `event_hash`, into `out`: each
/// reachable event folds in the sorted multiset of its parent gates'
/// hashes (event_parents), one per reference.
void refined_by_context(CanonicalWorkspace& ws, const std::vector<std::uint64_t>& event_hash,
                        const std::vector<std::uint64_t>& gate_hash,
                        std::vector<std::uint64_t>& out) {
    out.assign(event_hash.size(), 0);
    std::vector<std::uint64_t>& parent_hashes = ws.sort_keys;
    for (std::size_t e = 0; e < event_hash.size(); ++e) {
        if (ws.parent_begin[e] == ws.parent_begin[e + 1]) continue;  // unreachable
        parent_hashes.clear();
        for (std::uint32_t i = ws.parent_begin[e]; i < ws.parent_begin[e + 1]; ++i) {
            parent_hashes.push_back(gate_hash[ws.parent[i]]);
        }
        std::sort(parent_hashes.begin(), parent_hashes.end());
        std::uint64_t h = 0x637478ull /* "ctx" */;
        for (const std::uint64_t ph : parent_hashes) h = hash::combine(h, ph);
        out[e] = hash::combine(event_hash[e], h);
    }
}

}  // namespace

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
    structural_hash_.reset();
    const auto index = static_cast<std::uint32_t>(basics_.size());
    basic_by_name_.emplace(name, index);
    basics_.push_back(BasicEvent{std::move(name), lambda});
    return FtRef{FtRef::Kind::Basic, index};
}

FtRef FaultTree::add_gate(std::string name, GateKind kind, std::vector<FtRef> children) {
    const auto index = static_cast<std::uint32_t>(gates_.size());
    for (const FtRef c : children) check_child(*this, index, name, c);
    structural_hash_.reset();
    gates_.push_back(Gate{std::move(name), kind, std::move(children)});
    return FtRef{FtRef::Kind::Gate, index};
}

void FaultTree::reserve(std::size_t events, std::size_t gates) {
    basics_.reserve(events);
    basic_by_name_.reserve(events);
    gates_.reserve(gates);
}

FtRef FaultTree::append_event(double lambda) {
    structural_hash_.reset();
    const auto index = static_cast<std::uint32_t>(basics_.size());
    basics_.push_back(BasicEvent{{}, lambda});
    return FtRef{FtRef::Kind::Basic, index};
}

FtRef FaultTree::append_gate(GateKind kind, std::vector<FtRef> children) {
    const auto index = static_cast<std::uint32_t>(gates_.size());
    for (const FtRef c : children) check_child(*this, index, {}, c);
    structural_hash_.reset();
    gates_.push_back(Gate{{}, kind, std::move(children)});
    return FtRef{FtRef::Kind::Gate, index};
}

void FaultTree::add_child(FtRef gate_ref, FtRef child) {
    if (gate_ref.kind != FtRef::Kind::Gate || gate_ref.index >= gates_.size()) {
        throw AnalysisError("add_child: parent is not a valid gate");
    }
    check_child(*this, gate_ref.index, gates_[gate_ref.index].name, child);
    structural_hash_.reset();
    gates_[gate_ref.index].children.push_back(child);
}

void FaultTree::set_top(FtRef top) {
    const bool basic = top.kind == FtRef::Kind::Basic;
    if (top.index >= (basic ? basics_.size() : gates_.size())) {
        throw AnalysisError(std::string("set_top: ") + (basic ? "basic event #" : "gate #") +
                            std::to_string(top.index) + " does not exist");
    }
    structural_hash_.reset();
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

std::vector<std::uint32_t> FaultTree::reachable_gates(FtRef root) const {
    std::vector<std::uint32_t> out;
    if (root.kind == FtRef::Kind::Basic) return out;
    (void)gate(root.index);  // throws when root does not exist
    std::vector<std::uint8_t> marked;
    collect_reachable_gates(gates_, root.index, marked, out);
    return out;
}

std::vector<std::uint32_t> FaultTree::reachable_basic_events(FtRef root) const {
    if (root.kind == FtRef::Kind::Basic) return {root.index};
    std::vector<std::uint8_t> seen(basics_.size(), 0);
    for (const std::uint32_t g : reachable_gates(root)) {
        for (const FtRef c : gates_[g].children) {
            if (c.kind == FtRef::Kind::Basic) seen[c.index] = 1;
        }
    }
    std::vector<std::uint32_t> out;
    for (std::uint32_t e = 0; e < seen.size(); ++e) {
        if (seen[e] != 0) out.push_back(e);
    }
    return out;
}

FaultTreeStats FaultTree::stats() const {
    FaultTreeStats s;
    if (!has_top_) return s;
    constexpr std::uint64_t kCap = std::uint64_t{1} << 62;
    auto sat_add = [kCap](std::uint64_t a, std::uint64_t b) {
        return a > kCap - std::min(b, kCap) ? kCap : a + b;
    };

    struct Counts {
        std::uint64_t expanded = 0;
        std::uint64_t paths = 0;
        std::size_t depth = 0;
    };
    constexpr Counts kEvent{1, 1, 1};
    if (top_.kind == FtRef::Kind::Basic) return {1, 0, 1, 1, 1, 1};

    std::vector<Counts> counts(top_.index + 1);
    std::vector<std::uint8_t> event_seen(basics_.size(), 0);
    const std::vector<std::uint32_t> reachable = reachable_gates(top_);
    for (const std::uint32_t g : reachable) {
        Counts m{1, 0, 1};
        for (const FtRef c : gates_[g].children) {
            Counts cm = kEvent;
            if (c.kind == FtRef::Kind::Gate) {
                cm = counts[c.index];
            } else if (event_seen[c.index] == 0) {
                event_seen[c.index] = 1;
                ++s.basic_events;
            }
            m.expanded = sat_add(m.expanded, cm.expanded);
            m.paths = sat_add(m.paths, cm.paths);
            m.depth = std::max(m.depth, cm.depth + 1);
        }
        counts[g] = m;
    }
    s.gates = reachable.size();
    s.dag_nodes = s.basic_events + s.gates;
    s.expanded_nodes = counts[top_.index].expanded;
    s.paths = counts[top_.index].paths;
    s.depth = counts[top_.index].depth;
    return s;
}

std::uint64_t FaultTree::structural_hash() const {
    if (structural_hash_) return *structural_hash_;
    const FtRef root = top();  // throws when the tree has no top event
    // Basic events are numbered by first arrival in the depth-first walk
    // from the top, which abstracts names away while preserving the
    // sharing pattern (one event referenced from two gates hashes
    // differently from two equal-rate events referenced once each).
    constexpr std::uint64_t kUnnumbered = ~std::uint64_t{0};
    std::vector<std::uint64_t> basic_id(basics_.size(), kUnnumbered);
    std::uint64_t next_id = 0;
    std::vector<std::uint64_t> gate_hash(gates_.size(), 0);
    std::vector<std::uint8_t> expanded(gates_.size(), 0);
    const auto event_hash = [&](std::uint32_t e) {
        return event_key(basic_id[e], basics_[e].lambda);
    };
    DepthFirstStack stack;
    depth_first(
        *this, root,
        [&](FtRef r) {
            if (r.kind == FtRef::Kind::Basic) {
                if (basic_id[r.index] == kUnnumbered) basic_id[r.index] = next_id++;
                return false;
            }
            return std::exchange(expanded[r.index], 1) == 0;
        },
        [&](std::uint32_t g) {
            const Gate& gate = gates_[g];
            std::uint64_t h = gate_seed(gate.kind);
            for (const FtRef c : gate.children) {
                h = hash::combine(
                    h, c.kind == FtRef::Kind::Basic ? event_hash(c.index) : gate_hash[c.index]);
            }
            gate_hash[g] = h;
        },
        stack);
    return root.kind == FtRef::Kind::Basic ? event_hash(root.index) : gate_hash[root.index];
}

FaultTree canonical_form(const FaultTree& ft) {
    CanonicalWorkspace workspace;
    return canonical_form(ft, workspace);
}

FaultTree canonical_form(const FaultTree& ft, CanonicalWorkspace& ws) {
    const obs::ObsSpan span("canonical_form", "ftree");
    const FtRef root = ft.top();
    FaultTree out;
    if (root.kind == FtRef::Kind::Basic) {
        const double lambda = ft.basic_event(root.index).lambda;
        out.set_top(out.append_event(lambda));
        out.structural_hash_ = event_key(0, lambda);
        return out;
    }
    collect_reachable_gates(ft.gates_, root.index, ws.marked, ws.reachable);
    const std::vector<std::uint32_t>& reachable = ws.reachable;
    const std::size_t gate_count = root.index + std::size_t{1};
    const std::size_t event_count = ft.basic_events().size();

    // Phase 0: reference counts (how many parent slots point at each
    // node, duplicates included).  They feed the ordering hash so that a
    // branch containing a *shared* event — e.g. the single resource
    // event a candidate merge creates — orders differently from a
    // pristine branch whose events carry the same rates.  Without this,
    // mirror merges in redundant branches tie under a sharing-blind hash
    // and stable sort keeps them apart.
    std::vector<std::uint32_t>& gate_refs = ws.gate_refs;
    std::vector<std::uint32_t>& event_refs = ws.event_refs;
    gate_refs.assign(gate_count, 0);
    event_refs.assign(event_count, 0);
    gate_refs[root.index] = 1;  // root counts as referenced once
    for (const std::uint32_t g : reachable) {
        for (const FtRef c : ft.gates()[g].children) {
            ++(c.kind == FtRef::Kind::Basic ? event_refs[c.index] : gate_refs[c.index]);
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
    //
    // All four families (these two and their phase-1.5 refinements)
    // share gate_hashes()'s gate rule and differ only in the leaf rule.
    ws.prelim_event.resize(event_count);
    ws.shape_event.resize(event_count);
    for (std::size_t e = 0; e < event_count; ++e) {
        ws.prelim_event[e] = hash::combine(
            hash::combine(0x6576656E74ull /* "event" */, double_bits(ft.basic_events()[e].lambda)),
            event_refs[e]);
        // Reference counts, not rates: a branch containing a *shared*
        // event (the single resource event a candidate merge creates)
        // must still order apart from a pristine branch of the same shape.
        ws.shape_event[e] = hash::combine(0x7368617065ull /* "shape" */, event_refs[e]);
    }
    gate_hashes(ft, reachable, gate_refs, ws.prelim_event, ws.sort_keys, ws.prelim_gate);
    gate_hashes(ft, reachable, gate_refs, ws.shape_event, ws.sort_keys, ws.shape_gate);

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
    event_parents(ft, ws);
    refined_by_context(ws, ws.prelim_event, ws.prelim_gate, ws.refined_event);
    refined_by_context(ws, ws.shape_event, ws.shape_gate, ws.refined_shape_event);
    gate_hashes(ft, reachable, gate_refs, ws.refined_event, ws.sort_keys, ws.refined_gate);
    gate_hashes(ft, reachable, gate_refs, ws.refined_shape_event, ws.sort_keys,
                ws.refined_shape_gate);

    // Phase 2: rebuild with children stably sorted by their refined
    // (rate-blind, rate-inclusive) hash pair.  Stability keeps full
    // ties (identical subtree shapes, sharing, rates and context) in
    // original order — those never produce a false cache hit because the
    // final order-dependent hash still separates them.
    std::vector<std::uint32_t>& sorted_begin = ws.sorted_begin;
    std::vector<FtRef>& sorted = ws.sorted;
    sorted_begin.assign(gate_count, 0);
    sorted.clear();
    for (const std::uint32_t g : reachable) {
        const std::vector<FtRef>& children = ft.gates()[g].children;
        ws.order.clear();
        for (std::uint32_t i = 0; i < children.size(); ++i) {
            const FtRef c = children[i];
            if (c.kind == FtRef::Kind::Basic) {
                ws.order.push_back({ws.refined_shape_event[c.index], ws.refined_event[c.index], i});
            } else {
                ws.order.push_back({ws.refined_shape_gate[c.index], ws.refined_gate[c.index], i});
            }
        }
        std::sort(ws.order.begin(), ws.order.end());  // the index last keeps the sort stable
        sorted_begin[g] = static_cast<std::uint32_t>(sorted.size());
        for (const CanonicalWorkspace::ChildKey& key : ws.order) sorted.push_back(children[key.index]);
    }

    const auto sorted_children = [&](std::uint32_t g) {
        return std::span<const FtRef>(sorted.data() + sorted_begin[g],
                                      ft.gates()[g].children.size());
    };

    // The walk over the sorted lists numbers the canonical tree: events
    // on first arrival, gates once their children are done.  It is the
    // walk structural_hash() makes over the canonical tree's own lists,
    // so each event's number is its first-arrival number there, and the
    // hashes folded here are the ones structural_hash() would compute.
    constexpr std::uint32_t kNone = ~std::uint32_t{0};
    std::vector<std::uint32_t>& new_event = ws.new_event;
    std::vector<std::uint32_t>& new_gate = ws.new_gate;
    std::vector<std::uint64_t>& event_hash = ws.event_hash;
    std::vector<std::uint64_t>& gate_hash = ws.gate_hash;
    new_event.assign(event_count, kNone);
    new_gate.assign(gate_count, kNone);
    event_hash.assign(event_count, 0);
    gate_hash.assign(gate_count, 0);
    out.basics_.reserve(event_count);
    out.gates_.reserve(reachable.size());
    std::vector<FtRef>& children = ws.children;
    depth_first(
        root, sorted_children,
        [&](FtRef r) {
            if (r.kind == FtRef::Kind::Gate) return new_gate[r.index] == kNone;
            if (new_event[r.index] == kNone) {
                const double lambda = ft.basic_events()[r.index].lambda;
                new_event[r.index] = out.append_event(lambda).index;
                event_hash[r.index] = event_key(new_event[r.index], lambda);
            }
            return false;
        },
        [&](std::uint32_t g) {
            const GateKind kind = ft.gates()[g].kind;
            std::uint64_t h = gate_seed(kind);
            children.clear();
            for (const FtRef c : sorted_children(g)) {
                const bool basic = c.kind == FtRef::Kind::Basic;
                children.push_back(basic ? FtRef{FtRef::Kind::Basic, new_event[c.index]}
                                         : FtRef{FtRef::Kind::Gate, new_gate[c.index]});
                h = hash::combine(h, basic ? event_hash[c.index] : gate_hash[c.index]);
            }
            gate_hash[g] = h;
            new_gate[g] = out.append_gate(kind, children).index;
        },
        ws.stack);
    out.set_top(FtRef{FtRef::Kind::Gate, new_gate[root.index]});
    out.structural_hash_ = gate_hash[root.index];
    return out;
}

}  // namespace asilkit::ftree
