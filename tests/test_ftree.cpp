#include "ftree/fault_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cutsets.h"
#include "analysis/probability.h"
#include "analysis/sim_engine.h"
#include "bdd/from_fault_tree.h"
#include "core/hash.h"
#include "ftree/builder.h"
#include "ftree/modules.h"
#include "helpers.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"

namespace asilkit::ftree {
namespace {

TEST(FaultTree, GateConstruction) {
    FaultTree ft;
    const FtRef e1 = ft.add_basic_event("e1", 1e-6);
    const FtRef e2 = ft.add_basic_event("e2", 1e-6);
    const FtRef g = ft.add_gate("g", GateKind::Or, {e1});
    ft.add_child(g, e2);
    EXPECT_EQ(ft.gate(g).children.size(), 2u);
    EXPECT_EQ(ft.gate(g).kind, GateKind::Or);
    EXPECT_EQ(ft.gate(g).name, "g");
}

TEST(FaultTree, AddChildRequiresGate) {
    FaultTree ft;
    const FtRef e = ft.add_basic_event("e", 1e-6);
    EXPECT_THROW((void)ft.add_child(e, e), AnalysisError);
}

TEST(FaultTree, AddGateRejectsMissingChild) {
    // Every gate is numbered after its children, so a child must exist
    // when the gate is added; the error names the gate and the child.
    FaultTree ft;
    const FtRef e = ft.add_basic_event("e", 1e-6);
    const FtRef g = ft.add_gate("g", GateKind::Or, {e});
    try {
        (void)ft.add_gate("late", GateKind::And, {e, FtRef{FtRef::Kind::Gate, g.index + 1}});
        FAIL() << "a gate index past the end was accepted";
    } catch (const AnalysisError& error) {
        EXPECT_NE(std::string(error.what()).find("gate 'late'"), std::string::npos) << error.what();
        EXPECT_NE(std::string(error.what()).find("child gate #1 does not exist"), std::string::npos)
            << error.what();
    }
    try {
        (void)ft.add_gate("phantom", GateKind::Or, {FtRef{FtRef::Kind::Basic, 1}});
        FAIL() << "an event index past the end was accepted";
    } catch (const AnalysisError& error) {
        EXPECT_NE(std::string(error.what()).find("gate 'phantom'"), std::string::npos)
            << error.what();
        EXPECT_NE(std::string(error.what()).find("child basic event #1"), std::string::npos)
            << error.what();
    }
    EXPECT_EQ(ft.gates().size(), 1u);  // a rejected gate is not added
}

TEST(FaultTree, AddChildRejectsCycles) {
    FaultTree ft;
    const FtRef e = ft.add_basic_event("e", 1e-6);
    const FtRef g = ft.add_gate("g", GateKind::Or, {e});
    const FtRef later = ft.add_gate("later", GateKind::And, {e});
    // A self-loop: the child does not come before its parent.
    try {
        ft.add_child(g, g);
        FAIL() << "add_child(g, g) was accepted";
    } catch (const AnalysisError& error) {
        EXPECT_NE(std::string(error.what()).find("gate 'g' (#0): child gate #0 ('g')"),
                  std::string::npos)
            << error.what();
    }
    // A gate created after its would-be parent: accepting it would let
    // the next add_child close a cycle.
    try {
        ft.add_child(g, later);
        FAIL() << "a gate child created after its parent was accepted";
    } catch (const AnalysisError& error) {
        EXPECT_NE(std::string(error.what()).find("gate 'g' (#0): child gate #1 ('later')"),
                  std::string::npos)
            << error.what();
    }
    EXPECT_THROW(ft.add_child(g, FtRef{FtRef::Kind::Basic, 7}), AnalysisError);
    EXPECT_EQ(ft.gate(g).children.size(), 1u);
    ft.add_child(later, g);  // an earlier gate is a valid child
    EXPECT_EQ(ft.gate(later).children.size(), 2u);
}

TEST(FaultTree, SetTopRejectsMissingNode) {
    FaultTree ft;
    EXPECT_THROW(ft.set_top(FtRef{FtRef::Kind::Basic, 0}), AnalysisError);
    EXPECT_THROW(ft.set_top(FtRef{FtRef::Kind::Gate, 0}), AnalysisError);
    EXPECT_FALSE(ft.has_top());
    const FtRef e = ft.add_basic_event("e", 1e-6);
    EXPECT_THROW(ft.set_top(FtRef{FtRef::Kind::Gate, e.index}), AnalysisError);
    ft.set_top(e);
    EXPECT_EQ(ft.top(), e);
}

TEST(FaultTree, TopEventRequired) {
    FaultTree ft;
    EXPECT_FALSE(ft.has_top());
    EXPECT_THROW((void)ft.top(), AnalysisError);
    const FtRef e = ft.add_basic_event("e", 1e-6);
    ft.set_top(e);
    EXPECT_TRUE(ft.has_top());
    EXPECT_EQ(ft.top(), e);
}

TEST(FaultTree, AccessorsValidate) {
    FaultTree ft;
    EXPECT_THROW((void)ft.basic_event(0), AnalysisError);
    EXPECT_THROW((void)ft.gate(0), AnalysisError);
    const FtRef e = ft.add_basic_event("e", 1e-6);
    EXPECT_THROW((void)ft.gate(e), AnalysisError);  // wrong-kind FtRef
    const FtRef g = ft.add_gate("g", GateKind::And, {e});
    EXPECT_THROW((void)ft.basic_event(g), AnalysisError);
}

TEST(FaultTree, FindBasicEvent) {
    FaultTree ft;
    const FtRef e = ft.add_basic_event("needle", 1e-6);
    EXPECT_EQ(ft.find_basic_event("needle"), e);
    EXPECT_TRUE(ft.has_basic_event("needle"));
    EXPECT_FALSE(ft.has_basic_event("hay"));
    EXPECT_THROW((void)ft.find_basic_event("hay"), AnalysisError);
}

TEST(FaultTree, StatsOnSimpleTree) {
    FaultTree ft;
    const FtRef e1 = ft.add_basic_event("e1", 1e-6);
    const FtRef e2 = ft.add_basic_event("e2", 1e-6);
    const FtRef g = ft.add_gate("g", GateKind::Or, {e1, e2});
    ft.set_top(g);
    const FaultTreeStats s = ft.stats();
    EXPECT_EQ(s.basic_events, 2u);
    EXPECT_EQ(s.gates, 1u);
    EXPECT_EQ(s.dag_nodes, 3u);
    EXPECT_EQ(s.expanded_nodes, 3u);
    EXPECT_EQ(s.paths, 2u);
    EXPECT_EQ(s.depth, 2u);
}

TEST(FaultTree, StatsCountSharedSubtreeOncePerDag) {
    FaultTree ft;
    const FtRef e = ft.add_basic_event("shared", 1e-6);
    const FtRef g1 = ft.add_gate("g1", GateKind::Or, {e});
    const FtRef g2 = ft.add_gate("g2", GateKind::Or, {e});
    const FtRef top = ft.add_gate("top", GateKind::And, {g1, g2});
    ft.set_top(top);
    const FaultTreeStats s = ft.stats();
    EXPECT_EQ(s.dag_nodes, 4u);       // shared event counted once
    EXPECT_EQ(s.expanded_nodes, 5u);  // but appears twice in the tree view
    EXPECT_EQ(s.paths, 2u);
}

TEST(FaultTree, StatsEmptyWithoutTop) {
    const FaultTree ft;
    EXPECT_EQ(ft.stats().dag_nodes, 0u);
}

TEST(FaultTree, StatsIgnoreUnreachableNodes) {
    FaultTree ft;
    const FtRef e = ft.add_basic_event("e", 1e-6);
    ft.add_basic_event("unreachable", 1e-6);
    const FtRef g = ft.add_gate("g", GateKind::Or, {e});
    ft.add_gate("dead", GateKind::And, {e});
    ft.set_top(g);
    EXPECT_EQ(ft.stats().basic_events, 1u);
    EXPECT_EQ(ft.stats().gates, 1u);
}

TEST(FaultTree, PathsGrowExponentiallyWithAndChains) {
    // Chain of k 2-way gates: paths double per level (Section V blow-up).
    FaultTree ft;
    FtRef current = ft.add_basic_event("seed", 1e-6);
    for (int k = 0; k < 10; ++k) {
        const std::string index = std::to_string(k);
        const FtRef left = ft.add_gate(std::string("l").append(index), GateKind::Or, {current});
        const FtRef right = ft.add_gate(std::string("r").append(index), GateKind::Or, {current});
        current = ft.add_gate(std::string("j").append(index), GateKind::And, {left, right});
    }
    ft.set_top(current);
    EXPECT_EQ(ft.stats().paths, 1024u);
}

TEST(FaultTree, ReachableBasicEvents) {
    FaultTree ft;
    const FtRef e1 = ft.add_basic_event("e1", 1e-6);
    const FtRef e2 = ft.add_basic_event("e2", 1e-6);
    ft.add_basic_event("e3", 1e-6);
    const FtRef g = ft.add_gate("g", GateKind::Or, {e1, e2, e1});
    const auto reachable = ft.reachable_basic_events(g);
    EXPECT_EQ(reachable, (std::vector<std::uint32_t>{0, 1}));
}

TEST(FaultTree, GateKindNames) {
    EXPECT_EQ(to_string(GateKind::Or), "OR");
    EXPECT_EQ(to_string(GateKind::And), "AND");
}

// ---- structural hash & canonical form: degenerate shapes -------------------

TEST(StructuralHashDegenerate, SingleBasicEventTop) {
    // A tree that is one basic event: the hash must abstract the name
    // away but keep the rate.
    FaultTree a;
    a.set_top(a.add_basic_event("only", 3e-7));
    FaultTree b;
    b.set_top(b.add_basic_event("renamed", 3e-7));
    EXPECT_EQ(a.structural_hash(), b.structural_hash());

    FaultTree c;
    c.set_top(c.add_basic_event("only", 4e-7));
    EXPECT_NE(a.structural_hash(), c.structural_hash());
}

TEST(StructuralHashDegenerate, GateWithOneChild) {
    // OR(e) and AND(e) denote the same boolean function but are distinct
    // structures — and both differ from the bare event.
    FaultTree plain;
    plain.set_top(plain.add_basic_event("e", 1e-7));

    FaultTree unary_or;
    unary_or.set_top(
        unary_or.add_gate("g", GateKind::Or, {unary_or.add_basic_event("e", 1e-7)}));
    FaultTree unary_and;
    unary_and.set_top(
        unary_and.add_gate("g", GateKind::And, {unary_and.add_basic_event("e", 1e-7)}));

    EXPECT_NE(unary_or.structural_hash(), unary_and.structural_hash());
    EXPECT_NE(plain.structural_hash(), unary_or.structural_hash());
    // Canonicalising a unary gate is a no-op structurally.
    EXPECT_EQ(canonical_form(unary_or).structural_hash(), unary_or.structural_hash());
}

TEST(StructuralHashDegenerate, SharedEventUnderAndVsOr) {
    auto shared_pair = [](GateKind kind) {
        FaultTree t;
        const FtRef e = t.add_basic_event("e", 1e-7);
        t.set_top(t.add_gate("top", kind, {e, e}));
        return t;
    };
    const FaultTree under_and = shared_pair(GateKind::And);
    const FaultTree under_or = shared_pair(GateKind::Or);
    EXPECT_NE(under_and.structural_hash(), under_or.structural_hash());

    // The sharing itself is visible under both kinds: AND(e, e) != AND(e, f).
    FaultTree distinct;
    const FtRef d1 = distinct.add_basic_event("e", 1e-7);
    const FtRef d2 = distinct.add_basic_event("f", 1e-7);
    distinct.set_top(distinct.add_gate("top", GateKind::And, {d1, d2}));
    EXPECT_NE(under_and.structural_hash(), distinct.structural_hash());
    EXPECT_NE(canonical_form(under_and).structural_hash(),
              canonical_form(distinct).structural_hash());
}

TEST(StructuralHashDegenerate, StableAcrossNodeIdRenumbering) {
    // The same logical tree built in two different insertion orders gets
    // different node indices; first-occurrence numbering must erase that.
    FaultTree forward;
    {
        const FtRef a = forward.add_basic_event("a", 1e-7);
        const FtRef b = forward.add_basic_event("b", 2e-7);
        const FtRef c = forward.add_basic_event("c", 3e-7);
        const FtRef left = forward.add_gate("left", GateKind::Or, {a, b});
        forward.set_top(forward.add_gate("top", GateKind::And, {left, c}));
    }
    FaultTree backward;
    {
        const FtRef c = backward.add_basic_event("c", 3e-7);
        const FtRef b = backward.add_basic_event("b", 2e-7);
        const FtRef a = backward.add_basic_event("a", 1e-7);
        backward.add_gate("decoy", GateKind::Or, {c});  // shifts gate indices
        const FtRef left = backward.add_gate("left", GateKind::Or, {a, b});
        backward.set_top(backward.add_gate("top", GateKind::And, {left, c}));
    }
    EXPECT_EQ(forward.structural_hash(), backward.structural_hash());
    EXPECT_EQ(canonical_form(forward).structural_hash(),
              canonical_form(backward).structural_hash());
}

// ---- modularization --------------------------------------------------------

/// The roots `find_modules` returns for `ft`.
std::vector<FtRef> module_roots(const FaultTree& ft) { return find_modules(ft).roots; }

FtRef gate_ref(std::uint32_t g) { return FtRef{FtRef::Kind::Gate, g}; }

TEST(Modules, IndependentBranchesAreModules) {
    // AND(OR(a, b), OR(c, d)): both ORs share nothing, so the
    // decomposition is {OR(a,b), OR(c,d), top}.
    FaultTree ft;
    const FtRef a = ft.add_basic_event("a", 1e-7);
    const FtRef b = ft.add_basic_event("b", 2e-7);
    const FtRef c = ft.add_basic_event("c", 3e-7);
    const FtRef d = ft.add_basic_event("d", 4e-7);
    const FtRef left = ft.add_gate("left", GateKind::Or, {a, b});
    const FtRef right = ft.add_gate("right", GateKind::Or, {c, d});
    const FtRef top = ft.add_gate("top", GateKind::And, {left, right});
    ft.set_top(top);

    const ModuleDecomposition dec = find_modules(ft);
    EXPECT_EQ(dec.roots, (std::vector<FtRef>{left, right, top}));
    EXPECT_EQ(dec.size(), 3u);
    EXPECT_EQ(dec.top(), top);
}

TEST(Modules, SharedEventKeepsRegionTogether) {
    // AND(OR(a, s), OR(b, s)): the shared event s glues both branches to
    // the top region — the top is the only module.
    FaultTree ft;
    const FtRef a = ft.add_basic_event("a", 1e-7);
    const FtRef b = ft.add_basic_event("b", 2e-7);
    const FtRef s = ft.add_basic_event("s", 3e-7);
    const FtRef left = ft.add_gate("left", GateKind::Or, {a, s});
    const FtRef right = ft.add_gate("right", GateKind::Or, {b, s});
    const FtRef top = ft.add_gate("top", GateKind::And, {left, right});
    ft.set_top(top);

    EXPECT_EQ(module_roots(ft), std::vector<FtRef>{top});
}

TEST(Modules, NestedModulesComposeBottomUp) {
    // OR(AND(OR(a, b), c), d): three nested modules, children listed
    // before parents.
    FaultTree ft;
    const FtRef a = ft.add_basic_event("a", 1e-7);
    const FtRef b = ft.add_basic_event("b", 2e-7);
    const FtRef c = ft.add_basic_event("c", 3e-7);
    const FtRef d = ft.add_basic_event("d", 4e-7);
    const FtRef inner = ft.add_gate("inner", GateKind::Or, {a, b});
    const FtRef mid = ft.add_gate("mid", GateKind::And, {inner, c});
    const FtRef top = ft.add_gate("top", GateKind::Or, {mid, d});
    ft.set_top(top);

    EXPECT_EQ(module_roots(ft), (std::vector<FtRef>{inner, mid, top}));
}

TEST(Modules, SharedGateIsStillAModule) {
    // g = OR(a, b) referenced twice by the top: g's subtree is reachable
    // only through g, so g is a module whose pseudo-variable occurs
    // twice in the top region.
    FaultTree ft;
    const FtRef a = ft.add_basic_event("a", 1e-7);
    const FtRef b = ft.add_basic_event("b", 2e-7);
    const FtRef g = ft.add_gate("g", GateKind::Or, {a, b});
    const FtRef top = ft.add_gate("top", GateKind::And, {g, g});
    ft.set_top(top);

    EXPECT_EQ(module_roots(ft), (std::vector<FtRef>{g, top}));
}

TEST(Modules, SingleBasicEventTop) {
    FaultTree ft;
    const FtRef only = ft.add_basic_event("only", 5e-7);
    ft.set_top(only);
    EXPECT_EQ(module_roots(ft), std::vector<FtRef>{only});
}

/// The module roots of `ft` by the definition, in O(n²): a gate
/// reachable from the top is a root iff it is the top, or no node
/// strictly below it has a parent (among the reachable gates) outside
/// its subtree.  Ascending gate index.
std::vector<FtRef> brute_force_roots(const FaultTree& ft) {
    const FtRef top = ft.top();
    if (top.kind == FtRef::Kind::Basic) return {top};
    const std::vector<std::uint32_t> reachable = ft.reachable_gates(top);
    const std::size_t events = ft.basic_events().size();
    // Node ids: event e is e, gate g is events + g.
    const auto id = [events](FtRef r) {
        return r.kind == FtRef::Kind::Basic ? r.index : events + r.index;
    };
    std::vector<std::vector<std::size_t>> parents(events + ft.gates().size());
    for (const std::uint32_t g : reachable) {
        for (const FtRef c : ft.gates()[g].children) parents[id(c)].push_back(events + g);
    }
    std::vector<FtRef> roots;
    for (const std::uint32_t g : reachable) {
        // The subtree of g: g and everything below it.
        std::vector<char> in_subtree(parents.size(), 0);
        in_subtree[events + g] = 1;
        std::vector<std::size_t> below;
        std::vector<FtRef> todo{gate_ref(g)};
        while (!todo.empty()) {
            const FtRef r = todo.back();
            todo.pop_back();
            for (const FtRef c : ft.gates()[r.index].children) {
                if (in_subtree[id(c)] != 0) continue;
                in_subtree[id(c)] = 1;
                below.push_back(id(c));
                if (c.kind == FtRef::Kind::Gate) todo.push_back(c);
            }
        }
        bool root = g == top.index;
        if (!root) {
            root = std::all_of(below.begin(), below.end(), [&](std::size_t x) {
                return std::all_of(parents[x].begin(), parents[x].end(),
                                   [&](std::size_t p) { return in_subtree[p] != 0; });
            });
        }
        if (root) roots.push_back(gate_ref(g));
    }
    return roots;
}

TEST(Modules, RootsMatchABruteForceOracle) {
    // A tree whose gates are numbered against the walk order, with
    // unreachable gates below and above the top (roots: right, left,
    // top); then seeded random DAGs from heavily shared (few events,
    // many gates) to sparse (many events), and the raw Fig. 3 and
    // EcoTwin lateral trees.  Every decomposition must list exactly the
    // oracle's roots, ascending.
    FaultTree numbered;
    const FtRef a = numbered.add_basic_event("a", 1e-7);
    const FtRef b = numbered.add_basic_event("b", 2e-7);
    const FtRef c = numbered.add_basic_event("c", 3e-7);
    (void)numbered.add_gate("decoy", GateKind::Or, {a, c});  // would share a and c
    const FtRef right = numbered.add_gate("right", GateKind::And, {b, c});
    const FtRef left = numbered.add_gate("left", GateKind::Or, {a});
    const FtRef top = numbered.add_gate("top", GateKind::Or, {left, right});
    (void)numbered.add_gate("stray", GateKind::And, {top, a});
    numbered.set_top(top);
    ASSERT_EQ(brute_force_roots(numbered), (std::vector<FtRef>{right, left, top}));

    std::vector<FaultTree> trees{numbered};
    const std::pair<std::size_t, std::size_t> shapes[] = {{3, 12}, {8, 10}, {30, 12}, {80, 25}};
    for (const auto& [events, gates] : shapes) {
        for (std::uint32_t seed = 1; seed <= 40; ++seed) {
            trees.push_back(testing::random_fault_tree(seed, events, gates));
        }
    }
    trees.push_back(build_fault_tree(scenarios::fig3_camera_gps_fusion()).tree);
    trees.push_back(build_fault_tree(scenarios::ecotwin_lateral_control()).tree);
    std::size_t with_nested = 0;
    ModuleWorkspace ws;
    for (std::size_t t = 0; t < trees.size(); ++t) {
        const std::vector<FtRef> want = brute_force_roots(trees[t]);
        EXPECT_EQ(find_modules(trees[t], ws).roots, want) << "tree " << t;
        if (want.size() > 1) ++with_nested;
    }
    // The oracle is only a check if the fixtures have nested modules.
    EXPECT_GT(with_nested, trees.size() / 4);
}

TEST(CanonicalForm, ConstructionOrderOfTiedSharedEventsDoesNotChangeHashes) {
    // Regression: two DISTINCT shared events with the same lambda and
    // the same reference count tie in the bottom-up ordering hashes;
    // before the context refinement, the stable sort fell back to
    // construction order, so isomorphic trees built in different arena
    // orders canonicalised differently.  The entanglement below (a is
    // shared by or1/and_c, b by or1/and_d) is only resolvable through
    // each event's parent-gate context.
    auto build = [](bool swapped) {
        FaultTree t;
        FtRef a{};
        FtRef b{};
        if (swapped) {
            b = t.add_basic_event("b", 1e-7);
            a = t.add_basic_event("a", 1e-7);
        } else {
            a = t.add_basic_event("a", 1e-7);
            b = t.add_basic_event("b", 1e-7);
        }
        const FtRef c = t.add_basic_event("c", 2e-7);
        const FtRef d = t.add_basic_event("d", 3e-7);
        const FtRef or1 = swapped ? t.add_gate("or1", GateKind::Or, {b, a})
                                  : t.add_gate("or1", GateKind::Or, {a, b});
        const FtRef and_c = t.add_gate("and_c", GateKind::And, {a, c});
        const FtRef and_d = t.add_gate("and_d", GateKind::And, {b, d});
        t.set_top(t.add_gate("top", GateKind::Or, {or1, and_c, and_d}));
        return t;
    };
    const FaultTree c1 = canonical_form(build(false));
    const FaultTree c2 = canonical_form(build(true));
    EXPECT_EQ(c1.structural_hash(), c2.structural_hash());
    EXPECT_TRUE(testing::same_indexed_shape(c1, c2));
}

// ---- canonical trees are anonymous and carry their hash -------------------

/// The trees the contract below is checked on: seeded random DAGs of
/// several sizes, then the raw Fig. 3 and EcoTwin lateral trees.
std::vector<FaultTree> contract_trees() {
    std::vector<FaultTree> trees;
    for (std::uint32_t seed = 1; seed <= 24; ++seed) {
        trees.push_back(testing::random_fault_tree(seed, 3 + seed % 9, 2 + seed % 13));
    }
    trees.push_back(build_fault_tree(scenarios::fig3_camera_gps_fusion()).tree);
    trees.push_back(build_fault_tree(scenarios::ecotwin_lateral_control()).tree);
    return trees;
}

/// `ft` rebuilt node for node through the named API (event e as "e<e>",
/// gate g as "g<g>"), so its structural_hash() is computed, not stored.
FaultTree named_copy(const FaultTree& ft) {
    FaultTree out;
    for (std::size_t e = 0; e < ft.basic_events().size(); ++e) {
        (void)out.add_basic_event(std::string("e").append(std::to_string(e)),
                                  ft.basic_events()[e].lambda);
    }
    for (std::size_t g = 0; g < ft.gates().size(); ++g) {
        (void)out.add_gate(std::string("g").append(std::to_string(g)), ft.gates()[g].kind,
                           ft.gates()[g].children);
    }
    out.set_top(ft.top());
    return out;
}

TEST(CanonicalForm, IsAnonymous) {
    for (const FaultTree& raw : contract_trees()) {
        const FaultTree canonical = canonical_form(raw);
        for (const BasicEvent& e : canonical.basic_events()) EXPECT_TRUE(e.name.empty());
        for (const Gate& g : canonical.gates()) EXPECT_TRUE(g.name.empty());
        const std::string& name = raw.basic_events().front().name;
        EXPECT_FALSE(canonical.has_basic_event(name));
        try {
            (void)canonical.find_basic_event(name);
            ADD_FAILURE() << "found '" << name << "' in a canonical tree";
        } catch (const AnalysisError& error) {
            EXPECT_NE(std::string(error.what()).find("no basic event named '" + name + "'"),
                      std::string::npos)
                << error.what();
        }
    }
}

TEST(CanonicalForm, IsItsOwnCanonicalForm) {
    for (const FaultTree& raw : contract_trees()) {
        const FaultTree canonical = canonical_form(raw);
        const FaultTree again = canonical_form(canonical);
        EXPECT_TRUE(testing::same_indexed_shape(again, canonical));
        ASSERT_EQ(again.basic_events().size(), canonical.basic_events().size());
        for (std::size_t e = 0; e < again.basic_events().size(); ++e) {
            EXPECT_EQ(again.basic_events()[e].lambda, canonical.basic_events()[e].lambda);
        }
        EXPECT_EQ(again.structural_hash(), canonical.structural_hash());
    }
}

TEST(CanonicalForm, CarriesTheStructuralHashOfItsShape) {
    for (const FaultTree& raw : contract_trees()) {
        const FaultTree canonical = canonical_form(raw);
        ASSERT_TRUE(canonical.stores_structural_hash());
        const FaultTree rebuilt = named_copy(canonical);
        ASSERT_FALSE(rebuilt.stores_structural_hash());
        EXPECT_EQ(canonical.structural_hash(), rebuilt.structural_hash());
    }
    // A basic-event top is numbered 0, like structural_hash() numbers it.
    FaultTree single;
    single.set_top(single.add_basic_event("only", 3e-7));
    const FaultTree canonical = canonical_form(single);
    ASSERT_TRUE(canonical.stores_structural_hash());
    EXPECT_EQ(canonical.structural_hash(), single.structural_hash());
}

TEST(Workspace, CanonicalFormModulesAndBddsCarryNothingBetweenCalls) {
    // One workspace of each kind serves the contract trees in order and
    // then in reverse, so each tree follows larger and smaller ones: the
    // canonical tree, its decomposition and its module evaluations must
    // equal those made on fresh workspaces.
    std::vector<FaultTree> trees = contract_trees();
    const std::size_t count = trees.size();
    for (std::size_t i = count; i-- > 0;) trees.push_back(trees[i]);
    CanonicalWorkspace canonical_ws;
    ModuleWorkspace module_ws;
    bdd::ModuleEvalWorkspace bdd_ws;
    for (std::size_t t = 0; t < trees.size(); ++t) {
        const FaultTree reused = canonical_form(trees[t], canonical_ws);
        const FaultTree fresh = canonical_form(trees[t]);
        EXPECT_TRUE(testing::same_indexed_shape(reused, fresh)) << t;
        EXPECT_EQ(reused.structural_hash(), fresh.structural_hash()) << t;

        const ModuleDecomposition reused_dec = find_modules(fresh, module_ws);
        const ModuleDecomposition fresh_dec = find_modules(fresh);
        EXPECT_EQ(reused_dec.roots, fresh_dec.roots) << t;

        const auto reused_eval = bdd::evaluate_modules(fresh, fresh_dec, 1.0, bdd_ws);
        const auto fresh_eval = bdd::evaluate_modules(fresh, fresh_dec, 1.0);
        ASSERT_EQ(reused_eval.size(), fresh_eval.size()) << t;
        for (std::size_t i = 0; i < fresh_eval.size(); ++i) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(reused_eval[i].probability),
                      std::bit_cast<std::uint64_t>(fresh_eval[i].probability))
                << t;
            EXPECT_EQ(reused_eval[i].bdd_nodes, fresh_eval[i].bdd_nodes) << t;
            EXPECT_EQ(reused_eval[i].bdd_total_nodes, fresh_eval[i].bdd_total_nodes) << t;
            EXPECT_EQ(reused_eval[i].variables, fresh_eval[i].variables) << t;
        }
    }
}

TEST(CanonicalForm, EveryMutatorClearsTheStoredHash) {
    const FaultTree canonical = canonical_form(testing::random_fault_tree(3, 6, 5));
    const FtRef top = canonical.top();
    const FtRef event{FtRef::Kind::Basic, 0};
    const auto expect_cleared = [&](const FaultTree& t, const char* mutator) {
        EXPECT_FALSE(t.stores_structural_hash()) << mutator;
        EXPECT_EQ(t.structural_hash(), named_copy(t).structural_hash()) << mutator;
    };
    {
        FaultTree t = canonical;
        ASSERT_TRUE(t.stores_structural_hash());  // a copy carries it
        (void)t.add_basic_event("spare", 1e-6);
        expect_cleared(t, "add_basic_event");
    }
    {
        FaultTree t = canonical;
        (void)t.add_gate("spare", GateKind::And, {top, event});
        expect_cleared(t, "add_gate");
    }
    {
        FaultTree t = canonical;
        t.add_child(top, event);
        expect_cleared(t, "add_child");
        EXPECT_NE(t.structural_hash(), canonical.structural_hash());
    }
    {
        FaultTree t = canonical;
        t.set_top(event);
        expect_cleared(t, "set_top");
        EXPECT_NE(t.structural_hash(), canonical.structural_hash());
    }
}

// ---- deep trees: every pass costs heap, not call stack ---------------------

constexpr std::size_t kDeep = 100000;

/// A chain of `depth` gates of one kind, one fresh event per level:
/// g0 = KIND(e0) and g_i = KIND(g_{i-1}, e_i), all events at rate
/// `lambda`.  Depth depth + 1, no sharing, and every gate is a module.
FaultTree chain(GateKind kind, std::size_t depth, double lambda) {
    FaultTree ft;
    FtRef g = ft.add_gate("g0", kind, {ft.add_basic_event("e0", lambda)});
    for (std::size_t i = 1; i < depth; ++i) {
        const std::string level = std::to_string(i);
        const FtRef e = ft.add_basic_event(std::string("e").append(level), lambda);
        g = ft.add_gate(std::string("g").append(level), kind, {g, e});
    }
    ft.set_top(g);
    return ft;
}

/// structural_hash() of chain(kind, depth, lambda), folded level by
/// level: the walk reaches g0 first, so it numbers event e_i as i.
std::uint64_t chain_hash(GateKind kind, std::size_t depth, double lambda) {
    const auto event = [lambda](std::uint64_t id) {
        return hash::combine(hash::combine(0x6261736963ull /* "basic" */, id),
                             std::bit_cast<std::uint64_t>(lambda));
    };
    const std::uint64_t gate =
        hash::combine(0x67617465ull /* "gate" */, static_cast<std::uint64_t>(kind));
    std::uint64_t h = hash::combine(gate, event(0));
    for (std::uint64_t i = 1; i < depth; ++i) h = hash::combine(hash::combine(gate, h), event(i));
    return h;
}

/// The passes every chain goes through, checked against the closed
/// forms of chain(kind, kDeep, lambda), whose top event has probability
/// `exact`.
void check_chain(const FaultTree& ft, GateKind kind, double lambda, double exact) {
    const FaultTreeStats s = ft.stats();
    EXPECT_EQ(s.basic_events, kDeep);
    EXPECT_EQ(s.gates, kDeep);
    EXPECT_EQ(s.dag_nodes, 2 * kDeep);
    EXPECT_EQ(s.expanded_nodes, 2 * kDeep);
    EXPECT_EQ(s.paths, kDeep);
    EXPECT_EQ(s.depth, kDeep + 1);

    EXPECT_EQ(ft.structural_hash(), chain_hash(kind, kDeep, lambda));
    // A canonical tree is its own canonical form.
    const FaultTree canonical = canonical_form(ft);
    EXPECT_EQ(canonical.stats().paths, kDeep);
    EXPECT_EQ(canonical.stats().depth, kDeep + 1);
    EXPECT_EQ(canonical_form(canonical).structural_hash(), canonical.structural_hash());

    // Every level is a module over its own event and the level below:
    // the roots are every gate, ascending, the top last.
    const ModuleDecomposition dec = find_modules(ft);
    ASSERT_EQ(dec.size(), kDeep);
    std::size_t mismatches = 0;
    for (std::uint32_t i = 0; i < kDeep; ++i) {
        if (dec.roots[i] != gate_ref(i)) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(dec.top(), ft.top());

    const analysis::TreeEvaluation eval = analysis::modular_probability(ft);
    EXPECT_EQ(eval.modules, kDeep);
    EXPECT_EQ(eval.variables, kDeep);
    EXPECT_NEAR(eval.failure_probability, exact, 1e-9 * exact);
    EXPECT_NEAR(analysis::fault_tree_probability(ft), exact, 1e-9 * exact);

    const analysis::SimEngine sim(ft);
    analysis::SimulationOptions options;
    options.trials = 512;
    const analysis::SimulationResult r = sim.run(options);
    EXPECT_NEAR(r.estimate, exact, 5.0 * std::sqrt(exact * (1.0 - exact) / 512.0));
}

TEST(DeepTree, OrChainRunsEveryPass) {
    constexpr double kLambda = 1e-6;
    const double p = bdd::basic_event_probability(kLambda, 1.0);
    const FaultTree ft = chain(GateKind::Or, kDeep, kLambda);
    // P(OR of n independent events) = 1 - (1 - p)^n.
    const double exact = -std::expm1(static_cast<double>(kDeep) * std::log1p(-p));
    check_chain(ft, GateKind::Or, kLambda, exact);
    const double sum = static_cast<double>(kDeep) * p;
    EXPECT_NEAR(analysis::rare_event_probability(ft), sum, 1e-9 * sum);
}

TEST(DeepTree, AndChainRunsEveryPass) {
    // Each event fails with probability 1 - 1e-6 per hour, so the AND of
    // all of them stays near exp(-0.1).
    const double lambda = -std::log(1e-6);
    const double p = bdd::basic_event_probability(lambda, 1.0);
    const FaultTree ft = chain(GateKind::And, kDeep, lambda);
    const double exact = std::exp(static_cast<double>(kDeep) * std::log(p));
    check_chain(ft, GateKind::And, lambda, exact);
    EXPECT_NEAR(analysis::rare_event_probability(ft), exact, 1e-9 * exact);
    // The one minimal cut set holds every event, far above the order
    // limit, so the truncated enumeration finds none.
    EXPECT_TRUE(analysis::minimal_cut_sets(ft).empty());
}

}  // namespace
}  // namespace asilkit::ftree
