#include "ftree/fault_tree.h"

#include <gtest/gtest.h>

#include "ftree/modules.h"
#include "helpers.h"

namespace asilkit::ftree {
namespace {

TEST(FaultTree, BasicEventsDedupByName) {
    FaultTree ft;
    const FtRef a = ft.add_basic_event("e", 1e-6);
    const FtRef b = ft.add_basic_event("e", 1e-6);
    EXPECT_EQ(a, b);
    EXPECT_EQ(ft.basic_events().size(), 1u);
}

TEST(FaultTree, ConflictingLambdaRejected) {
    FaultTree ft;
    ft.add_basic_event("e", 1e-6);
    EXPECT_THROW((void)ft.add_basic_event("e", 2e-6), AnalysisError);
}

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
        const FtRef left = ft.add_gate("l" + std::to_string(k), GateKind::Or, {current});
        const FtRef right = ft.add_gate("r" + std::to_string(k), GateKind::Or, {current});
        current = ft.add_gate("j" + std::to_string(k), GateKind::And, {left, right});
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
    ASSERT_EQ(dec.size(), 3u);
    EXPECT_EQ(dec.top().root, top);
    EXPECT_EQ(dec.top().child_modules.size(), 2u);
    EXPECT_EQ(dec.top().basic_events, 0u);  // both children are pseudo leaves
    ASSERT_TRUE(dec.module_of_gate.contains(left.index));
    ASSERT_TRUE(dec.module_of_gate.contains(right.index));
    EXPECT_EQ(dec.modules[dec.module_of_gate.at(left.index)].basic_events, 2u);
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
    ft.set_top(ft.add_gate("top", GateKind::And, {left, right}));

    const ModuleDecomposition dec = find_modules(ft);
    ASSERT_EQ(dec.size(), 1u);
    EXPECT_EQ(dec.top().basic_events, 3u);
    EXPECT_TRUE(dec.top().child_modules.empty());
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

    const ModuleDecomposition dec = find_modules(ft);
    ASSERT_EQ(dec.size(), 3u);
    const Module& inner_m = dec.modules[dec.module_of_gate.at(inner.index)];
    const Module& mid_m = dec.modules[dec.module_of_gate.at(mid.index)];
    EXPECT_TRUE(inner_m.child_modules.empty());
    ASSERT_EQ(mid_m.child_modules.size(), 1u);
    EXPECT_EQ(mid_m.child_modules.front(), dec.module_of_gate.at(inner.index));
    ASSERT_EQ(dec.top().child_modules.size(), 1u);
    EXPECT_EQ(dec.top().child_modules.front(), dec.module_of_gate.at(mid.index));
    // Children-before-parents order.
    EXPECT_LT(dec.module_of_gate.at(inner.index), dec.module_of_gate.at(mid.index));
}

TEST(Modules, SharedGateIsStillAModule) {
    // g = OR(a, b) referenced twice by the top: g's subtree is reachable
    // only through g, so g is a module whose pseudo-variable occurs
    // twice in the top region.
    FaultTree ft;
    const FtRef a = ft.add_basic_event("a", 1e-7);
    const FtRef b = ft.add_basic_event("b", 2e-7);
    const FtRef g = ft.add_gate("g", GateKind::Or, {a, b});
    ft.set_top(ft.add_gate("top", GateKind::And, {g, g}));

    const ModuleDecomposition dec = find_modules(ft);
    ASSERT_EQ(dec.size(), 2u);
    ASSERT_EQ(dec.top().child_modules.size(), 1u);  // one pseudo leaf, used twice
    EXPECT_EQ(dec.top().child_modules.front(), dec.module_of_gate.at(g.index));
}

TEST(Modules, SingleBasicEventTop) {
    FaultTree ft;
    ft.set_top(ft.add_basic_event("only", 5e-7));
    const ModuleDecomposition dec = find_modules(ft);
    ASSERT_EQ(dec.size(), 1u);
    EXPECT_EQ(dec.top().basic_events, 1u);
    EXPECT_TRUE(dec.top().child_modules.empty());
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

}  // namespace
}  // namespace asilkit::ftree
