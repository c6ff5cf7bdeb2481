#include "analysis/cutsets.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <limits>
#include <random>

#include "analysis/probability.h"
#include "bdd/from_fault_tree.h"
#include "explore/driver.h"
#include "ftree/builder.h"
#include "helpers.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/longitudinal.h"
#include "scenarios/micro.h"

namespace asilkit::analysis {
namespace {

using ftree::FaultTree;
using ftree::GateKind;

TEST(CutSets, SingleEvent) {
    FaultTree ft;
    ft.set_top(ft.add_basic_event("e", 1e-6));
    const auto sets = minimal_cut_sets(ft);
    ASSERT_EQ(sets.size(), 1u);
    EXPECT_EQ(sets[0], (CutSet{0}));
}

TEST(CutSets, OrGateGivesSingletons) {
    FaultTree ft;
    const auto a = ft.add_basic_event("a", 1e-6);
    const auto b = ft.add_basic_event("b", 1e-6);
    ft.set_top(ft.add_gate("top", GateKind::Or, {a, b}));
    const auto sets = minimal_cut_sets(ft);
    EXPECT_EQ(sets, (std::vector<CutSet>{{0}, {1}}));
}

TEST(CutSets, AndGateGivesPair) {
    FaultTree ft;
    const auto a = ft.add_basic_event("a", 1e-6);
    const auto b = ft.add_basic_event("b", 1e-6);
    ft.set_top(ft.add_gate("top", GateKind::And, {a, b}));
    const auto sets = minimal_cut_sets(ft);
    EXPECT_EQ(sets, (std::vector<CutSet>{{0, 1}}));
}

TEST(CutSets, MinimalityEnforced) {
    // top = a | (a & b): {a} subsumes {a,b}.
    FaultTree ft;
    const auto a = ft.add_basic_event("a", 1e-6);
    const auto b = ft.add_basic_event("b", 1e-6);
    const auto ab = ft.add_gate("ab", GateKind::And, {a, b});
    ft.set_top(ft.add_gate("top", GateKind::Or, {a, ab}));
    const auto sets = minimal_cut_sets(ft);
    EXPECT_EQ(sets, (std::vector<CutSet>{{0}}));
}

TEST(CutSets, RepeatedEventInAndCollapses) {
    // a & a == a.
    FaultTree ft;
    const auto a = ft.add_basic_event("a", 1e-6);
    ft.set_top(ft.add_gate("top", GateKind::And, {a, a}));
    const auto sets = minimal_cut_sets(ft);
    EXPECT_EQ(sets, (std::vector<CutSet>{{0}}));
}

TEST(CutSets, OrderLimitDropsLargeSets) {
    FaultTree ft;
    std::vector<ftree::FtRef> events;
    for (int i = 0; i < 5; ++i) {
        events.push_back(ft.add_basic_event("e" + std::to_string(i), 1e-6));
    }
    const auto big_and = ft.add_gate("big", GateKind::And, events);
    const auto single = ft.add_basic_event("single", 1e-6);
    ft.set_top(ft.add_gate("top", GateKind::Or, {big_and, single}));
    CutSetOptions options;
    options.max_order = 3;
    const auto sets = minimal_cut_sets(ft, options);
    EXPECT_EQ(sets.size(), 1u);  // only {single}; the 5-way set is dropped
    EXPECT_EQ(sets[0].size(), 1u);
}

TEST(CutSets, Fig3StructureIsCorrect) {
    // Series events are order-1 cut sets; the redundant branches appear
    // only as order-2 pairs crossing the two branches.
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    const auto ft = ftree::build_fault_tree(m);
    CutSetOptions options;
    options.max_order = 2;
    const auto sets = minimal_cut_sets(ft.tree, options);
    EXPECT_EQ(minimal_cut_order(sets), 1u);

    auto has_single = [&](const std::string& name) {
        const auto ref = ft.tree.find_basic_event(name);
        return std::find(sets.begin(), sets.end(), CutSet{ref.index}) != sets.end();
    };
    EXPECT_TRUE(has_single("res:camera_hw"));
    EXPECT_TRUE(has_single("res:gps_hw"));
    EXPECT_TRUE(has_single("res:steering_hw"));
    // Branch hardware must NOT be a single point of failure.
    EXPECT_FALSE(has_single("res:ecu1"));
    EXPECT_FALSE(has_single("res:ecu2"));
    // ... but the cross-branch pair is a cut set.
    const auto e1 = ft.tree.find_basic_event("res:ecu1").index;
    const auto e2 = ft.tree.find_basic_event("res:ecu2").index;
    CutSet pair{e1, e2};
    std::sort(pair.begin(), pair.end());
    EXPECT_NE(std::find(sets.begin(), sets.end(), pair), sets.end());
}

TEST(CutSets, SharedEcuCreatesSinglePointOfFailure) {
    const ArchitectureModel m = scenarios::fig3_with_shared_ecu_ccf();
    const auto ft = ftree::build_fault_tree(m);
    CutSetOptions options;
    options.max_order = 1;
    const auto sets = minimal_cut_sets(ft.tree, options);
    const auto ecu1 = ft.tree.find_basic_event("res:ecu1").index;
    EXPECT_NE(std::find(sets.begin(), sets.end(), CutSet{ecu1}), sets.end())
        << "shared ECU must surface as an order-1 cut set";
}

TEST(CutSets, EmptyGateHasNoCutSet) {
    // A gate with no children is no failure mode, whatever its kind (as
    // in the BDD compile, the Monte Carlo plan and the brute-force
    // evaluator): OR(e, AND()) and OR(e, OR()) both fail exactly when e
    // does.  An empty AND is not the empty cut set.
    for (const GateKind kind : {GateKind::And, GateKind::Or}) {
        FaultTree ft;
        const auto e = ft.add_basic_event("e", 1e-3);
        const auto none = ft.add_gate("none", kind);
        ft.set_top(ft.add_gate("top", GateKind::Or, {e, none}));
        const auto sets = minimal_cut_sets(ft);
        EXPECT_EQ(sets, (std::vector<CutSet>{{0}})) << ftree::to_string(kind);
        EXPECT_EQ(minimal_cut_order(sets), 1u);
        const double p = bdd::basic_event_probability(1e-3, 1.0);
        EXPECT_EQ(cut_set_probability_bound(ft, sets), p);
        EXPECT_NEAR(fault_tree_probability(ft), p, 1e-15);
        ft.set_top(none);
        EXPECT_TRUE(minimal_cut_sets(ft).empty()) << ftree::to_string(kind);
    }
}

TEST(CutSets, ProbabilityBoundApproximatesExact) {
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    const auto ft = ftree::build_fault_tree(m);
    const auto sets = minimal_cut_sets(ft.tree, {3, 200000});
    const double bound = cut_set_probability_bound(ft.tree, sets);
    const double p = 2.08e-7;
    EXPECT_GT(bound, 0.9 * p);
    EXPECT_LT(bound, 1.2 * p);
}

TEST(CutSets, ProbabilityBoundIsClampedToOne) {
    FaultTree ft;
    const auto a = ft.add_basic_event("a", 100.0);  // p ~ 1
    const auto b = ft.add_basic_event("b", 100.0);
    ft.set_top(ft.add_gate("top", GateKind::Or, {a, b}));
    const auto sets = minimal_cut_sets(ft);
    EXPECT_DOUBLE_EQ(cut_set_probability_bound(ft, sets), 1.0);
}

TEST(CutSets, MinimalOrderOfEmptyIsZero) {
    EXPECT_EQ(minimal_cut_order({}), 0u);
}

TEST(CutSets, ZeroMaxOrderThrows) {
    // Includes the OR-of-basic path, which yields order-1 sets without
    // ever comparing against the limit.
    FaultTree ft;
    const auto a = ft.add_basic_event("a", 1e-6);
    const auto b = ft.add_basic_event("b", 1e-6);
    ft.set_top(ft.add_gate("top", GateKind::Or, {a, b}));
    EXPECT_THROW((void)minimal_cut_sets(ft, {0, 200000}), AnalysisError);
    ftree::FaultTree single;
    single.set_top(single.add_basic_event("e", 1e-6));
    EXPECT_THROW((void)minimal_cut_sets(single, {0, 200000}), AnalysisError);
}

TEST(CutSets, UnboundedMaxOrderMatchesTheEventCount) {
    const FaultTree ft = testing::random_fault_tree(7, 9, 12);
    const std::size_t events = ft.basic_events().size();
    EXPECT_EQ(minimal_cut_sets(ft, {std::numeric_limits<std::size_t>::max(), 200000}),
              minimal_cut_sets(ft, {events, 200000}));
}

TEST(CutSets, SetLimitThrows) {
    // A wide OR of ANDs explodes; the guard must fire rather than hang.
    FaultTree ft;
    std::vector<ftree::FtRef> ors;
    for (int g = 0; g < 12; ++g) {
        std::vector<ftree::FtRef> leaves;
        for (int i = 0; i < 4; ++i) {
            leaves.push_back(
                ft.add_basic_event(
                    std::string("e").append(std::to_string(g)).append("_").append(std::to_string(i)),
                    1e-6));
        }
        ors.push_back(ft.add_gate("or" + std::to_string(g), GateKind::Or, leaves));
    }
    ft.set_top(ft.add_gate("top", GateKind::And, ors));
    CutSetOptions options;
    options.max_order = 12;
    options.max_sets = 1000;
    EXPECT_THROW((void)minimal_cut_sets(ft, options), AnalysisError);
}

TEST(CutSets, FactoredProductFitsMaxSets) {
    // Two ORs that both hold one upstream OR of 40 events, ANDed, as a
    // merger's inputs hold what feeds both branches.  Every product of
    // two upstream singletons is absorbed by one of them, so none is
    // built, and the guard sees no row: the unfactored product would
    // build 40 x 40 = 1600 rows and throw.
    FaultTree ft;
    std::vector<ftree::FtRef> leaves;
    for (int i = 0; i < 40; ++i) {
        leaves.push_back(ft.add_basic_event(std::string("e").append(std::to_string(i)), 1e-6));
    }
    const auto upstream = ft.add_gate("upstream", GateKind::Or, leaves);
    const auto left = ft.add_gate("left", GateKind::Or, {upstream});
    const auto right = ft.add_gate("right", GateKind::Or, {upstream});
    ft.set_top(ft.add_gate("top", GateKind::And, {left, right}));
    CutSetOptions options;
    options.max_sets = 100;
    const auto sets = minimal_cut_sets(ft, options);
    ASSERT_EQ(sets.size(), 40u);
    for (std::uint32_t e = 0; e < 40; ++e) EXPECT_EQ(sets[e], CutSet{e});
}

/// random_fault_tree(seed, events, gates) with an empty AND gate and an
/// empty OR gate added before its gates, each of which draws, by the
/// seed, one of the two as an extra child a third of the time.
FaultTree with_empty_gates(std::uint32_t seed, std::size_t events, std::size_t gates) {
    const FaultTree base = testing::random_fault_tree(seed, events, gates);
    FaultTree ft;
    for (const ftree::BasicEvent& e : base.basic_events()) ft.add_basic_event(e.name, e.lambda);
    const std::array<ftree::FtRef, 2> empty = {ft.add_gate("none_and", GateKind::And),
                                               ft.add_gate("none_or", GateKind::Or)};
    const auto shifted = [](ftree::FtRef r) {
        if (r.kind == ftree::FtRef::Kind::Gate) r.index += 2;
        return r;
    };
    std::mt19937 rng(seed);
    for (const ftree::Gate& g : base.gates()) {
        std::vector<ftree::FtRef> children;
        for (const ftree::FtRef c : g.children) children.push_back(shifted(c));
        if (rng() % 3 == 0) children.push_back(empty[rng() % 2]);
        ft.add_gate(g.name, g.kind, std::move(children));
    }
    ft.set_top(shifted(base.top()));
    return ft;
}

/// Minimal cut sets of order <= max_order by subset enumeration: a set
/// is a minimal cut set when the top event fires for it and for none of
/// its proper subsets.  Exponential in the event count, so an oracle
/// for small trees only.
std::vector<CutSet> brute_force_cut_sets(const FaultTree& ft, std::size_t max_order) {
    const std::size_t n = ft.basic_events().size();
    std::vector<bool> assignment(n);
    const auto fires = [&](std::uint32_t mask) {
        for (std::size_t i = 0; i < n; ++i) assignment[i] = ((mask >> i) & 1u) != 0;
        return testing::evaluate_fault_tree(ft, ft.top(), assignment);
    };
    std::vector<CutSet> sets;
    for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
        if (static_cast<std::size_t>(std::popcount(mask)) > max_order || !fires(mask)) continue;
        bool minimal = true;
        for (std::uint32_t sub = mask; sub != 0 && minimal;) {
            sub = (sub - 1) & mask;
            minimal = !fires(sub);
        }
        if (!minimal) continue;
        CutSet cs;
        for (std::uint32_t e = 0; e < n; ++e) {
            if ((mask >> e) & 1u) cs.push_back(e);
        }
        sets.push_back(std::move(cs));
    }
    std::sort(sets.begin(), sets.end());
    return sets;
}

TEST(CutSets, MatchBruteForceOracle) {
    // Seeded random DAGs of 4..12 events at four gate densities.  The
    // sweep must reach every order it checks, or it proves little.
    std::vector<std::size_t> sets_by_order(5, 0);
    for (std::uint32_t seed = 1; seed <= 20; ++seed) {
        const std::size_t events = 4 + seed % 9;
        for (const std::size_t gates : {events / 2 + 1, events, 2 * events, 3 * events}) {
            const FaultTree ft = testing::random_fault_tree(seed, events, gates);
            for (std::size_t max_order = 1; max_order <= 4; ++max_order) {
                const std::vector<CutSet> expected = brute_force_cut_sets(ft, max_order);
                EXPECT_EQ(minimal_cut_sets(ft, {max_order, 200000}), expected)
                    << "seed " << seed << ", " << gates << " gates, max_order " << max_order;
                if (max_order == 4) {
                    for (const CutSet& cs : expected) ++sets_by_order[cs.size()];
                }
            }
        }
    }
    for (std::size_t order = 1; order <= 4; ++order) {
        EXPECT_GT(sets_by_order[order], 0u) << "no cut set of order " << order;
    }
    // The same on trees whose gates may hold an empty gate of either
    // kind, which has no cut set.
    for (std::uint32_t seed = 1; seed <= 20; ++seed) {
        const std::size_t events = 4 + seed % 9;
        const FaultTree ft = with_empty_gates(seed, events, 2 * events);
        for (std::size_t max_order = 1; max_order <= 4; ++max_order) {
            EXPECT_EQ(minimal_cut_sets(ft, {max_order, 200000}), brute_force_cut_sets(ft, max_order))
                << "seed " << seed << " with empty gates, max_order " << max_order;
        }
    }
}

/// Point B of a flow: every decision node expanded, no connect/reduce
/// and no mapping optimisation.
ArchitectureModel point_b(const ArchitectureModel& m, const std::vector<std::string>& nodes) {
    explore::ExplorationOptions options;
    options.run_connect_reduce = false;
    options.run_mapping_optimization = false;
    return explore::run_exploration(m, nodes, options).final_model;
}

/// Point B of the EcoTwin lateral flow.
FaultTree ecotwin_point_b_tree() {
    return ftree::build_fault_tree(
               point_b(scenarios::ecotwin_lateral_control(), scenarios::ecotwin_decision_nodes()))
        .tree;
}

/// FNV-1a over every event of every set, with a separator after each set.
std::uint64_t fingerprint(const std::vector<CutSet>& sets) {
    std::uint64_t h = 0xCBF29CE484222325ull;
    const auto feed = [&](std::uint32_t v) { h = (h ^ v) * 0x100000001B3ull; };
    for (const CutSet& cs : sets) {
        for (const std::uint32_t e : cs) feed(e);
        feed(0xFFFFFFFFu);
    }
    return h;
}

TEST(CutSets, MatchReferenceMocus) {
    // Trees whose redundant blocks hold what feeds every branch, where
    // products share most of their members: the EcoTwin demos at points
    // A and B, exact and approximated, seeded synthetic flow finals with
    // and without common causes in their blocks, and random DAGs of 40 to
    // 200 events.
    std::vector<std::pair<std::string, FaultTree>> trees;
    const auto add_model = [&](const std::string& name, const ArchitectureModel& m) {
        ftree::FtBuildOptions approximate;
        approximate.approximate = true;
        trees.emplace_back(name, ftree::build_fault_tree(m).tree);
        trees.emplace_back(name + " approximated", ftree::build_fault_tree(m, approximate).tree);
    };
    const ArchitectureModel lateral = scenarios::ecotwin_lateral_control();
    const ArchitectureModel longitudinal = scenarios::ecotwin_longitudinal_control();
    add_model("lateral A", lateral);
    add_model("lateral B", point_b(lateral, scenarios::ecotwin_decision_nodes()));
    add_model("longitudinal A", longitudinal);
    add_model("longitudinal B", point_b(longitudinal, scenarios::longitudinal_decision_nodes()));
    for (std::uint32_t seed = 1; seed <= 16; ++seed) {
        ArchitectureModel m = testing::synthetic_flow_final(seed);
        const std::string name = std::string("flow ").append(std::to_string(seed));
        trees.emplace_back(name, ftree::build_fault_tree(m).tree);
        testing::add_common_causes(m, seed);
        trees.emplace_back(name + " with common causes", ftree::build_fault_tree(m).tree);
    }
    for (std::uint32_t seed = 1; seed <= 12; ++seed) {
        const std::size_t events = 40 + (seed * 53) % 161;
        trees.emplace_back(std::string("random ").append(std::to_string(seed)),
                           testing::random_fault_tree(seed, events, 3 * events));
    }
    std::size_t sets = 0;
    for (const auto& [name, ft] : trees) {
        for (std::size_t max_order = 1; max_order <= 5; ++max_order) {
            const std::vector<CutSet> expected = testing::reference_cut_sets(ft, max_order);
            EXPECT_EQ(minimal_cut_sets(ft, {max_order, 200000}), expected)
                << name << ", max_order " << max_order;
            sets += expected.size();
        }
    }
    EXPECT_GT(sets, 10000u);
}

TEST(CutSets, EcotwinPointBPinned) {
    const FaultTree ft = ecotwin_point_b_tree();
    EXPECT_EQ(ft.basic_events().size(), 138u);
    EXPECT_EQ(ft.gates().size(), 123u);
    const std::vector<CutSet> sets = minimal_cut_sets(ft, {4, 200000});
    EXPECT_EQ(sets.size(), 261u);
    EXPECT_EQ(fingerprint(sets), 0xAA6126A16DFD57ADull);
}

}  // namespace
}  // namespace asilkit::analysis
