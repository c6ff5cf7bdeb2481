#include "analysis/probability.h"

#include <gtest/gtest.h>

#include "helpers.h"
#include "scenarios/fig3.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

namespace asilkit::analysis {
namespace {

TEST(Probability, ChainIsSumOfSeriesRates) {
    // 5 ASIL-D resources at 1e-9 plus 2 locations at 1e-11: the exact
    // probability at 1 hour is within rounding of the rate sum.
    const ArchitectureModel m = scenarios::chain_1in_1out();
    const ProbabilityResult r = analyze_failure_probability(m);
    EXPECT_NEAR(r.failure_probability, 5.02e-9, 1e-12);
    EXPECT_EQ(r.variables, 7u);
    EXPECT_TRUE(r.warnings.empty());
}

TEST(Probability, MissionTimeScales) {
    const ArchitectureModel m = scenarios::chain_1in_1out();
    ProbabilityOptions long_mission;
    long_mission.mission_hours = 10000.0;
    const double p1 = analyze_failure_probability(m).failure_probability;
    const double p2 = analyze_failure_probability(m, long_mission).failure_probability;
    EXPECT_NEAR(p2 / p1, 10000.0, 1.0);
}

TEST(Probability, LocationEventsToggle) {
    // The chain's two locations add their 1e-11 each.
    const ArchitectureModel m = scenarios::chain_1in_1out();
    ArchitectureModel no_locations = m;
    testing::set_location_lambdas(no_locations, 0.0);
    const double with = analyze_failure_probability(m).failure_probability;
    const double without = analyze_failure_probability(no_locations).failure_probability;
    EXPECT_NEAR(with - without, 2e-11, 1e-14);
}

TEST(Probability, CustomRates) {
    const ArchitectureModel m = scenarios::chain_1in_1out();
    ProbabilityOptions options;
    options.rates.set_rate(ResourceKind::Functional, Asil::D, 1e-6);  // one bad ECU family
    const double p = analyze_failure_probability(m, options).failure_probability;
    EXPECT_NEAR(p, 1e-6 + 4e-9 + 2e-11, 1e-10);
}

TEST(Probability, ExpansionOf1In1OutLowersProbability) {
    // Paper Figs. 5/7: replicating a series node behind reliable
    // splitter/merger hardware reduces the failure probability.
    ArchitectureModel m = scenarios::chain_1in_1out();
    const double before = analyze_failure_probability(m).failure_probability;
    transform::expand(m, m.find_app_node("n"));
    const double after = analyze_failure_probability(m).failure_probability;
    EXPECT_LT(after, before);
    // The removed D node contributed 1e-9; the new splitter+merger add
    // 2e-10; the branches contribute ~(1e-7)^2.
    EXPECT_NEAR(before - after, 8e-10, 1e-10);
}

TEST(Probability, ExpansionOf3In3OutIsLessBeneficialThan1In1Out) {
    // Paper Fig. 8 vs Fig. 7: a high-fan node needs one splitter/merger
    // per edge, so its expansion benefit shrinks (and can invert).
    ArchitectureModel small = scenarios::chain_1in_1out();
    const double small_before = analyze_failure_probability(small).failure_probability;
    transform::expand(small, small.find_app_node("n"));
    const double small_delta =
        analyze_failure_probability(small).failure_probability - small_before;

    ArchitectureModel wide = scenarios::chain_3in_3out();
    const double wide_before = analyze_failure_probability(wide).failure_probability;
    transform::expand(wide, wide.find_app_node("n"));
    const double wide_delta =
        analyze_failure_probability(wide).failure_probability - wide_before;

    EXPECT_GT(wide_delta, small_delta);
}

TEST(Probability, ExpansionOf3In3OutRaisesProbabilityWithCheaperManagement) {
    // Paper Fig. 8 / Section VII-B conclusion: "it is not always
    // beneficial to introduce redundancy in the system, depending on the
    // lambda values of the resources that are being used and the system
    // configuration".  With splitter/merger hardware only 2.5x (not 10x)
    // more reliable than functional hardware, the 6 new management
    // resources of a 3-in/3-out expansion outweigh the removed node while
    // the 1-in/1-out expansion stays beneficial.
    ProbabilityOptions options;
    options.rates.set_rate(ResourceKind::Splitter, Asil::D, 4e-10);
    options.rates.set_rate(ResourceKind::Merger, Asil::D, 4e-10);

    ArchitectureModel wide = scenarios::chain_3in_3out();
    const double wide_before = analyze_failure_probability(wide, options).failure_probability;
    transform::expand(wide, wide.find_app_node("n"));
    const double wide_after = analyze_failure_probability(wide, options).failure_probability;
    EXPECT_GT(wide_after, wide_before);

    ArchitectureModel small = scenarios::chain_1in_1out();
    const double small_before = analyze_failure_probability(small, options).failure_probability;
    transform::expand(small, small.find_app_node("n"));
    const double small_after = analyze_failure_probability(small, options).failure_probability;
    EXPECT_LT(small_after, small_before);
}

TEST(Probability, ApproximationIsAccurateOnFig3) {
    // Paper Section V: 2.04180e-7 exact vs 2.04179e-7 approximated.
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    ProbabilityOptions approx;
    approx.approximate = true;
    const ProbabilityResult exact = analyze_failure_probability(m);
    const ProbabilityResult approximated = analyze_failure_probability(m, approx);
    EXPECT_EQ(approximated.approximated_blocks, 1u);
    EXPECT_LT(approximated.ft_stats.dag_nodes, exact.ft_stats.dag_nodes);
    const double rel_error = std::abs(exact.failure_probability -
                                      approximated.failure_probability) /
                             exact.failure_probability;
    EXPECT_LT(rel_error, 1e-4);
    // The approximation drops branch events, so it slightly UNDERestimates.
    EXPECT_LE(approximated.failure_probability, exact.failure_probability);
}

TEST(Probability, Fig3MagnitudeMatchesPaper) {
    // Paper: 2.04180e-7 fph; our reconstruction of the unpublished model
    // must land in the same ballpark (dominated by the two B sensors).
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    const double p = analyze_failure_probability(m).failure_probability;
    EXPECT_GT(p, 1.9e-7);
    EXPECT_LT(p, 2.3e-7);
}

TEST(Probability, ApproximationAccurateOnExpandedChains) {
    for (std::size_t stages : {1u, 2u, 3u, 4u}) {
        ArchitectureModel m = scenarios::chain_n_stages(stages);
        for (std::size_t i = 1; i <= stages; ++i) {
            transform::expand(m, m.find_app_node(std::string("f").append(std::to_string(i))));
        }
        ProbabilityOptions approx;
        approx.approximate = true;
        const double exact = analyze_failure_probability(m).failure_probability;
        const double approximated =
            analyze_failure_probability(m, approx).failure_probability;
        EXPECT_LE(approximated, exact);
        EXPECT_LT((exact - approximated) / exact, 1e-3) << stages << " stages";
    }
}

TEST(Probability, FaultTreeProbabilityOnHandTree) {
    ftree::FaultTree ft;
    const auto a = ft.add_basic_event("a", 0.1);
    const auto b = ft.add_basic_event("b", 0.1);
    ft.set_top(ft.add_gate("top", ftree::GateKind::And, {a, b}));
    const double p_event = 1.0 - std::exp(-0.1);
    EXPECT_NEAR(fault_tree_probability(ft), p_event * p_event, 1e-12);
}

TEST(Probability, RareEventMatchesBddOnSeriesSystems) {
    // Without shared events or AND gates, sum == exact (to first order).
    // Location events are shared between co-located gates; at rate 0
    // they cannot occur, so the tree evaluates as a share-free one.
    ArchitectureModel m = scenarios::chain_1in_1out();
    testing::set_location_lambdas(m, 0.0);
    const ftree::FtBuildResult ft = ftree::build_fault_tree(m);
    const double bdd = fault_tree_probability(ft.tree);
    const double rare = rare_event_probability(ft.tree);
    EXPECT_NEAR(bdd, rare, 1e-12);
}

TEST(Probability, RareEventArithmeticIsWrongWithSharedEvents) {
    // Gate-local sum/product arithmetic mishandles shared events: in
    // Fig. 3 the camera/GPS failures reach the top only through the
    // merger's AND, whose product treats the two branches as independent
    // and so *loses* the common upstream contribution almost entirely
    // (underestimating by two orders of magnitude here).  This is exactly
    // why the paper converts the fault tree to a BDD before evaluating.
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    const ftree::FtBuildResult ft = ftree::build_fault_tree(m);
    const double exact = fault_tree_probability(ft.tree);
    const double rare = rare_event_probability(ft.tree);
    EXPECT_LT(rare, 0.1 * exact);
}

TEST(Probability, BddIsBruteForceExactOnRandomTrees) {
    for (std::uint32_t seed = 100; seed < 110; ++seed) {
        const ftree::FaultTree ft = testing::random_fault_tree(seed, 8, 5);
        EXPECT_NEAR(fault_tree_probability(ft), testing::brute_force_probability(ft), 1e-10)
            << "seed " << seed;
    }
}

TEST(Probability, ModularMatchesMonolithicOnRandomTrees) {
    // modular_probability computes the same exact quantity through a
    // different BDD factorisation; on random trees (which contain shared
    // events, so single-module regions too) the two must agree to
    // rounding, and both must match brute force.
    for (std::uint32_t seed = 100; seed < 110; ++seed) {
        const ftree::FaultTree ft = testing::random_fault_tree(seed, 8, 5);
        const double mono = fault_tree_probability(ft);
        const double modular = modular_probability(ft).failure_probability;
        EXPECT_NEAR(modular, mono, 1e-12 * std::max(mono, 1e-30)) << "seed " << seed;
        EXPECT_NEAR(modular, testing::brute_force_probability(ft), 1e-10) << "seed " << seed;
    }
}

TEST(Probability, ModularMatchesMonolithicOnSharedEventTree) {
    // Fig. 3 has genuinely shared events (camera/GPS reach the top
    // through both merger branches) — those stay inside one module and
    // the decomposition must still be exact.
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    const ftree::FtBuildResult ft = ftree::build_fault_tree(m);
    const double exact = fault_tree_probability(ft.tree);
    EXPECT_NEAR(modular_probability(ft.tree).failure_probability, exact, 1e-12 * exact);
}

TEST(Probability, ModularHandlesDegenerateTops) {
    ftree::FaultTree leaf;
    leaf.set_top(leaf.add_basic_event("only", 0.5));
    EXPECT_NEAR(modular_probability(leaf).failure_probability, 1.0 - std::exp(-0.5), 1e-15);

    ftree::FaultTree unary;
    unary.set_top(unary.add_gate("g", ftree::GateKind::Or, {unary.add_basic_event("e", 0.5)}));
    EXPECT_NEAR(modular_probability(unary).failure_probability, 1.0 - std::exp(-0.5), 1e-15);
}

TEST(Probability, ResultCarriesStructuralDiagnostics) {
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    const ProbabilityResult r = analyze_failure_probability(m);
    EXPECT_GT(r.ft_stats.dag_nodes, 0u);
    EXPECT_GT(r.bdd_nodes, 0u);
    EXPECT_GE(r.bdd_total_nodes, r.bdd_nodes);
    EXPECT_GT(r.variables, 0u);
    EXPECT_GT(r.modules, 0u);
    EXPECT_EQ(r.cycles_cut, 0u);
}

}  // namespace
}  // namespace asilkit::analysis
