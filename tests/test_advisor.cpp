#include "explore/advisor.h"

#include <gtest/gtest.h>

#include "scenarios/ecotwin.h"
#include "scenarios/micro.h"

namespace asilkit::explore {
namespace {

TEST(Advisor, CoversEveryExpandableNode) {
    const ArchitectureModel m = scenarios::chain_1in_1out();
    const auto advice = advise_expansions(m);
    // n, c_in, c_out are expandable; sensor/actuator are not.
    ASSERT_EQ(advice.size(), 3u);
    for (const auto& a : advice) {
        EXPECT_TRUE(a.node == "n" || a.node == "c_in" || a.node == "c_out") << a.node;
    }
}

TEST(Advisor, FunctionalExpansionRecommendedUnderTable1) {
    const ArchitectureModel m = scenarios::chain_1in_1out();
    const auto advice = advise_expansions(m);
    // Best entry: the functional node (removes 1e-9, adds 2e-10).
    EXPECT_EQ(advice.front().node, "n");
    EXPECT_LT(advice.front().delta_probability, 0.0);
    EXPECT_TRUE(advice.front().recommended);
}

TEST(Advisor, CommExpansionRaisesBothAxesAndIsNotRecommended) {
    const ArchitectureModel m = scenarios::chain_1in_1out();
    const auto advice = advise_expansions(m);
    for (const auto& a : advice) {
        if (a.kind != NodeKind::Communication) continue;
        // c_pre/c_post D comm resources add ~2e-9, removed comm is 1e-9;
        // the same two resources add 80000 cost against 40000 removed.
        EXPECT_GT(a.delta_probability, 0.0) << a.node;
        EXPECT_GT(a.delta_cost, 0.0) << a.node;
        EXPECT_FALSE(a.recommended) << a.node;
    }
}

TEST(Advisor, ToleranceEnablesCostDrivenRecommendations) {
    // With management hardware as failure-prone as ordinary hardware, a
    // functional expansion raises P slightly (+1e-9) but still saves cost
    // (-27400): the advisor tolerates no rise in P, so a cost saving
    // alone does not get it recommended.
    const ArchitectureModel m = scenarios::chain_1in_1out();
    AdvisorOptions strict;
    strict.probability.rates.set_rate(ResourceKind::Splitter, Asil::D, 1e-9);
    strict.probability.rates.set_rate(ResourceKind::Merger, Asil::D, 1e-9);
    bool seen = false;
    for (const auto& a : advise_expansions(m, strict)) {
        if (a.node != "n") continue;
        seen = true;
        EXPECT_GT(a.delta_probability, 0.0);
        EXPECT_LT(a.delta_cost, 0.0);
        EXPECT_FALSE(a.recommended);
    }
    EXPECT_TRUE(seen);
}

TEST(Advisor, SortedByProbabilityDelta) {
    const ArchitectureModel m = scenarios::ecotwin_lateral_control();
    AdvisorOptions options;
    options.probability.approximate = true;
    const auto advice = advise_expansions(m, options);
    ASSERT_GT(advice.size(), 5u);
    for (std::size_t i = 1; i < advice.size(); ++i) {
        EXPECT_LE(advice[i - 1].delta_probability, advice[i].delta_probability);
    }
}

TEST(Advisor, TrialDoesNotMutateInput) {
    const ArchitectureModel m = scenarios::chain_1in_1out();
    const std::size_t nodes = m.app().node_count();
    (void)advise_expansions(m);
    EXPECT_EQ(m.app().node_count(), nodes);
    EXPECT_TRUE(m.find_app_node("n").valid());
}

TEST(Advisor, RespectsStrategyAndBranchCount) {
    const ArchitectureModel m = scenarios::chain_1in_1out();
    AdvisorOptions three_way;
    three_way.branches = 3;
    const auto advice2 = advise_expansions(m);
    const auto advice3 = advise_expansions(m, three_way);
    // Three BB branches on D are {B, A, A}: the third branch is weaker
    // and CHEAPER than the B branch it replaces, so the 3-way expansion
    // saves slightly more under the exponential metric.
    double cost2 = 0.0;
    double cost3 = 0.0;
    for (const auto& a : advice2) {
        if (a.node == "n") cost2 = a.delta_cost;
    }
    for (const auto& a : advice3) {
        if (a.node == "n") cost3 = a.delta_cost;
    }
    EXPECT_NE(cost3, cost2);
    EXPECT_LT(cost3, cost2);
}

}  // namespace
}  // namespace asilkit::explore
