#include "cost/cost_analysis.h"
#include "cost/cost_metric.h"

#include <gtest/gtest.h>

#include "scenarios/micro.h"
#include "transform/expand.h"

namespace asilkit::cost {
namespace {

TEST(CostMetric, Table2Values) {
    const CostMetric m = CostMetric::exponential_metric1();
    EXPECT_DOUBLE_EQ(m.cost(ResourceKind::Functional, Asil::QM), 5.0);
    EXPECT_DOUBLE_EQ(m.cost(ResourceKind::Functional, Asil::D), 50000.0);
    EXPECT_DOUBLE_EQ(m.cost(ResourceKind::Communication, Asil::QM), 4.0);
    EXPECT_DOUBLE_EQ(m.cost(ResourceKind::Communication, Asil::C), 4000.0);
    EXPECT_DOUBLE_EQ(m.cost(ResourceKind::Sensor, Asil::B), 800.0);
    EXPECT_DOUBLE_EQ(m.cost(ResourceKind::Actuator, Asil::A), 80.0);
    EXPECT_DOUBLE_EQ(m.cost(ResourceKind::Splitter, Asil::QM), 1.0);
    EXPECT_DOUBLE_EQ(m.cost(ResourceKind::Merger, Asil::D), 10000.0);
}

TEST(CostMetric, EveryLevelIsOneDecadeInMetric1) {
    const CostMetric m = CostMetric::exponential_metric1();
    for (ResourceKind kind : kAllResourceKinds) {
        for (int level = 1; level < kAsilLevelCount; ++level) {
            EXPECT_NEAR(m.cost(kind, static_cast<Asil>(level)) /
                            m.cost(kind, static_cast<Asil>(level - 1)),
                        10.0, 1e-9);
        }
    }
}

TEST(CostMetric, Metric2IsSteeper) {
    const CostMetric m1 = CostMetric::exponential_metric1();
    const CostMetric m2 = CostMetric::exponential_metric2();
    EXPECT_EQ(m1.cost(ResourceKind::Functional, Asil::QM),
              m2.cost(ResourceKind::Functional, Asil::QM));
    EXPECT_GT(m2.cost(ResourceKind::Functional, Asil::D),
              m1.cost(ResourceKind::Functional, Asil::D));
}

TEST(CostMetric, Metric3IsLinear) {
    const CostMetric m = CostMetric::linear_metric3();
    const double qm = m.cost(ResourceKind::Functional, Asil::QM);
    const double a = m.cost(ResourceKind::Functional, Asil::A);
    const double b = m.cost(ResourceKind::Functional, Asil::B);
    EXPECT_NEAR(b - a, a - qm, 1e-9);  // constant increments
}

TEST(CostMetric, NamesAndCustomisation) {
    CostMetric m = CostMetric::exponential_metric1();
    EXPECT_EQ(m.name(), "exponential-metric-1");
    m.set_cost(ResourceKind::Sensor, Asil::D, 123.0);
    EXPECT_DOUBLE_EQ(m.cost(ResourceKind::Sensor, Asil::D), 123.0);
}

TEST(CostMetric, ResourceCostHonoursOverride) {
    const CostMetric m = CostMetric::exponential_metric1();
    Resource r{"x", ResourceKind::Sensor, Asil::D, {}, {}};
    EXPECT_DOUBLE_EQ(m.resource_cost(r), 80000.0);
    r.cost_override = 0.0;
    EXPECT_DOUBLE_EQ(m.resource_cost(r), 0.0);
}

TEST(CostAnalysis, ChainCostIsHandComputable) {
    // sensor(80000) + actuator(80000) + functional(50000) + 2 comm(40000).
    const ArchitectureModel m = scenarios::chain_1in_1out();
    EXPECT_DOUBLE_EQ(total_cost(m, CostMetric::exponential_metric1()), 290000.0);
}

TEST(CostAnalysis, UnusedResourcesExcludedByDefault) {
    // An unmapped spare (50000 as a functional D part) costs nothing.
    ArchitectureModel m = scenarios::chain_1in_1out();
    m.add_resource({"spare", ResourceKind::Functional, Asil::D, {}, {}});
    const CostMetric metric = CostMetric::exponential_metric1();
    EXPECT_DOUBLE_EQ(total_cost(m, metric), 290000.0);
    EXPECT_DOUBLE_EQ(cost_report(m, metric).total, 290000.0);
}

TEST(CostAnalysis, ExpansionWithCheapManagementLowersCost) {
    // Paper Section VII-A: replacing an expensive D node with B branches
    // plus dedicated splitter/merger hardware can REDUCE total cost.
    ArchitectureModel m = scenarios::chain_1in_1out();
    const CostMetric metric = CostMetric::exponential_metric1();
    const double before = total_cost(m, metric);
    transform::expand(m, m.find_app_node("n"));
    const double after = total_cost(m, metric);
    EXPECT_LT(after, before);
}

TEST(CostAnalysis, ReportBreakdownIsConsistent) {
    const ArchitectureModel m = scenarios::chain_1in_1out();
    const CostReport report = cost_report(m, CostMetric::exponential_metric1());
    EXPECT_DOUBLE_EQ(report.total, 290000.0);
    EXPECT_EQ(report.breakdown.size(), 5u);
    double sum = 0.0;
    for (const auto& entry : report.breakdown) sum += entry.cost;
    EXPECT_DOUBLE_EQ(sum, report.total);
    // Sorted descending.
    for (std::size_t i = 1; i < report.breakdown.size(); ++i) {
        EXPECT_GE(report.breakdown[i - 1].cost, report.breakdown[i].cost);
    }
    double by_kind_sum = 0.0;
    for (double v : report.by_kind) by_kind_sum += v;
    EXPECT_DOUBLE_EQ(by_kind_sum, report.total);
    EXPECT_DOUBLE_EQ(report.by_kind[static_cast<std::size_t>(ResourceKind::Sensor)], 80000.0);
}

TEST(CostAnalysis, GenericExponentialBuilder) {
    std::array<double, kResourceKindCount> bases{};
    bases.fill(2.0);
    const CostMetric m = CostMetric::exponential(bases, 3.0, "tripling");
    EXPECT_EQ(m.name(), "tripling");
    EXPECT_DOUBLE_EQ(m.cost(ResourceKind::Sensor, Asil::QM), 2.0);
    EXPECT_DOUBLE_EQ(m.cost(ResourceKind::Sensor, Asil::D), 2.0 * 81.0);
}

}  // namespace
}  // namespace asilkit::cost
