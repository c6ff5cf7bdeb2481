// Table II: "Exponential Cost Metric 1" — unit cost per resource kind and
// ASIL — plus the alternative metrics used by the Fig. 1 curve families.
#include "bench_util.h"

#include "cost/cost_analysis.h"
#include "scenarios/ecotwin.h"

using namespace asilkit;

namespace {

void print_metric(const cost::CostMetric& metric) {
    std::printf("  %-16s %-8s %-8s %-8s %-8s %-8s\n", metric.name().c_str(), "QM", "A", "B", "C",
                "D");
    const struct {
        const char* label;
        ResourceKind kind;
    } kinds[] = {
        {"Functional", ResourceKind::Functional}, {"Communication", ResourceKind::Communication},
        {"Sensor", ResourceKind::Sensor},         {"Actuator", ResourceKind::Actuator},
        {"Splitter", ResourceKind::Splitter},     {"Merger", ResourceKind::Merger},
    };
    for (const auto& k : kinds) {
        std::printf("  %-16s ", k.label);
        for (Asil a : kAllAsilLevels) std::printf("%-8.6g ", metric.cost(k.kind, a));
        std::printf("\n");
    }
}

void print_report() {
    bench::heading("Table II: Exponential Cost Metric 1");
    print_metric(cost::CostMetric::exponential_metric1());
    bench::heading("Alternative metric 2 (steeper exponential, factor 20)");
    print_metric(cost::CostMetric::exponential_metric2());
    bench::heading("Alternative metric 3 (linear)");
    print_metric(cost::CostMetric::linear_metric3());

    bench::heading("Sanity: EcoTwin initial architecture cost under each metric");
    const ArchitectureModel m = scenarios::ecotwin_lateral_control();
    bench::row("metric 1", cost::total_cost(m, cost::CostMetric::exponential_metric1()));
    bench::row("metric 2", cost::total_cost(m, cost::CostMetric::exponential_metric2()));
    bench::row("metric 3", cost::total_cost(m, cost::CostMetric::linear_metric3()));
    bench::note("paper initial cost (its unpublished model, metric 1): 998800");
}

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
