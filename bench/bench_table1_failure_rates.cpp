// Table I: resource failure rates (failures/hour) by kind and ASIL.
//
// Regenerates the paper's table from the FailureRates implementation.
#include "bench_util.h"

#include "model/failure_rates.h"
#include "model/location.h"

using namespace asilkit;

namespace {

void print_report() {
    bench::heading("Table I: resource failure rates (failures/hour)");
    std::printf("  %-20s %-10s %-10s %-10s %-10s %-10s\n", "Resource type", "QM", "A", "B", "C",
                "D");
    const FailureRates rates = FailureRates::table1();
    auto print_kind = [&](const char* label, ResourceKind kind) {
        std::printf("  %-20s ", label);
        for (Asil a : kAllAsilLevels) std::printf("%-10.0e ", rates.rate(kind, a));
        std::printf("\n");
    };
    print_kind("Splitter or Merger", ResourceKind::Splitter);
    print_kind("Other (functional)", ResourceKind::Functional);
    print_kind("Other (comm)", ResourceKind::Communication);
    print_kind("Other (sensor)", ResourceKind::Sensor);
    print_kind("Other (actuator)", ResourceKind::Actuator);
    bench::row("physical location rate", kDefaultLocationLambda);
    bench::note("paper Table I reads '10e-6' style entries as powers of ten;");
    bench::note("splitter/merger hardware is one decade more reliable per level.");
}

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
