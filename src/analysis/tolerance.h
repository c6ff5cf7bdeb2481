// Fault-tolerance metrics derived from minimal cut sets.
//
// The order of the smallest minimal cut set is the number of independent
// component faults the architecture survives plus one: order 1 means a
// single point of failure exists, order k means any k-1 simultaneous
// faults are masked.  ASIL decomposition with two branches should raise
// the decomposed region's local cut order from 1 to 2; this module
// reports the system-wide metric and the surviving single points of
// failure so architects can see what is *not* yet protected.
#pragma once

#include <string>
#include <vector>

#include "analysis/cutsets.h"
#include "model/architecture.h"

namespace asilkit::analysis {

struct FaultToleranceReport {
    /// Smallest cut-set order found (0 = no cut set within the limit).
    std::size_t min_cut_order = 0;
    /// Faults tolerated in the worst spot: min_cut_order - 1.
    std::size_t tolerated_faults = 0;
    /// Names of single-point-of-failure base events (order-1 cut sets).
    std::vector<std::string> single_points_of_failure;
    /// Number of minimal cut sets per order, index 0 unused; orders run
    /// up to max_order or the basic-event count, whichever is smaller.
    std::vector<std::size_t> cut_sets_by_order;
};

struct FaultToleranceOptions {
    std::size_t max_order = 3;  ///< at least 1 (minimal_cut_sets throws on 0)
};

[[nodiscard]] FaultToleranceReport analyze_fault_tolerance(
    const ArchitectureModel& m, const FaultToleranceOptions& options = {});

}  // namespace asilkit::analysis
