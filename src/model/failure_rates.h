// Failure-rate tables (paper Table I).
//
// Rates are per-hour and keyed by (resource kind, ASIL readiness).  The
// paper's Table I, read as powers of ten:
//
//   kind             QM     A      B      C      D
//   splitter/merger  1e-6   1e-7   1e-8   1e-9   1e-10
//   everything else  1e-5   1e-6   1e-7   1e-8   1e-9
//
// i.e. one decade per ASIL level, and the dedicated redundancy-management
// hardware (splitter/merger) is assumed one decade more reliable than
// general-purpose hardware of the same level.  This class is the only copy
// of Table I.  Physical locations carry their own "position destroyed"
// rate (Location::lambda, 1e-11/h by default), which the fault-tree
// builder reads directly; the table holds none.
#pragma once

#include <array>

#include "core/asil.h"
#include "model/resource.h"

namespace asilkit {

class FailureRates {
public:
    /// Defaults to the paper's Table I.
    FailureRates();

    /// The paper's Table I (same as the default constructor, by name).
    [[nodiscard]] static FailureRates table1() { return FailureRates{}; }

    [[nodiscard]] double rate(ResourceKind kind, Asil asil) const noexcept;
    void set_rate(ResourceKind kind, Asil asil, double lambda) noexcept;

    /// Rate of a concrete resource: the data-sheet override wins when set.
    [[nodiscard]] double resource_rate(const Resource& r) const noexcept;

private:
    std::array<std::array<double, kAsilLevelCount>, kResourceKindCount> rates_{};
};

}  // namespace asilkit
