// Common-Cause-Fault analysis (paper Section V).
//
// ASIL decomposition is only valid when the redundant branches are
// independent.  Three ways independence breaks, in decreasing severity:
//   * SharedResource   — two branches mapped onto the same hardware: one
//                        base event fails both branches at once (the
//                        paper's dfus_1/dfus_2-on-one-ECU example);
//   * SharedLocation   — branch hardware hosted at the same physical
//                        position: a single local event (crash intrusion,
//                        fire) removes both branches;
//   * SharedEnvironment — branch hardware in different locations that
//                        nevertheless share a non-benign environmental
//                        zone (temperature / vibration / EMI / water):
//                        the Freedom-From-Interference concern.
//
// The findings come from branch_usage (model/blocks.h), which lists the
// resources and locations each block's branches use, by id.  A shared
// resource or location is a base event of several branches, which also
// voids the Section V fault-tree approximation: the fault-tree builder
// reads the same list and falls back to the exact expansion for a block
// with a SharedResource or SharedLocation finding.  Per block, findings
// come resources first, then locations, each by ascending id, then zones
// by dimension (temperature, vibration, emi, water) and zone number.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/ids.h"
#include "model/architecture.h"

namespace asilkit::analysis {

enum class CcfKind : std::uint8_t {
    SharedResource,
    SharedLocation,
    SharedEnvironment,
};

[[nodiscard]] std::string_view to_string(CcfKind k) noexcept;

struct CcfFinding {
    CcfKind kind = CcfKind::SharedResource;
    NodeId merger;                            ///< the block where independence breaks
    std::string subject;                      ///< resource/location/zone name
    std::vector<std::size_t> branch_indices;  ///< branches sharing it
    std::string message;
};

std::ostream& operator<<(std::ostream& os, const CcfFinding& f);

struct CcfReport {
    std::vector<CcfFinding> findings;

    [[nodiscard]] bool independent() const noexcept { return findings.empty(); }
    /// True when the block at `merger` has no finding of any kind.
    [[nodiscard]] bool block_independent(NodeId merger) const noexcept;
    [[nodiscard]] std::size_t count(CcfKind kind) const noexcept;
};

[[nodiscard]] CcfReport analyze_ccf(const ArchitectureModel& m);

}  // namespace asilkit::analysis
