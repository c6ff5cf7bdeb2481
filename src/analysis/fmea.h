// FMEA-style component criticality report.
//
// The deliverable a safety engineer actually files: one row per hardware
// resource with its failure rate, the application functions it
// implements, the FSRs it touches, its exact importance measures
// (Birnbaum / Fussell-Vesely on the system BDD), and whether it is a
// single point of failure.  Both are read at the resource's own basic
// event, which the fault-tree builder's id table names, so two resources
// that share a name still get a row each with their own measures.  Rows
// are ranked by Fussell-Vesely — the fraction of the system failure
// probability flowing through the part — which is the order in which
// hardening the architecture pays off.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/asil.h"
#include "model/architecture.h"

namespace asilkit::analysis {

struct FmeaRow {
    std::string resource;
    ResourceKind kind = ResourceKind::Functional;
    Asil asil = Asil::QM;
    double lambda = 0.0;
    std::vector<std::string> implements;  ///< application node names
    std::vector<std::string> fsrs;        ///< requirements traced through those nodes
    double birnbaum = 0.0;
    double fussell_vesely = 0.0;
    bool single_point_of_failure = false;
};

std::ostream& operator<<(std::ostream& os, const FmeaRow& row);

struct FmeaOptions {
    double mission_hours = 1.0;
};

/// One row per used resource, sorted by descending Fussell-Vesely.
[[nodiscard]] std::vector<FmeaRow> fmea_report(const ArchitectureModel& m,
                                               const FmeaOptions& options = {});

}  // namespace asilkit::analysis
