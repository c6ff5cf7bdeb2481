// Basic-event importance measures (extension beyond the paper's text).
//
// For each basic event i with probability p_i and top-event probability
// Q = P(top):
//   * Birnbaum       B_i  = P(top | i occurred) - P(top | i did not),
//                    the partial derivative dQ/dp_i;
//   * Criticality    C_i  = B_i * p_i / Q, the probability the event is
//                    critical AND failed given the system failed;
//   * Fussell-Vesely FV_i = 1 - P(top | p_i = 0) / Q, the fraction of
//                    system failure probability flowing through i.
// All three are evaluated exactly on the BDD by re-running the Shannon
// probability recursion with the conditioned probability vector.  Each
// entry carries its basic event's index, the event's identity: a caller
// that knows which event it wants (fmea, through the builder's id
// tables) looks it up by index, since two events may share a name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ftree/fault_tree.h"

namespace asilkit::analysis {

struct ImportanceEntry {
    std::uint32_t index = 0;  ///< the basic event's index in the tree
    std::string event;        ///< its name
    double probability = 0.0;
    double birnbaum = 0.0;
    double criticality = 0.0;
    double fussell_vesely = 0.0;
};

/// One entry per basic event reachable from the top gate, sorted by
/// descending Birnbaum importance, then name, then index.
[[nodiscard]] std::vector<ImportanceEntry> importance_measures(const ftree::FaultTree& ft,
                                                               double mission_hours = 1.0);

}  // namespace asilkit::analysis
