// Expansion advisor: which node should be decomposed next?
//
// The paper's flow expands a hand-picked node set; this extension ranks
// every expandable node by the measured effect of actually expanding it
// (trial transformation on a copy, exact analysis — models are small
// enough that measuring beats estimating).  An expansion is RECOMMENDED
// when it lowers the failure probability, or when it lowers cost without
// raising the probability — the lens an architect needs when ASIL D
// parts are unavailable and the question is where redundancy pays.  A
// cost saving never buys a rise in the failure probability.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/probability.h"
#include "core/decomposition.h"
#include "cost/cost_metric.h"
#include "model/architecture.h"

namespace asilkit::explore {

struct AdvisorOptions {
    DecompositionStrategy strategy = DecompositionStrategy::BB;
    std::size_t branches = 2;
    cost::CostMetric metric = cost::CostMetric::exponential_metric1();
    analysis::ProbabilityOptions probability{};
};

struct ExpansionAdvice {
    std::string node;
    NodeKind kind = NodeKind::Functional;
    double delta_probability = 0.0;  ///< after - before (negative = safer)
    double delta_cost = 0.0;         ///< after - before (negative = cheaper)
    bool recommended = false;
};

std::ostream& operator<<(std::ostream& os, const ExpansionAdvice& a);

/// One entry per expandable node (functional/communication, non-QM,
/// >=1 in and out), sorted by ascending delta_probability (best first).
[[nodiscard]] std::vector<ExpansionAdvice> advise_expansions(const ArchitectureModel& m,
                                                             const AdvisorOptions& options = {});

}  // namespace asilkit::explore
