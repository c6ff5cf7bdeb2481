// Umbrella header: the full asilkit public API.
//
// Individual headers are preferred in library code; this exists for
// quick-start consumers and example snippets.
#pragma once

#include "core/asil.h"             // ASIL levels, X(Y) tags
#include "core/decomposition.h"    // Fig. 2 catalogue, strategies
#include "core/error.h"            // exception hierarchy
#include "core/ids.h"              // strong id types
#include "core/thread_pool.h"      // thread count, fork-join fan-out
#include "core/version.h"

#include "graph/algorithms.h"
#include "graph/digraph.h"

#include "model/architecture.h"    // the three-layer model
#include "model/blocks.h"          // redundant-block detection, Eq. 4
#include "model/failure_rates.h"   // Table I
#include "model/validation.h"

#include "ftree/builder.h"         // automatic fault-tree generation
#include "ftree/fault_tree.h"

#include "bdd/bdd.h"               // ROBDD engine
#include "bdd/from_fault_tree.h"

#include "analysis/ccf.h"          // common-cause-fault analysis
#include "analysis/cutsets.h"      // minimal cut sets
#include "analysis/fmea.h"         // component criticality report
#include "analysis/importance.h"   // Birnbaum / Fussell-Vesely
#include "analysis/probability.h"  // exact failure probability
#include "analysis/sensitivity.h"  // rate / mission sweeps, tornado
#include "analysis/simulation.h"   // Monte Carlo cross-validation
#include "analysis/tolerance.h"    // fault-tolerance metrics
#include "analysis/traceability.h" // FSR tracing

#include "cost/cost_analysis.h"    // Table II metrics
#include "cost/cost_metric.h"

#include "engine/engine.h"         // memoised candidate scoring

#include "transform/connect.h"     // Connect()
#include "transform/expand.h"      // Expand()
#include "transform/reduce.h"      // Reduce()

#include "explore/advisor.h"       // expansion recommendations
#include "explore/driver.h"        // the paper's experiment loop
#include "explore/mapping_opt.h"   // in-branch resource sharing
#include "explore/mapping_search.h"// capacity-constrained local search
#include "explore/pareto.h"

#include "io/csv.h"
#include "io/dot.h"
#include "io/graphml.h"
#include "io/json.h"
#include "io/model_diff.h"
#include "io/model_json.h"
#include "io/sarif.h"

#include "lint/emit.h"             // text / JSON / SARIF lint output
#include "lint/lint.h"             // cross-layer safety linter

#include "scenarios/builder.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/longitudinal.h"
#include "scenarios/micro.h"
#include "scenarios/synthetic.h"
