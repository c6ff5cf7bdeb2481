// The Expand() transformation (paper Section VII-A, Fig. 5).
//
// Expand(n) substitutes application node n with a redundant block:
//
//            +--> c_in_1 --> n_1 --> c_out_1 --+
//   p --> s -+                                 +-> m --> q
//            +--> c_in_2 --> n_2 --> c_out_2 --+
//
// A splitter is added per input edge and a merger per output edge; each
// branch holds one replica of n connected through fresh communication
// nodes (for a 1-input/1-output functional node that is 7 extra nodes).
// Expanding a COMMUNICATION node differs slightly: each branch carries a
// single communication node, and new communication nodes are inserted
// between the neighbours and the splitter/merger.
//
// The replicas receive decomposed ASIL tags X(Y) chosen from the Fig. 2
// catalogue by the configured strategy; splitters and mergers keep the
// original level Y (they manage the redundancy, so the full requirement
// applies to them).  Resources: every new node gets a dedicated new
// resource of the matching kind and level ("one new resource per new
// application node", the paper's pre-mapping-optimisation assumption),
// and each branch's resources are placed at a fresh (or caller-provided)
// location so the branches stay CCF-independent.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/decomposition.h"
#include "model/architecture.h"

namespace asilkit::transform {

struct ExpandOptions {
    DecompositionStrategy strategy = DecompositionStrategy::BB;
    /// Number of redundant branches (>= 2).  The ISO catalogue is two-way;
    /// more branches are produced by repeated application: the strongest
    /// branch level so far is decomposed again, so e.g. BB on an ASIL D
    /// node with branches=3 yields levels {B, A, A}  (D -> B+B, B -> A+A),
    /// and the sum rule of Eq. 4 still covers the original level.
    std::size_t branches = 2;
    /// Uniform draws in [0,1) consumed by the RND strategy (one per
    /// two-way split, so branches-1 values are used; missing entries
    /// default to 0).  Callers own the random stream so explorations stay
    /// deterministic.
    std::vector<double> rng_draws;
    /// Locations for the branches' new resources; when empty, fresh
    /// locations named after the node are created.  Size must be 0 or
    /// `branches`.
    std::vector<LocationId> branch_locations;

    /// Convenience for the common single-draw case.
    void set_rng_draw(double draw) { rng_draws.assign(1, draw); }
};

/// The branch ASIL levels the strategy produces for `parent` with the
/// given branch count (descending order), by repeated two-way splitting
/// of the strongest branch.  Exposed for tests and the advisor.
[[nodiscard]] std::vector<Asil> branch_levels(Asil parent, DecompositionStrategy strategy,
                                              std::size_t branches,
                                              std::span<const double> rng_draws = {});

struct ExpandResult {
    DecompositionPattern pattern;          ///< the first Fig. 2 pattern applied
    std::vector<Asil> branch_levels;       ///< assigned level per branch
    std::vector<NodeId> splitters;         ///< one per original input edge
    std::vector<NodeId> mergers;           ///< one per original output edge
    std::vector<std::vector<NodeId>> branches;  ///< all nodes of each branch
    std::vector<NodeId> replicas;          ///< the n_1 / n_2 replica nodes
    std::size_t nodes_added = 0;           ///< net growth of the app graph
};

/// Replaces `node` with a redundant block of `options.branches` parallel
/// branches.  Preconditions: `node` is Functional or Communication, has
/// >=1 input and >=1 output, and its level is decomposable (not QM).
/// Throws TransformError.
ExpandResult expand(ArchitectureModel& m, NodeId node, const ExpandOptions& options = {});

}  // namespace asilkit::transform
