// Automatic fault-tree generation from the architecture model (Section V).
//
// The application graph is explored from the actuators backwards to the
// sensors.  Each application node contributes an OR gate combining
//   * its intrinsic base events — one per mapped resource, one per
//     physical location hosting those resources — and
//   * the failure gates of its input nodes,
// with one exception: a MERGER combines its inputs through an AND gate,
// because the merger can pick whichever redundant input is still correct,
// so the redundant inputs must all fail for the merger's output to fail.
//
// Cycles (the application graph is a DCG) are cut: a back edge found
// during the traversal is simply not followed, matching the paper
// ("cyclic dependencies are not analyzed with the FTA").
//
// The Section V approximation removes the base events of the nodes that
// form the redundant branches and wires each merger input directly to the
// failure gates of the splitters feeding that branch.  It is applied only
// where it is sound: the block must be well-formed and its branches must
// not share base events (shared events are exactly the Common Cause
// Faults that would also invalidate the decomposition); otherwise the
// builder falls back to the exact expansion for that block and reports a
// warning.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ftree/fault_tree.h"
#include "model/architecture.h"
#include "model/failure_rates.h"

namespace asilkit::ftree {

struct FtBuildOptions {
    /// Apply the Section V path-collapsing approximation.
    bool approximate = false;
    /// Contribute a base event per physical location (1e-11/h by default).
    bool include_location_events = true;
    /// Include QM actuators in the top event.  Off by default: the top
    /// event is the failure of the SAFETY function, and a QM actuator
    /// (e.g. a driver display) is by definition not safety-relevant.
    /// When the model has no actuator above QM, all actuators are used.
    bool include_qm_actuators = false;
    /// Failure-rate table (defaults to paper Table I).
    FailureRates rates{};
};

struct FtBuildResult {
    FaultTree tree;
    /// Soundness diagnostics: CCF-driven approximation fallbacks, nodes
    /// with no mapped resources, ...
    std::vector<std::string> warnings;
    std::size_t approximated_blocks = 0;  ///< blocks collapsed by the approximation
    std::size_t cycles_cut = 0;           ///< back edges dropped during traversal
};

/// Prefix conventions for generated event/gate names; analyses and tests
/// key off these.
inline constexpr const char* kResourceEventPrefix = "res:";
inline constexpr const char* kLocationEventPrefix = "loc:";
inline constexpr const char* kNodeGatePrefix = "fail:";

/// What build_fault_tree reuses from one build to the next: its
/// per-node traversal tables, and the tables through which it resolves
/// each resource's and each location's basic event once per build
/// instead of at every reference, all indexed by model id.  The result
/// does not depend on what an earlier build left here.
struct BuildWorkspace {
    std::vector<std::optional<FtRef>> gate_of_node;    ///< app node id -> its finished gate
    std::vector<char> on_stack;                        ///< app node id -> on the walk's stack
    std::vector<std::optional<FtRef>> resource_event;  ///< resource id -> its res: event
    std::vector<std::optional<FtRef>> location_event;  ///< location id -> its loc: event
};

/// Generates the system fault tree on `workspace`'s tables.  The top
/// event is the failure of the single actuator, or an OR over all
/// actuators when there are several.  Throws AnalysisError when the
/// model has no actuator.  Emits the "build_fault_tree" span.
[[nodiscard]] FtBuildResult build_fault_tree(const ArchitectureModel& m,
                                             const FtBuildOptions& options,
                                             BuildWorkspace& workspace);

/// The same on a workspace of its own.
[[nodiscard]] FtBuildResult build_fault_tree(const ArchitectureModel& m,
                                             const FtBuildOptions& options = {});

/// Content fingerprint of `n`'s share of the tree build_fault_tree
/// generates: a hash over exactly the model facts generation reads for
/// this component — its name, kind and ASIL, the in-order predecessor
/// ids (the inport wiring), and per mapped resource the resolved failure
/// rate plus the hosting locations' names and rates — together with the
/// build-option bits.  Two models agree on a node's key iff the node's
/// local share of the generated tree is identical, so an edit moves the
/// keys of exactly the nodes whose share it changes.
[[nodiscard]] std::uint64_t fragment_key(const ArchitectureModel& m, NodeId n,
                                         const FtBuildOptions& options);

/// Fingerprint of everything build_fault_tree(m, options) reads: the
/// option bits and every node's id and fragment_key, folded in node-id
/// order, so it covers the node set, every component's events and the
/// full edge wiring.  Equal keys mean the same generation input, hence
/// the same arena with the same event indices (docs/ftree.md).  64-bit,
/// so collisions are possible in principle — the same exposure the
/// engine's tree keys already accept.
[[nodiscard]] std::uint64_t composition_key(const ArchitectureModel& m,
                                            const FtBuildOptions& options);

}  // namespace asilkit::ftree
