// Candidate tree generation for the engine: a composition fingerprint
// and a memo of finished trees in front of build_fault_tree.
//
// Each application component's share of the fault tree — its intrinsic
// basic events (one per mapped resource, one per hosting location) and
// its inport wiring — is a function of a handful of model facts, which
// fragment_key folds into one 64-bit key.  Folding every node's key in
// node-id order fingerprints the whole composition, so a *repeat*
// candidate — the steady state of a trade-off sweep, where many
// configurations walk the same neighbourhood — is served whole from a
// bounded memo of finished (canonical tree, hashes, module
// decomposition) bundles and skips generation entirely.
//
// A memo miss runs build_fault_tree -> canonical_form -> find_modules,
// the very generator analysis::analyze_failure_probability uses, so the
// engine's trees, tree keys and results equal the analysis' bitwise
// (tests/test_cft.cpp, and OnePath.* in tests/test_engine.cpp).
// docs/ftree.md gives the argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ftree/builder.h"
#include "ftree/fault_tree.h"
#include "ftree/modules.h"
#include "model/architecture.h"

namespace asilkit::ftree {

/// Content fingerprint of `n`'s share of the generated tree: a hash over
/// exactly the model facts generation reads for this component — its
/// name, kind and ASIL, the in-order predecessor ids (the inport
/// wiring), and per mapped resource the resolved failure rate plus the
/// hosting locations' names and rates — together with the build-option
/// bits.  Two models agree on a node's key iff the node's local share of
/// the generated tree is identical, so an edit moves the keys of exactly
/// the nodes whose share it changes.  64-bit, so collisions are possible
/// in principle — the same exposure the engine's tree keys already
/// accept (docs/ftree.md).
[[nodiscard]] std::uint64_t fragment_key(const ArchitectureModel& m, NodeId n,
                                         const FtBuildOptions& options);

/// The front half of candidate evaluation: model -> composition
/// fingerprint -> (memo hit, or build_fault_tree -> canonical form ->
/// hashes -> modules).  One instance per engine worker thread (not
/// thread-safe).
class IncrementalTreeBuilder {
public:
    /// Composition-memo entries kept (FIFO).  Each entry holds one
    /// canonical tree + module decomposition, so this bounds memory, not
    /// correctness.  Sized to hold a trade-off sweep's full candidate
    /// working set (typically several hundred distinct compositions);
    /// FIFO eviction degrades sharply once the set cycles past it.
    static constexpr std::size_t kMemoCapacity = 1024;

    /// Everything the engine needs from tree generation, shareable by
    /// reference across repeat candidates.
    struct Prepared {
        std::shared_ptr<const FaultTree> canonical;
        std::shared_ptr<const ModuleDecomposition> modules;
        std::uint64_t structural_hash = 0;
        FaultTreeStats stats;
        std::vector<std::string> warnings;
        std::size_t approximated_blocks = 0;
        std::size_t cycles_cut = 0;
    };

    /// One candidate through the pipeline.  Emits the "assemble" span
    /// and the ftree.memo_hits counter.
    [[nodiscard]] Prepared prepare(const ArchitectureModel& m, const FtBuildOptions& options);

    /// Whether the last prepare() was served from the memo.
    [[nodiscard]] bool last_memo_hit() const noexcept { return last_memo_hit_; }

private:
    /// Composition fingerprint -> finished bundle, FIFO-bounded.
    std::unordered_map<std::uint64_t, Prepared> memo_;
    std::deque<std::uint64_t> memo_order_;
    bool last_memo_hit_ = false;
};

}  // namespace asilkit::ftree
