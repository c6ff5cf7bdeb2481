// Component fault trees (CFT) with dirty-fragment incremental
// recompilation (ROADMAP item 4; ALFRED/ArChes in PAPERS.md).
//
// Each application component owns a *fragment*: its intrinsic basic
// events (one per mapped resource, one per hosting location), the names
// of the gates it will contribute, and its inport wiring — everything
// local that whole-tree generation re-derives from the model on every
// candidate.  A fragment is keyed by a content fingerprint over exactly
// the model facts it reads, so a candidate edit (a resource merge, a
// rate override, a new channel) *dirties* precisely the fragments whose
// facts changed; every other fragment is reused by reference.
//
// Assembly stitches fragments along the architecture edges through the
// very same traversal the whole-tree builder runs (assemble_fault_tree
// shares its implementation), so the assembled arena is bitwise
// identical to build_fault_tree() — same events, names, rates, child
// order, warnings and indices.  On top sits a composition memo: the
// fingerprint of the whole fragment composition keys a cache of
// finished (canonical tree, hashes, module decomposition) bundles, so a
// *repeat* candidate — the steady state of a trade-off sweep, where the
// engine's LRU would score it from cache but still paid O(tree) to
// rebuild and canonicalise the tree first — skips generation entirely.
//
// Exactness contract: assembled trees, canonical forms, structural
// hashes and module decompositions are bitwise identical to full
// rebuilds (tests/test_cft.cpp), so the engine's results equal
// analysis::analyze_failure_probability bitwise and DSE results and
// Pareto fronts are bitwise identical at any thread count
// (tests/test_mapping_search.cpp).  docs/ftree.md gives the argument.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ftree/builder.h"
#include "ftree/fault_tree.h"
#include "ftree/modules.h"
#include "model/architecture.h"

namespace asilkit::ftree {

/// One component's reusable share of the fault tree: the intrinsic base
/// events in mapped order, pre-resolved against the rate table.  Gates
/// are not stored — a component's failure gate wires to its
/// predecessors' gates, so gates materialise at stitch time; what the
/// fragment saves is every model lookup, rate resolution and name
/// construction behind them.
struct ComponentFragment {
    /// Content fingerprint (see fragment_key).
    std::uint64_t key = 0;
    /// Emits the "no mapped resource" warning during assembly.
    bool no_resource = false;
    /// Intrinsic events in mapped order: per resource its res: event,
    /// then one loc: event per hosting location.  Duplicates are kept —
    /// assembly replays them through FaultTree::add_basic_event exactly
    /// as the whole-tree builder does, so arenas stay identical.
    std::vector<BasicEvent> events;
};

/// Content fingerprint of `n`'s fragment: a hash over exactly the model
/// facts fragment generation and stitching read for this component —
/// its name, kind and ASIL, the in-order predecessor ids (the inport
/// wiring), and per mapped resource the resolved failure rate plus the
/// hosting locations' names and rates — together with the build-option
/// bits.  Two models agree on a node's key iff the node's local share
/// of the generated tree is identical, which is what makes the key a
/// sound dirtiness test: an edit dirties a fragment iff it changes the
/// key.  64-bit, so collisions are possible in principle — the same
/// exposure the engine's tree keys already accept (docs/ftree.md).
[[nodiscard]] std::uint64_t fragment_key(const ArchitectureModel& m, NodeId n,
                                         const FtBuildOptions& options);

/// Builds (or rebuilds) the fragment of `n`, key included.
[[nodiscard]] ComponentFragment build_fragment(const ArchitectureModel& m, NodeId n,
                                               const FtBuildOptions& options);

/// The delta of an edit: application nodes whose fragment key differs
/// between the two models (symmetric difference of the node sets counts
/// as dirty too).  This is the invalidation rule the incremental
/// builder applies; tests/test_cft.cpp pins down that rate, ASIL and
/// connectivity edits each dirty exactly the expected set.
[[nodiscard]] std::vector<NodeId> dirty_fragments(const ArchitectureModel& before,
                                                  const ArchitectureModel& after,
                                                  const FtBuildOptions& options);

/// build_fault_tree() with intrinsic events sourced from pre-built
/// fragments instead of the model: `fragment_of` returns the fragment
/// of a node (never nullptr for live nodes).  Shares the whole-tree
/// builder's implementation, so the result is bitwise identical to
/// build_fault_tree(m, options) whenever every fragment matches the
/// model (the incremental builder's invariant).
[[nodiscard]] FtBuildResult assemble_fault_tree(
    const ArchitectureModel& m, const FtBuildOptions& options,
    const std::function<const ComponentFragment*(NodeId)>& fragment_of);

/// The incremental front half of candidate evaluation: model -> fragments
/// -> assembled tree -> canonical form -> hashes -> modules, with a
/// per-node fragment cache and a bounded composition memo.  One instance
/// per engine worker thread (not thread-safe).
class IncrementalTreeBuilder {
public:
    struct Options {
        /// Composition-memo entries kept (FIFO).  Each entry holds one
        /// canonical tree + module decomposition, so this bounds memory,
        /// not correctness.  Sized to hold a trade-off sweep's full
        /// candidate working set (typically several hundred distinct
        /// compositions); FIFO eviction degrades sharply once the set
        /// cycles past capacity.
        std::size_t memo_capacity = 1024;
    };

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

    /// Per-prepare() accounting, for tests and benchmarks.
    struct PassStats {
        std::uint64_t fragments_built = 0;
        std::uint64_t fragments_reused = 0;
        bool memo_hit = false;
    };

    IncrementalTreeBuilder() = default;
    explicit IncrementalTreeBuilder(Options options) : options_(options) {}

    /// One candidate through the incremental pipeline.  Emits the
    /// "assemble" span and the ftree.fragment.{built,reused} /
    /// ftree.memo_hits counters.
    [[nodiscard]] Prepared prepare(const ArchitectureModel& m, const FtBuildOptions& options);

    [[nodiscard]] const PassStats& last_pass() const noexcept { return last_; }

private:
    Options options_{};
    /// Node id -> last-assembled fragment; regenerated when the key
    /// drifts from the current model's.
    std::unordered_map<std::uint32_t, ComponentFragment> fragments_;
    /// Composition fingerprint -> finished bundle, FIFO-bounded.
    std::unordered_map<std::uint64_t, Prepared> memo_;
    std::deque<std::uint64_t> memo_order_;
    PassStats last_{};
};

}  // namespace asilkit::ftree
