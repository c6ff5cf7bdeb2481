// Redundant-block detection.
//
// A redundant block is the explicit redundancy pattern of the model: one
// or more splitter nodes replicate data into k parallel branches whose
// results are compared by a single merger node.  Transformations
// (Connect), the fault-tree approximation, and the CCF analysis all need
// to recover this structure from the application graph, so detection
// lives here in the model layer.
//
// What the branches share is decided here too, once and by id:
// branch_usage lists every resource and location the branches use.  The
// CCF analysis reports the shared ones, and the fault-tree builder
// approximates a block only when none is shared.
//
// Detection is merger-driven: each merger input starts a branch; the
// branch is traced backwards through ordinary nodes until splitter nodes
// are reached (the splitters are the block boundary and are not part of
// any branch).  A well-formed block has node-disjoint branches; overlap is
// reported, not silently accepted, because shared branch nodes invalidate
// the independence required by ASIL decomposition.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/asil.h"
#include "core/ids.h"
#include "model/architecture.h"

namespace asilkit {

/// One parallel branch of a redundant block, in backwards-discovery order
/// (first element is the merger-side node).
struct Branch {
    std::vector<NodeId> nodes;
    /// The splitter nodes this particular branch was traced back to; the
    /// fault-tree approximation wires these directly to the merger input.
    std::vector<NodeId> feeding_splitters;
};

struct RedundantBlock {
    /// Splitter nodes feeding the branches.  Usually one; sensor-fusion
    /// style blocks (Fig. 3) have one (virtual) splitter per fused input.
    std::vector<NodeId> splitters;
    NodeId merger;
    std::vector<Branch> branches;  ///< one per merger input edge
    /// True when every branch terminated at a splitter and the branches
    /// are pairwise node-disjoint.
    bool well_formed = true;
    /// Human-readable reasons when !well_formed.
    std::vector<std::string> issues;
};

/// One resource or location of a block's branches, with the branches
/// whose nodes use it.
template <typename Id>
struct BranchUse {
    Id id;
    std::vector<std::size_t> branches;  ///< ascending branch indices

    /// Used by two or more branches: a common cause of the block.
    [[nodiscard]] bool shared() const noexcept { return branches.size() > 1; }
};

/// Every resource mapped to a node of a block's branches and every
/// location hosting one, each once and by ascending id.
struct BranchUsage {
    std::vector<BranchUse<ResourceId>> resources;
    std::vector<BranchUse<LocationId>> locations;
};

/// Finds all redundant blocks in the application graph (one per merger).
[[nodiscard]] std::vector<RedundantBlock> find_redundant_blocks(const ArchitectureModel& m);

/// Detects the block ending at the given merger node.
[[nodiscard]] RedundantBlock find_block_at_merger(const ArchitectureModel& m, NodeId merger);

/// The resources and locations `block`'s branches use.  Identity is the
/// id, never the name: two resources of one name are two entries.
[[nodiscard]] BranchUsage branch_usage(const ArchitectureModel& m, const RedundantBlock& block);

/// The ASIL credit of one branch: the minimum effective ASIL over its
/// nodes (a chain is only as strong as its weakest element); an empty
/// branch (splitter wired straight to merger) carries the splitter level.
[[nodiscard]] Asil branch_asil(const ArchitectureModel& m, const Branch& b);

/// The strongest inherited level among the block's splitters and merger:
/// the level Y of the requirement the block decomposes.
[[nodiscard]] Asil inherited_asil(const ArchitectureModel& m, const RedundantBlock& block);

/// The ASIL of the whole block, paper Eq. 4:
///   min( min over splitters, saturating-sum over branch ASILs, merger ).
[[nodiscard]] Asil block_asil(const ArchitectureModel& m, const RedundantBlock& block);

std::ostream& operator<<(std::ostream& os, const RedundantBlock& b);

}  // namespace asilkit
