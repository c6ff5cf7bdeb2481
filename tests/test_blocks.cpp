#include "model/blocks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "helpers.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/longitudinal.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

namespace asilkit {
namespace {

TEST(Blocks, NoMergersNoBlocks) {
    const ArchitectureModel m = scenarios::chain_1in_1out();
    EXPECT_TRUE(find_redundant_blocks(m).empty());
}

TEST(Blocks, Fig3BlockIsDetected) {
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    const auto blocks = find_redundant_blocks(m);
    ASSERT_EQ(blocks.size(), 1u);
    const RedundantBlock& block = blocks.front();
    EXPECT_TRUE(block.well_formed) << (block.issues.empty() ? "" : block.issues.front());
    EXPECT_EQ(block.merger, m.find_app_node("merge_dfus"));
    EXPECT_EQ(block.splitters.size(), 2u);  // split_cam + split_gps
    ASSERT_EQ(block.branches.size(), 2u);
    // Each branch: com_a, dfus, c_cam, c_gps.
    EXPECT_EQ(block.branches[0].nodes.size(), 4u);
    EXPECT_EQ(block.branches[1].nodes.size(), 4u);
    // Both branches are fed by both virtual splitters.
    EXPECT_EQ(block.branches[0].feeding_splitters.size(), 2u);
    EXPECT_EQ(block.branches[1].feeding_splitters.size(), 2u);
}

TEST(Blocks, BranchAsilIsWeakestNode) {
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    const auto blocks = find_redundant_blocks(m);
    ASSERT_EQ(blocks.size(), 1u);
    for (const Branch& b : blocks.front().branches) {
        EXPECT_EQ(branch_asil(m, b), Asil::B);
    }
}

TEST(Blocks, BlockAsilFollowsEq4) {
    // min(splitters, sum of branches, merger) = min(D, B+B=D, D) = D.
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    const auto blocks = find_redundant_blocks(m);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(block_asil(m, blocks.front()), Asil::D);
}

TEST(Blocks, BlockAsilBoundedByMerger) {
    ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    // Degrade the merger's hardware: the whole block degrades (Eq. 4).
    const NodeId merger = m.find_app_node("merge_dfus");
    m.resources().node(m.mapped_resources(merger).front()).asil = Asil::A;
    const auto blocks = find_redundant_blocks(m);
    EXPECT_EQ(block_asil(m, blocks.front()), Asil::A);
}

TEST(Blocks, BlockAsilBoundedByBranchSum) {
    ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    // Degrade one branch ECU to A: sum becomes B + A = C.
    const NodeId dfus2 = m.find_app_node("dfus_2");
    m.resources().node(m.mapped_resources(dfus2).front()).asil = Asil::A;
    const auto blocks = find_redundant_blocks(m);
    EXPECT_EQ(block_asil(m, blocks.front()), Asil::C);
}

TEST(Blocks, ExpansionProducesWellFormedBlock) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    transform::expand(m, m.find_app_node("n"));
    const auto blocks = find_redundant_blocks(m);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_TRUE(blocks.front().well_formed);
    EXPECT_EQ(blocks.front().splitters.size(), 1u);
    EXPECT_EQ(blocks.front().branches.size(), 2u);
    // Branch: c_in + replica + c_out.
    EXPECT_EQ(blocks.front().branches[0].nodes.size(), 3u);
}

TEST(Blocks, SharedBranchNodeIsIllFormed) {
    // A node wired into both merger inputs breaks disjointness.
    ArchitectureModel m("overlap");
    const LocationId loc = m.add_location({"zone", kDefaultLocationLambda, {}});
    auto add = [&](const char* name, NodeKind kind) {
        return m.add_node_with_dedicated_resource({name, kind, AsilTag{Asil::B}, {}}, loc);
    };
    const NodeId sens = add("sens", NodeKind::Sensor);
    const NodeId split = add("split", NodeKind::Splitter);
    const NodeId shared = add("shared", NodeKind::Functional);
    const NodeId merge = add("merge", NodeKind::Merger);
    const NodeId act = add("act", NodeKind::Actuator);
    m.connect_app(sens, split);
    m.connect_app(split, shared);
    m.connect_app(split, shared);
    m.connect_app(shared, merge);
    m.connect_app(shared, merge);
    m.connect_app(merge, act);
    const auto block = find_block_at_merger(m, merge);
    EXPECT_FALSE(block.well_formed);
}

TEST(Blocks, FindBlockAtNonMergerIsIllFormed) {
    const ArchitectureModel m = scenarios::chain_1in_1out();
    const auto block = find_block_at_merger(m, m.find_app_node("n"));
    EXPECT_FALSE(block.well_formed);
}

TEST(Blocks, NestedMergerEndsBranch) {
    // block2's branches contain block1's merger as a unit, not its inside.
    ArchitectureModel m = scenarios::chain_two_stages();
    transform::expand(m, m.find_app_node("n1"));
    transform::expand(m, m.find_app_node("n2"));
    const auto blocks = find_redundant_blocks(m);
    ASSERT_EQ(blocks.size(), 2u);
    for (const auto& block : blocks) {
        EXPECT_TRUE(block.well_formed);
    }
}

TEST(Blocks, EmptyBranchCarriesNeutralAsil) {
    const ArchitectureModel m("x");
    EXPECT_EQ(branch_asil(m, Branch{}), Asil::D);
}

/// A branch-usage list as (id value, branches) pairs, for comparison.
template <typename Id>
std::vector<std::pair<std::uint32_t, std::vector<std::size_t>>> flat(
    const std::vector<BranchUse<Id>>& uses) {
    std::vector<std::pair<std::uint32_t, std::vector<std::size_t>>> out;
    for (const BranchUse<Id>& use : uses) out.emplace_back(use.id.value(), use.branches);
    return out;
}

/// The same list the brute-force way: each branch's resource and
/// location sets, then per id in their union the branches holding it.
template <typename Id>
std::vector<std::pair<std::uint32_t, std::vector<std::size_t>>> from_sets(
    const std::vector<std::set<Id>>& per_branch) {
    std::set<Id> all;
    for (const std::set<Id>& ids : per_branch) all.insert(ids.begin(), ids.end());
    std::vector<std::pair<std::uint32_t, std::vector<std::size_t>>> out;
    for (const Id id : all) {
        out.emplace_back(id.value(), std::vector<std::size_t>{});
        for (std::size_t i = 0; i < per_branch.size(); ++i) {
            if (per_branch[i].contains(id)) out.back().second.push_back(i);
        }
    }
    return out;
}

TEST(Blocks, BranchUsageMatchesPerBranchSets) {
    std::vector<ArchitectureModel> models = {
        scenarios::fig3_camera_gps_fusion(), scenarios::fig3_with_shared_ecu_ccf(),
        scenarios::ecotwin_lateral_control(), scenarios::ecotwin_longitudinal_control()};
    for (std::uint32_t seed = 1; seed <= 12; ++seed) {
        models.push_back(testing::synthetic_flow_final(seed));
        testing::add_common_causes(models.back(), seed);
    }
    // Blocks sharing a resource, only a location, and nothing.
    std::size_t share_resource = 0;
    std::size_t share_location = 0;
    std::size_t share_nothing = 0;
    for (const ArchitectureModel& m : models) {
        for (const RedundantBlock& block : find_redundant_blocks(m)) {
            std::vector<std::set<ResourceId>> resources(block.branches.size());
            std::vector<std::set<LocationId>> locations(block.branches.size());
            for (std::size_t i = 0; i < block.branches.size(); ++i) {
                for (const NodeId n : block.branches[i].nodes) {
                    for (const ResourceId r : m.mapped_resources(n)) {
                        resources[i].insert(r);
                        for (const LocationId p : m.resource_locations(r)) locations[i].insert(p);
                    }
                }
            }
            const BranchUsage usage = branch_usage(m, block);
            EXPECT_EQ(flat(usage.resources), from_sets(resources)) << m.name();
            EXPECT_EQ(flat(usage.locations), from_sets(locations)) << m.name();
            const auto shared = [](const auto& use) { return use.shared(); };
            if (std::ranges::any_of(usage.resources, shared)) {
                ++share_resource;
            } else if (std::ranges::any_of(usage.locations, shared)) {
                ++share_location;
            } else {
                ++share_nothing;
            }
        }
    }
    EXPECT_GT(share_resource, 0u);
    EXPECT_GT(share_location, 0u);
    EXPECT_GT(share_nothing, 0u);
}

}  // namespace
}  // namespace asilkit
