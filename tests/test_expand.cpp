#include "transform/expand.h"

#include <gtest/gtest.h>

#include <string>

#include "core/error.h"
#include "io/model_json.h"
#include "model/blocks.h"
#include "model/validation.h"
#include "scenarios/ecotwin.h"
#include "scenarios/micro.h"

namespace asilkit::transform {
namespace {

TEST(Expand, Adds7NodesFor1In1OutFunctional) {
    // Paper Fig. 5: "this transformation adds 7 extra nodes".
    ArchitectureModel m = scenarios::chain_1in_1out();
    const std::size_t before = m.app().node_count();
    const ExpandResult r = expand(m, m.find_app_node("n"));
    EXPECT_EQ(m.app().node_count(), before + 7);
    EXPECT_EQ(r.nodes_added, 7u);
    EXPECT_EQ(r.splitters.size(), 1u);
    EXPECT_EQ(r.mergers.size(), 1u);
    EXPECT_EQ(r.replicas.size(), 2u);
    ASSERT_EQ(r.branches.size(), 2u);
    EXPECT_EQ(r.branches[0].size(), 3u);  // c_in, replica, c_out
}

TEST(Expand, OriginalNodeAndResourceRemoved) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    expand(m, m.find_app_node("n"));
    // Ids are slot-recycled, so check by name: the original node and its
    // dedicated resource are gone, the replicas exist.
    EXPECT_FALSE(m.find_app_node("n").valid());
    EXPECT_FALSE(m.find_resource("n_hw").valid());
    EXPECT_TRUE(m.find_app_node("n_1").valid());
    EXPECT_TRUE(m.find_app_node("n_2").valid());
}

TEST(Expand, StaysValid) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    expand(m, m.find_app_node("n"));
    const ValidationReport report = validate(m);
    EXPECT_EQ(report.error_count(), 0u);
    for (const auto& issue : report.issues) {
        EXPECT_NE(issue.code, IssueCode::InvalidDecomposition) << issue.message;
    }
}

TEST(Expand, BbPatternAssignsDecomposedTags) {
    ArchitectureModel m = scenarios::chain_1in_1out();  // node n is ASIL D
    const ExpandResult r = expand(m, m.find_app_node("n"));
    EXPECT_EQ(r.pattern, (DecompositionPattern{Asil::D, Asil::B, Asil::B}));
    for (NodeId replica : r.replicas) {
        const AsilTag tag = m.app().node(replica).asil;
        EXPECT_EQ(tag.level, Asil::B);
        EXPECT_EQ(tag.inherited, Asil::D);
        EXPECT_TRUE(tag.is_decomposed());
    }
}

TEST(Expand, SplitterMergerKeepOriginalLevelByDefault) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    const ExpandResult r = expand(m, m.find_app_node("n"));
    for (NodeId s : r.splitters) EXPECT_EQ(m.app().node(s).asil.level, Asil::D);
    for (NodeId g : r.mergers) EXPECT_EQ(m.app().node(g).asil.level, Asil::D);
}

TEST(Expand, AcPatternGivesAsymmetricBranches) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    ExpandOptions options;
    options.strategy = DecompositionStrategy::AC;
    const ExpandResult r = expand(m, m.find_app_node("n"), options);
    EXPECT_EQ(m.app().node(r.replicas[0]).asil.level, Asil::C);
    EXPECT_EQ(m.app().node(r.replicas[1]).asil.level, Asil::A);
}

TEST(Expand, DedicatedResourcesMatchNodeKindAndLevel) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    const ExpandResult r = expand(m, m.find_app_node("n"));
    for (NodeId s : r.splitters) {
        const Resource& res = m.resources().node(m.mapped_resources(s).front());
        EXPECT_EQ(res.kind, ResourceKind::Splitter);
        EXPECT_EQ(res.asil, Asil::D);
    }
    for (NodeId replica : r.replicas) {
        const Resource& res = m.resources().node(m.mapped_resources(replica).front());
        EXPECT_EQ(res.kind, ResourceKind::Functional);
        EXPECT_EQ(res.asil, Asil::B);
    }
}

TEST(Expand, BranchesGetFreshDisjointLocations) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    const ExpandResult r = expand(m, m.find_app_node("n"));
    const auto loc1 = m.node_locations(r.replicas[0]);
    const auto loc2 = m.node_locations(r.replicas[1]);
    ASSERT_EQ(loc1.size(), 1u);
    ASSERT_EQ(loc2.size(), 1u);
    EXPECT_NE(loc1[0], loc2[0]);
}

TEST(Expand, ExplicitBranchLocationsHonoured) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    const LocationId bay1 = m.add_location({"bay1", kDefaultLocationLambda, {}});
    const LocationId bay2 = m.add_location({"bay2", kDefaultLocationLambda, {}});
    ExpandOptions options;
    options.branch_locations = {bay1, bay2};
    const ExpandResult r = expand(m, m.find_app_node("n"), options);
    EXPECT_EQ(m.node_locations(r.replicas[0]), (std::vector<LocationId>{bay1}));
    EXPECT_EQ(m.node_locations(r.replicas[1]), (std::vector<LocationId>{bay2}));
}

TEST(Expand, MultiInputOutputCreatesPerEdgeManagement) {
    ArchitectureModel m = scenarios::chain_3in_3out();
    const ExpandResult r = expand(m, m.find_app_node("n"));
    EXPECT_EQ(r.splitters.size(), 3u);
    EXPECT_EQ(r.mergers.size(), 3u);
    // Branch: 3 c_in + replica + 3 c_out.
    EXPECT_EQ(r.branches[0].size(), 7u);
    EXPECT_EQ(validate(m).error_count(), 0u);
}

TEST(Expand, CommunicationNodeVariant) {
    // Expanding a communication node inserts c_pre/c_post around the
    // splitter/merger and one comm node per branch (paper Sec. VII-A).
    ArchitectureModel m = scenarios::chain_1in_1out();
    const std::size_t before = m.app().node_count();
    const ExpandResult r = expand(m, m.find_app_node("c_out"));
    EXPECT_EQ(m.app().node_count(), before + 5);  // pre+split+2 branches+merge+post -1 removed
    ASSERT_EQ(r.replicas.size(), 2u);
    for (NodeId replica : r.replicas) {
        EXPECT_EQ(m.app().node(replica).kind, NodeKind::Communication);
    }
    // c_pre exists and feeds the splitter.
    const NodeId pre = m.find_app_node("c_pre_c_out");
    ASSERT_TRUE(pre.valid());
    EXPECT_EQ(m.app().successors(pre).front(), r.splitters[0]);
    EXPECT_EQ(validate(m).error_count(), 0u);
}

TEST(Expand, ResultingBlockIsDetectable) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    const ExpandResult r = expand(m, m.find_app_node("n"));
    const RedundantBlock block = find_block_at_merger(m, r.mergers[0]);
    EXPECT_TRUE(block.well_formed);
    EXPECT_EQ(block.splitters, r.splitters);
    EXPECT_EQ(block.branches.size(), 2u);
}

TEST(Expand, BlockAsilPreservesOriginalRequirement) {
    // Property (Eq. 4): for every strategy and level, the expanded block
    // achieves at least the original ASIL.
    for (DecompositionStrategy strategy :
         {DecompositionStrategy::BB, DecompositionStrategy::AC, DecompositionStrategy::RND}) {
        for (Asil level : {Asil::A, Asil::B, Asil::C, Asil::D}) {
            ArchitectureModel m = scenarios::chain_1in_1out(/*defaults to D*/);
            const NodeId n = m.find_app_node("n");
            m.app().node(n).asil = AsilTag{level};
            m.resources().node(m.mapped_resources(n).front()).asil = level;
            ExpandOptions options;
            options.strategy = strategy;
            options.set_rng_draw(0.7);
            const ExpandResult r = expand(m, n, options);
            const RedundantBlock block = find_block_at_merger(m, r.mergers[0]);
            EXPECT_GE(asil_value(block_asil(m, block)), asil_value(level))
                << to_string(strategy) << " at " << to_string(level);
        }
    }
}

TEST(Expand, RejectsSensorsActuatorsSplittersMergers) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    EXPECT_THROW((void)expand(m, m.find_app_node("sens")), TransformError);
    EXPECT_THROW((void)expand(m, m.find_app_node("act")), TransformError);
    const ExpandResult r = expand(m, m.find_app_node("n"));
    EXPECT_THROW((void)expand(m, r.splitters[0]), TransformError);
    EXPECT_THROW((void)expand(m, r.mergers[0]), TransformError);
}

TEST(Expand, RejectsQmNodes) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    const NodeId n = m.find_app_node("n");
    m.app().node(n).asil = AsilTag{Asil::QM};
    EXPECT_THROW((void)expand(m, n), TransformError);
}

TEST(Expand, RejectsDanglingNodes) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    const NodeId orphan = m.add_node_with_dedicated_resource(
        {"orphan", NodeKind::Functional, AsilTag{Asil::B}, {}}, m.find_location("front"));
    EXPECT_THROW((void)expand(m, orphan), TransformError);
}

TEST(Expand, RejectsBadBranchLocationCount) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    ExpandOptions options;
    options.branch_locations = {m.find_location("front")};
    EXPECT_THROW((void)expand(m, m.find_app_node("n"), options), TransformError);
}

TEST(Expand, PreservesNeighbourEdgesAndLabels) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    const NodeId cin = m.find_app_node("c_in");
    const NodeId cout = m.find_app_node("c_out");
    const ExpandResult r = expand(m, m.find_app_node("n"));
    // c_in now feeds the splitter; merger feeds c_out.
    EXPECT_EQ(m.app().successors(cin), (std::vector<NodeId>{r.splitters[0]}));
    EXPECT_EQ(m.app().predecessors(cout), (std::vector<NodeId>{r.mergers[0]}));
}

TEST(Expand, BranchLevelsByRepeatedSplitting) {
    using transform::branch_levels;
    // BB on D, 3 branches: D -> B+B, then B -> A+A  =>  {B, A, A}.
    EXPECT_EQ(branch_levels(Asil::D, DecompositionStrategy::BB, 3),
              (std::vector<Asil>{Asil::B, Asil::A, Asil::A}));
    // BB on D, 4 branches: {A, A, A, A}.
    EXPECT_EQ(branch_levels(Asil::D, DecompositionStrategy::BB, 4),
              (std::vector<Asil>{Asil::A, Asil::A, Asil::A, Asil::A}));
    // AC on D, 3 branches: D -> C+A, C -> C+QM => {C, A, QM}.
    EXPECT_EQ(branch_levels(Asil::D, DecompositionStrategy::AC, 3),
              (std::vector<Asil>{Asil::C, Asil::A, Asil::QM}));
}

TEST(Expand, BranchLevelsAlwaysCoverParent) {
    using transform::branch_levels;
    for (Asil parent : {Asil::A, Asil::B, Asil::C, Asil::D}) {
        for (DecompositionStrategy s :
             {DecompositionStrategy::BB, DecompositionStrategy::AC}) {
            for (std::size_t n = 2; n <= 4; ++n) {
                const auto levels = branch_levels(parent, s, n);
                ASSERT_EQ(levels.size(), n);
                EXPECT_TRUE(is_valid_decomposition(parent, levels))
                    << to_string(s) << " " << to_string(parent) << " n=" << n;
            }
        }
    }
}

TEST(Expand, BranchLevelsRejectsDegenerateCases) {
    EXPECT_THROW((void)transform::branch_levels(Asil::D, DecompositionStrategy::BB, 1), TransformError);
    // A -> A+QM; the QM branch cannot split again, but the A branch can,
    // so 3 branches work: {A, QM, QM}... A -> A+QM, A -> A+QM.
    EXPECT_EQ(transform::branch_levels(Asil::A, DecompositionStrategy::BB, 3),
              (std::vector<Asil>{Asil::A, Asil::QM, Asil::QM}));
}

TEST(Expand, ThreeWayExpansionBuildsThreeBranches) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    ExpandOptions options;
    options.branches = 3;
    const ExpandResult r = expand(m, m.find_app_node("n"), options);
    EXPECT_EQ(r.replicas.size(), 3u);
    EXPECT_EQ(r.branches.size(), 3u);
    EXPECT_EQ(r.branch_levels, (std::vector<Asil>{Asil::B, Asil::A, Asil::A}));
    EXPECT_EQ(m.app().node(r.replicas[0]).asil, (AsilTag{Asil::B, Asil::D}));
    EXPECT_EQ(m.app().node(r.replicas[2]).asil, (AsilTag{Asil::A, Asil::D}));

    const RedundantBlock block = find_block_at_merger(m, r.mergers[0]);
    ASSERT_TRUE(block.well_formed);
    EXPECT_EQ(block.branches.size(), 3u);
    // Eq. 4: B + A + A = D, bounded by D splitter/merger.
    EXPECT_EQ(block_asil(m, block), Asil::D);
    EXPECT_EQ(validate(m).error_count(), 0u);
}

TEST(Expand, ThreeWayBranchesGetDistinctLocations) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    ExpandOptions options;
    options.branches = 3;
    const ExpandResult r = expand(m, m.find_app_node("n"), options);
    std::vector<LocationId> locs;
    for (NodeId replica : r.replicas) {
        const auto l = m.node_locations(replica);
        ASSERT_EQ(l.size(), 1u);
        locs.push_back(l[0]);
    }
    std::sort(locs.begin(), locs.end());
    EXPECT_EQ(std::unique(locs.begin(), locs.end()), locs.end());
}

TEST(Expand, RepeatedExpansionOfReplicaWorks) {
    // A decomposed B(D) replica can itself be expanded (B -> A + A),
    // supporting the paper's "repeatedly decomposes" RND-3 curve.
    ArchitectureModel m = scenarios::chain_1in_1out();
    const ExpandResult first = expand(m, m.find_app_node("n"));
    const ExpandResult second = expand(m, first.replicas[0]);
    EXPECT_EQ(second.pattern, (DecompositionPattern{Asil::B, Asil::A, Asil::A}));
    EXPECT_EQ(validate(m).error_count(), 0u);
}

// ---- names the model already uses --------------------------------------

/// The message of the TransformError expand(m, node) throws, or "" when
/// it throws none.
std::string expand_error(ArchitectureModel& m, const std::string& node) {
    try {
        (void)expand(m, m.find_app_node(node));
    } catch (const TransformError& e) {
        return e.what();
    }
    return "";
}

TEST(Expand, RefusesAResourceNameInUse) {
    // Expanding cam_proc names its first replica cam_proc_1 and that
    // replica's resource cam_proc_1_hw.  Here the radar processor already
    // carries both names, and the model loader rejects two resources of
    // one name, so expand must refuse before it changes anything.
    ArchitectureModel m = scenarios::ecotwin_lateral_control();
    const NodeId radar = m.find_app_node("radar_proc");
    m.app().node(radar).name = "cam_proc_1";
    m.resources().node(m.mapped_resources(radar).front()).name = "cam_proc_1_hw";
    const std::string before = io::to_json(m).dump();
    EXPECT_EQ(expand_error(m, "cam_proc"),
              "transform error: Expand(cam_proc): resource name 'cam_proc_1_hw' is already in "
              "use");
    EXPECT_EQ(io::to_json(m).dump(), before);
}

TEST(Expand, RefusesALocationNameInUse) {
    // A fresh branch location is named loc_<node>_b<k>; a model that
    // already has one of that name keeps it and the expansion is refused.
    ArchitectureModel m = scenarios::ecotwin_lateral_control();
    (void)m.add_location(Location{"loc_cam_proc_b2", kDefaultLocationLambda, {}});
    const std::string before = io::to_json(m).dump();
    EXPECT_EQ(expand_error(m, "cam_proc"),
              "transform error: Expand(cam_proc): location name 'loc_cam_proc_b2' is already in "
              "use");
    EXPECT_EQ(io::to_json(m).dump(), before);
}

TEST(Expand, NamesOfTheDroppedResourceAreFree) {
    // The expanded node's own resource is dropped before the block is
    // built, so a generated name may reuse its name.
    ArchitectureModel m = scenarios::chain_1in_1out();
    const NodeId n = m.find_app_node("n");
    m.resources().node(m.mapped_resources(n).front()).name = "n_1_hw";
    (void)expand(m, n);
    EXPECT_TRUE(m.find_resource("n_1_hw").valid());
    EXPECT_EQ(validate(m).error_count(), 0u);
}

}  // namespace
}  // namespace asilkit::transform
