#include <gtest/gtest.h>

#include "analysis/probability.h"
#include "ftree/builder.h"
#include "graph/algorithms.h"
#include "model/blocks.h"
#include "model/validation.h"
#include "scenarios/builder.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/longitudinal.h"
#include "scenarios/micro.h"
#include "scenarios/synthetic.h"

namespace asilkit::scenarios {
namespace {

TEST(Builder, LocIsIdempotentByName) {
    ScenarioBuilder b("x");
    const LocationId l1 = b.loc("front");
    const LocationId l2 = b.loc("front");
    EXPECT_EQ(l1, l2);
    EXPECT_EQ(b.model().physical().node_count(), 1u);
}

TEST(Builder, ChainLinksConsecutive) {
    ScenarioBuilder b("x");
    const LocationId loc = b.loc("zone");
    const NodeId s = b.sensor("s", Asil::B, loc);
    const NodeId c = b.comm("c", Asil::B, loc);
    const NodeId a = b.actuator("a", Asil::B, loc);
    b.chain({s, c, a});
    EXPECT_EQ(b.model().app().edge_count(), 2u);
    EXPECT_EQ(b.model().app().successors(s), (std::vector<NodeId>{c}));
}

TEST(Builder, EveryFactoryMakesMatchingKind) {
    ScenarioBuilder b("x");
    const LocationId loc = b.loc("zone");
    EXPECT_EQ(b.model().app().node(b.sensor("s", Asil::A, loc)).kind, NodeKind::Sensor);
    EXPECT_EQ(b.model().app().node(b.actuator("a", Asil::A, loc)).kind, NodeKind::Actuator);
    EXPECT_EQ(b.model().app().node(b.func("f", Asil::A, loc)).kind, NodeKind::Functional);
    EXPECT_EQ(b.model().app().node(b.comm("c", Asil::A, loc)).kind, NodeKind::Communication);
    EXPECT_EQ(b.model().app().node(b.splitter("sp", Asil::A, loc)).kind, NodeKind::Splitter);
    EXPECT_EQ(b.model().app().node(b.merger("m", Asil::A, loc)).kind, NodeKind::Merger);
}

TEST(Micro, AllChainsValidate) {
    EXPECT_EQ(validate(chain_1in_1out()).error_count(), 0u);
    EXPECT_EQ(validate(chain_1in_2out()).error_count(), 0u);
    EXPECT_EQ(validate(chain_3in_3out()).error_count(), 0u);
    EXPECT_EQ(validate(chain_two_stages()).error_count(), 0u);
    EXPECT_EQ(validate(chain_n_stages(6)).error_count(), 0u);
}

TEST(Micro, ExpectedShapes) {
    EXPECT_EQ(chain_1in_1out().app().node_count(), 5u);
    EXPECT_EQ(chain_1in_2out().app().node_count(), 7u);
    const ArchitectureModel wide = chain_3in_3out();
    const NodeId n = wide.find_app_node("n");
    EXPECT_EQ(wide.app().in_degree(n), 3u);
    EXPECT_EQ(wide.app().out_degree(n), 3u);
    const ArchitectureModel stages = chain_n_stages(5);
    for (int i = 1; i <= 5; ++i) {
        EXPECT_TRUE(stages.find_app_node(std::string("f").append(std::to_string(i))).valid());
    }
}

TEST(Fig3, ValidatesAndHasPaperStructure) {
    const ArchitectureModel m = fig3_camera_gps_fusion();
    EXPECT_EQ(validate(m).error_count(), 0u);
    EXPECT_EQ(m.app().node_count(), 17u);
    // Deliberate resource sharing: both splitters on switch1.
    const auto sw1_nodes = m.nodes_on_resource(m.find_resource("switch1"));
    EXPECT_EQ(sw1_nodes.size(), 2u);
    // gps_coord rides CAN + gateway + eth2.
    EXPECT_EQ(m.mapped_resources(m.find_app_node("gps_coord")).size(), 3u);
}

TEST(Fig3, SharedEcuVariantDiffersOnlyInMapping) {
    const ArchitectureModel good = fig3_camera_gps_fusion();
    const ArchitectureModel bad = fig3_with_shared_ecu_ccf();
    EXPECT_EQ(good.app().node_count(), bad.app().node_count());
    const auto bad_dfus2 = bad.mapped_resources(bad.find_app_node("dfus_2"));
    ASSERT_EQ(bad_dfus2.size(), 1u);
    EXPECT_EQ(bad.resources().node(bad_dfus2.front()).name, "ecu1");
}

TEST(Fig3, FailureProbabilityNearPaperValue) {
    // Paper: 2.04180e-7 fph.  Our reconstruction: same order, dominated by
    // the two ASIL B sensors (2e-7).
    const double p =
        analysis::analyze_failure_probability(fig3_camera_gps_fusion()).failure_probability;
    EXPECT_NEAR(p, 2.04e-7, 0.15e-7);
}

TEST(Ecotwin, ValidatesClean) {
    const ArchitectureModel m = ecotwin_lateral_control();
    const ValidationReport report = validate(m);
    EXPECT_EQ(report.error_count(), 0u) << (report.issues.empty() ? "" : report.issues.front().message);
    EXPECT_EQ(report.warning_count(), 0u);
}

TEST(Ecotwin, AllAsilDInitially) {
    const ArchitectureModel m = ecotwin_lateral_control();
    for (NodeId n : m.app().node_ids()) {
        EXPECT_EQ(m.app().node(n).asil.level, Asil::D) << m.app().node(n).name;
        EXPECT_FALSE(m.app().node(n).asil.is_decomposed());
    }
    for (ResourceId r : m.resources().node_ids()) {
        EXPECT_EQ(m.resources().node(r).asil, Asil::D);
    }
}

TEST(Ecotwin, SensingIsFusedRedundantly) {
    const ArchitectureModel m = ecotwin_lateral_control();
    const auto blocks = find_redundant_blocks(m);
    ASSERT_EQ(blocks.size(), 2u);  // object fusion + ego fusion
    for (const auto& block : blocks) {
        EXPECT_TRUE(block.well_formed);
    }
    const auto object_block = find_block_at_merger(m, m.find_app_node("object_fusion"));
    EXPECT_EQ(object_block.branches.size(), 3u);  // camera, radar, lidar
}

TEST(Ecotwin, VirtualElementsAreFreeAndPerfect) {
    const ArchitectureModel m = ecotwin_lateral_control();
    for (const char* name : {"observed_scene_hw", "vsplit_scene_hw", "vehicle_motion_hw",
                             "vsplit_ego_hw"}) {
        const ResourceId r = m.find_resource(name);
        ASSERT_TRUE(r.valid()) << name;
        EXPECT_EQ(m.resources().node(r).lambda_override, 0.0);
        EXPECT_EQ(m.resources().node(r).cost_override, 0.0);
    }
}

TEST(Ecotwin, DecisionNodesExistAndAreExpandable) {
    const ArchitectureModel m = ecotwin_lateral_control();
    for (const std::string& name : ecotwin_decision_nodes()) {
        const NodeId n = m.find_app_node(name);
        ASSERT_TRUE(n.valid()) << name;
        const NodeKind kind = m.app().node(n).kind;
        EXPECT_TRUE(kind == NodeKind::Functional || kind == NodeKind::Communication) << name;
        EXPECT_GE(m.app().in_degree(n), 1u) << name;
        EXPECT_GE(m.app().out_degree(n), 1u) << name;
    }
}

TEST(Ecotwin, SensorFailureIsToleratedButDecisionChainIsNot) {
    // The fused sensing side survives a camera failure; the single-channel
    // decision chain is a series of single points of failure — the reason
    // the paper's experiments decompose exactly those nodes.
    ArchitectureModel camera_dead = ecotwin_lateral_control();
    camera_dead.resources().node(camera_dead.find_resource("camera_hw")).lambda_override = 1e9;
    EXPECT_LT(analysis::analyze_failure_probability(camera_dead).failure_probability, 0.5);

    ArchitectureModel wm_dead = ecotwin_lateral_control();
    wm_dead.resources().node(wm_dead.find_resource("world_model_hw")).lambda_override = 1e9;
    EXPECT_GT(analysis::analyze_failure_probability(wm_dead).failure_probability, 0.5);
}

TEST(Synthetic, DeterministicForSeed) {
    const ArchitectureModel a = synthetic_model({.seed = 5});
    const ArchitectureModel b = synthetic_model({.seed = 5});
    EXPECT_EQ(a.app().node_count(), b.app().node_count());
    EXPECT_EQ(a.app().edge_count(), b.app().edge_count());
    // Same-seed models place nodes at the same zones.
    for (NodeId n : a.app().node_ids()) {
        EXPECT_EQ(a.node_locations(n), b.node_locations(n));
    }
}

TEST(Synthetic, SizeScalesWithOptions) {
    SyntheticOptions small;
    small.layers = 2;
    small.width = 2;
    SyntheticOptions large;
    large.layers = 6;
    large.width = 5;
    EXPECT_LT(synthetic_model(small).app().node_count(),
              synthetic_model(large).app().node_count());
}

TEST(Synthetic, ValidatesAndIsAnalyzable) {
    for (std::uint32_t seed = 1; seed <= 5; ++seed) {
        SyntheticOptions options;
        options.seed = seed;
        const ArchitectureModel m = synthetic_model(options);
        EXPECT_EQ(validate(m).error_count(), 0u) << "seed " << seed;
        EXPECT_FALSE(graph::has_cycle(m.app()));
        const double p = analysis::analyze_failure_probability(m).failure_probability;
        EXPECT_GT(p, 0.0);
        EXPECT_LT(p, 1e-6);
    }
}


TEST(SyntheticTree, DeterministicAndExactlySized) {
    const SyntheticTreeOptions options{.seed = 7, .events = 40, .gates = 25};
    const ftree::FaultTree a = synthetic_fault_tree(options);
    const ftree::FaultTree b = synthetic_fault_tree(options);
    EXPECT_EQ(a.basic_events().size(), 40u);
    EXPECT_EQ(a.gates().size(), 26u);  // +1 top gate
    ASSERT_TRUE(a.has_top());
    ASSERT_EQ(a.basic_events().size(), b.basic_events().size());
    for (std::size_t e = 0; e < a.basic_events().size(); ++e) {
        EXPECT_EQ(a.basic_events()[e].lambda, b.basic_events()[e].lambda);
    }
    EXPECT_EQ(analysis::fault_tree_probability(a), analysis::fault_tree_probability(b));
}

TEST(SyntheticTree, ScalesToLargeTreesQuickly) {
    SyntheticTreeOptions options;
    options.events = 60000;
    options.gates = 40000;
    const ftree::FaultTree ft = synthetic_fault_tree(options);
    EXPECT_EQ(ft.basic_events().size() + ft.gates().size(), 100001u);
    // Every generated node reaches the top: nothing dangles.
    EXPECT_TRUE(ft.has_top());
}

TEST(SyntheticTree, ProbabilityIsNonTrivial) {
    for (std::uint32_t seed = 1; seed <= 5; ++seed) {
        SyntheticTreeOptions options;
        options.seed = seed;
        const double p = analysis::fault_tree_probability(synthetic_fault_tree(options));
        EXPECT_GT(p, 0.0) << "seed " << seed;
        EXPECT_LT(p, 1.0) << "seed " << seed;
    }
}

TEST(Longitudinal, ValidatesClean) {
    const ArchitectureModel m = ecotwin_longitudinal_control();
    const ValidationReport report = validate(m);
    EXPECT_EQ(report.error_count(), 0u)
        << (report.issues.empty() ? "" : report.issues.front().message);
}

TEST(Longitudinal, HasControlLoopCycle) {
    // accel_feedback closes the CACC loop: the application graph is a DCG.
    const ArchitectureModel m = ecotwin_longitudinal_control();
    EXPECT_TRUE(graph::has_cycle(m.app()));
    const auto p = analysis::analyze_failure_probability(m);
    EXPECT_EQ(p.cycles_cut, 1u);
}

TEST(Longitudinal, QmDisplayExcludedFromTopEvent) {
    const ArchitectureModel m = ecotwin_longitudinal_control();
    // Default: the QM driver display is not part of the safety top event,
    // so its 1e-5-class hardware must not dominate.
    const double p = analysis::analyze_failure_probability(m).failure_probability;
    EXPECT_LT(p, 1e-6);
    // With no actuator above QM, every actuator forms the top event, so
    // the QM chain joins it.
    ArchitectureModel all_qm = m;
    for (const char* name : {"engine_torque", "brake"}) {
        all_qm.app().node(all_qm.find_app_node(name)).asil.level = Asil::QM;
    }
    const auto ft = ftree::build_fault_tree(all_qm);
    EXPECT_EQ(ft.tree.gate(ft.tree.top()).children.size(), 3u);
    const double p_all = analysis::fault_tree_probability(ft.tree);
    EXPECT_GT(p_all, 1e-5);
}

TEST(Longitudinal, TwoSafetyActuatorsShareTopEvent) {
    const ArchitectureModel m = ecotwin_longitudinal_control();
    const auto ft = ftree::build_fault_tree(m);
    const ftree::Gate& top = ft.tree.gate(ft.tree.top());
    EXPECT_EQ(top.name, "system_failure");
    EXPECT_EQ(top.children.size(), 2u);  // engine torque + brake
}

TEST(Longitudinal, DecisionNodesAreExpandable) {
    const ArchitectureModel m = ecotwin_longitudinal_control();
    for (const std::string& name : longitudinal_decision_nodes()) {
        const NodeId n = m.find_app_node(name);
        ASSERT_TRUE(n.valid()) << name;
        EXPECT_GE(m.app().out_degree(n), 1u);
    }
}

TEST(Longitudinal, GapSensingToleratesRadarLoss) {
    ArchitectureModel m = ecotwin_longitudinal_control();
    m.resources().node(m.find_resource("gap_radar_hw")).lambda_override = 1e9;
    EXPECT_LT(analysis::analyze_failure_probability(m).failure_probability, 0.5);
}

TEST(Longitudinal, EngineBayEnvironmentIsHarsh) {
    const ArchitectureModel m = ecotwin_longitudinal_control();
    const Location& bay = m.physical().node(m.find_location("engine_bay"));
    EXPECT_GT(bay.env.temperature_zone, 0);
    EXPECT_GT(bay.env.vibration_zone, 0);
}

}  // namespace
}  // namespace asilkit::scenarios
