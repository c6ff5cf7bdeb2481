#include "analysis/tolerance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "explore/driver.h"
#include "ftree/builder.h"
#include "helpers.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

namespace asilkit::analysis {
namespace {

TEST(Tolerance, SeriesChainHasOrderOne) {
    const FaultToleranceReport report = analyze_fault_tolerance(scenarios::chain_1in_1out());
    EXPECT_EQ(report.min_cut_order, 1u);
    EXPECT_EQ(report.tolerated_faults, 0u);
    // Every resource and location is a single point of failure: 5 + 2.
    EXPECT_EQ(report.single_points_of_failure.size(), 7u);
}

TEST(Tolerance, ExpansionRemovesSpofsInTheDecomposedRegion) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    const auto before = analyze_fault_tolerance(m);
    ASSERT_NE(std::find(before.single_points_of_failure.begin(),
                        before.single_points_of_failure.end(), "res:n_hw"),
              before.single_points_of_failure.end());
    transform::expand(m, m.find_app_node("n"));
    const auto after = analyze_fault_tolerance(m);
    // The replicated hardware is no longer a single point of failure ...
    for (const std::string& spof : after.single_points_of_failure) {
        EXPECT_NE(spof, "res:n_hw");
        EXPECT_NE(spof, "res:n_1_hw");
        EXPECT_NE(spof, "res:n_2_hw");
    }
    // ... but the management hardware (splitter/merger) joins the series
    // path: the SPOF *count* may grow even as the SPOF *rate mass* drops.
    EXPECT_NE(std::find(after.single_points_of_failure.begin(),
                        after.single_points_of_failure.end(), "res:split_n_hw"),
              after.single_points_of_failure.end());
}

TEST(Tolerance, ThreeWayExpansionToleratesTwoFaultsLocally) {
    // A 3-branch block has local cut order 3; build a model where the
    // block is the only structure (virtual sensing/actuation rates 0).
    ArchitectureModel m = scenarios::chain_1in_1out();
    // Make everything but the expanded region perfectly reliable so the
    // system-wide metric reflects the block.
    for (const char* res : {"sens_hw", "c_in_hw", "c_out_hw", "act_hw"}) {
        m.resources().node(m.find_resource(res)).lambda_override = 0.0;
    }
    transform::ExpandOptions options;
    options.branches = 3;
    transform::expand(m, m.find_app_node("n"), options);
    // Management hardware is still a SPOF; exclude it the same way.
    m.resources().node(m.find_resource("split_n_hw")).lambda_override = 0.0;
    m.resources().node(m.find_resource("merge_n_hw")).lambda_override = 0.0;
    // And every location, whose events would be SPOFs too.
    testing::set_location_lambdas(m, 0.0);
    const auto report = analyze_fault_tolerance(m);
    // Zero-rate events still appear as cut sets structurally; check the
    // *named* SPOFs instead: no branch hardware may be order-1.
    for (const std::string& spof : report.single_points_of_failure) {
        EXPECT_NE(spof, "res:n_1_hw");
        EXPECT_NE(spof, "res:n_2_hw");
        EXPECT_NE(spof, "res:n_3_hw");
    }
    // And a cross-branch triple exists at order 3.
    EXPECT_GT(report.cut_sets_by_order[3], 0u);
}

TEST(Tolerance, Fig3CountsByOrder) {
    const auto report = analyze_fault_tolerance(scenarios::fig3_camera_gps_fusion());
    EXPECT_EQ(report.min_cut_order, 1u);
    EXPECT_EQ(report.cut_sets_by_order[1], report.single_points_of_failure.size());
    EXPECT_GT(report.cut_sets_by_order[2], 0u);  // cross-branch pairs
}

TEST(Tolerance, SharedEcuAddsSpof) {
    const auto good = analyze_fault_tolerance(scenarios::fig3_camera_gps_fusion());
    const auto bad = analyze_fault_tolerance(scenarios::fig3_with_shared_ecu_ccf());
    EXPECT_GT(bad.single_points_of_failure.size(), good.single_points_of_failure.size());
    bool found = false;
    for (const std::string& spof : bad.single_points_of_failure) {
        if (spof == "res:ecu1") found = true;
    }
    EXPECT_TRUE(found);
}

TEST(Tolerance, EcotwinSensingIsToleratedDecisionIsNot) {
    const auto report = analyze_fault_tolerance(scenarios::ecotwin_lateral_control());
    EXPECT_EQ(report.min_cut_order, 1u);
    bool camera_spof = false;
    bool world_model_spof = false;
    for (const std::string& spof : report.single_points_of_failure) {
        if (spof == "res:camera_hw") camera_spof = true;
        if (spof == "res:world_model_hw") world_model_spof = true;
    }
    EXPECT_FALSE(camera_spof) << "fused sensing masks single sensor faults";
    EXPECT_TRUE(world_model_spof) << "the single-channel decision chain is unprotected";
}

TEST(Tolerance, MaxOrderAtTheEdgesOfItsRange) {
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    FaultToleranceOptions options;
    options.max_order = 0;
    EXPECT_THROW((void)analyze_fault_tolerance(m, options), AnalysisError);

    // max_order + 1 must not wrap: the report's orders stop at the
    // basic-event count.
    options.max_order = std::numeric_limits<std::size_t>::max();
    const FaultToleranceReport unbounded = analyze_fault_tolerance(m, options);
    const std::size_t events = ftree::build_fault_tree(m).tree.basic_events().size();
    options.max_order = events;
    const FaultToleranceReport exact = analyze_fault_tolerance(m, options);
    EXPECT_EQ(unbounded.cut_sets_by_order.size(), events + 1);
    EXPECT_EQ(unbounded.cut_sets_by_order, exact.cut_sets_by_order);
    EXPECT_EQ(unbounded.single_points_of_failure, exact.single_points_of_failure);
    EXPECT_EQ(unbounded.min_cut_order, 1u);
}

TEST(Tolerance, EcotwinPointBPinned) {
    // Point B of the lateral flow: every decision node expanded, no
    // connect/reduce and no mapping optimisation.
    explore::ExplorationOptions flow;
    flow.run_connect_reduce = false;
    flow.run_mapping_optimization = false;
    const ArchitectureModel m =
        explore::run_exploration(scenarios::ecotwin_lateral_control(),
                                 scenarios::ecotwin_decision_nodes(), flow)
            .final_model;
    const auto report = analyze_fault_tolerance(m);
    EXPECT_EQ(report.cut_sets_by_order, (std::vector<std::size_t>{0, 49, 128, 80}));
    EXPECT_EQ(report.min_cut_order, 1u);
    EXPECT_EQ(report.single_points_of_failure.size(), 49u);
}

}  // namespace
}  // namespace asilkit::analysis
