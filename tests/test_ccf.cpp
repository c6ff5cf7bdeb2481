#include "analysis/ccf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ftree/builder.h"
#include "model/blocks.h"
#include "scenarios/fig3.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

namespace asilkit::analysis {
namespace {

TEST(Ccf, IndependentSystemHasNoFindings) {
    const CcfReport report = analyze_ccf(scenarios::fig3_camera_gps_fusion());
    EXPECT_TRUE(report.independent());
    EXPECT_TRUE(report.findings.empty());
}

TEST(Ccf, SharedEcuIsDetected) {
    // The paper's example: dfus_1 and dfus_2 mapped on the same ECU.
    const ArchitectureModel m = scenarios::fig3_with_shared_ecu_ccf();
    const CcfReport report = analyze_ccf(m);
    EXPECT_FALSE(report.independent());
    EXPECT_GE(report.count(CcfKind::SharedResource), 1u);
    bool found = false;
    for (const CcfFinding& f : report.findings) {
        if (f.kind == CcfKind::SharedResource && f.subject == "ecu1") {
            found = true;
            EXPECT_EQ(f.branch_indices.size(), 2u);
            EXPECT_EQ(f.merger, m.find_app_node("merge_dfus"));
        }
    }
    EXPECT_TRUE(found);
}

TEST(Ccf, SharedResourceBlocksApproximation) {
    // The finding and the builder read one list: the block with the
    // shared ECU is not approximated, and the warning names that ECU.
    const ArchitectureModel m = scenarios::fig3_with_shared_ecu_ccf();
    const CcfReport report = analyze_ccf(m);
    const NodeId merger = m.find_app_node("merge_dfus");
    EXPECT_FALSE(report.block_independent(merger));
    ftree::FtBuildOptions options;
    options.approximate = true;
    const ftree::FtBuildResult built = ftree::build_fault_tree(m, options);
    EXPECT_EQ(built.approximated_blocks, 0u);
    ASSERT_EQ(built.warnings.size(), 1u);
    EXPECT_NE(built.warnings.front().find("share base event 'res:ecu1'"), std::string::npos)
        << built.warnings.front();
}

TEST(Ccf, SharedLocationIsDetected) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    // Expand with both branches forced into the SAME location.
    const LocationId shared = m.add_location({"shared_bay", kDefaultLocationLambda, {}});
    transform::ExpandOptions options;
    options.branch_locations = {shared, shared};
    transform::expand(m, m.find_app_node("n"), options);
    const CcfReport report = analyze_ccf(m);
    EXPECT_GE(report.count(CcfKind::SharedLocation), 1u);
    // Location sharing is a warning about independence, but it is not a
    // shared base event of a RESOURCE... except that co-located branches
    // share the location's base event, which the builder treats as a CCF
    // too: verify it is reported as location kind here.
    bool found = false;
    for (const CcfFinding& f : report.findings) {
        if (f.kind == CcfKind::SharedLocation && f.subject == "shared_bay") found = true;
    }
    EXPECT_TRUE(found);
}

TEST(Ccf, SharedEnvironmentZoneIsDetected) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    // Two distinct locations, but both in vibration zone 3 (e.g. both on
    // the engine block): freedom-from-interference concern.
    Environment noisy;
    noisy.vibration_zone = 3;
    const LocationId bay1 = m.add_location({"bay1", kDefaultLocationLambda, noisy});
    const LocationId bay2 = m.add_location({"bay2", kDefaultLocationLambda, noisy});
    transform::ExpandOptions options;
    options.branch_locations = {bay1, bay2};
    transform::expand(m, m.find_app_node("n"), options);
    const CcfReport report = analyze_ccf(m);
    EXPECT_EQ(report.count(CcfKind::SharedLocation), 0u);
    EXPECT_GE(report.count(CcfKind::SharedEnvironment), 1u);
    bool found = false;
    for (const CcfFinding& f : report.findings) {
        if (f.kind == CcfKind::SharedEnvironment) {
            EXPECT_EQ(f.subject, "vibration-zone-3");
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Ccf, ZoneFindingsFollowTheEnvironmentOrder) {
    // Both branch bays in the same zone of every dimension: one finding
    // per dimension, in Environment's declared order.
    ArchitectureModel m = scenarios::chain_1in_1out();
    Environment harsh;
    harsh.temperature_zone = 1;
    harsh.vibration_zone = 2;
    harsh.emi_zone = 3;
    harsh.water_exposure_zone = 4;
    const LocationId bay1 = m.add_location({"bay1", kDefaultLocationLambda, harsh});
    const LocationId bay2 = m.add_location({"bay2", kDefaultLocationLambda, harsh});
    transform::ExpandOptions options;
    options.branch_locations = {bay1, bay2};
    transform::expand(m, m.find_app_node("n"), options);
    std::vector<std::string> subjects;
    for (const CcfFinding& f : analyze_ccf(m).findings) {
        if (f.kind == CcfKind::SharedEnvironment) subjects.push_back(f.subject);
    }
    EXPECT_EQ(subjects, (std::vector<std::string>{"temperature-zone-1", "vibration-zone-2",
                                                  "emi-zone-3", "water-zone-4"}));
}

TEST(Ccf, DifferentZonesAreIndependent) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    Environment z1;
    z1.vibration_zone = 1;
    Environment z2;
    z2.vibration_zone = 2;
    const LocationId bay1 = m.add_location({"bay1", kDefaultLocationLambda, z1});
    const LocationId bay2 = m.add_location({"bay2", kDefaultLocationLambda, z2});
    transform::ExpandOptions options;
    options.branch_locations = {bay1, bay2};
    transform::expand(m, m.find_app_node("n"), options);
    const CcfReport report = analyze_ccf(m);
    EXPECT_TRUE(report.independent());
}

TEST(Ccf, ExpansionDefaultsAreIndependent) {
    // The default Expand() placement (fresh location per branch) must
    // never introduce a CCF.
    ArchitectureModel m = scenarios::chain_two_stages();
    transform::expand(m, m.find_app_node("n1"));
    transform::expand(m, m.find_app_node("n2"));
    EXPECT_TRUE(analyze_ccf(m).independent());
}

TEST(Ccf, KindNames) {
    EXPECT_EQ(to_string(CcfKind::SharedResource), "shared-resource");
    EXPECT_EQ(to_string(CcfKind::SharedLocation), "shared-location");
    EXPECT_EQ(to_string(CcfKind::SharedEnvironment), "shared-environment");
}

TEST(Ccf, BlockQueriesOnCleanModel) {
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    const CcfReport report = analyze_ccf(m);
    const NodeId merger = m.find_app_node("merge_dfus");
    EXPECT_TRUE(report.block_independent(merger));
    // Its branches share nothing, so the builder approximates the block.
    const BranchUsage usage = branch_usage(m, find_block_at_merger(m, merger));
    EXPECT_TRUE(std::none_of(usage.resources.begin(), usage.resources.end(),
                             [](const auto& use) { return use.shared(); }));
    EXPECT_TRUE(std::none_of(usage.locations.begin(), usage.locations.end(),
                             [](const auto& use) { return use.shared(); }));
    ftree::FtBuildOptions options;
    options.approximate = true;
    const ftree::FtBuildResult built = ftree::build_fault_tree(m, options);
    EXPECT_EQ(built.approximated_blocks, 1u);
    EXPECT_TRUE(built.warnings.empty());
}

}  // namespace
}  // namespace asilkit::analysis
