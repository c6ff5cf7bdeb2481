#include "analysis/fmea.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "model/validation.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

namespace asilkit::analysis {
namespace {

TEST(Fmea, OneRowPerUsedResource) {
    const ArchitectureModel m = scenarios::chain_1in_1out();
    const auto rows = fmea_report(m);
    EXPECT_EQ(rows.size(), m.used_resources().size());
}

TEST(Fmea, RowsSortedByFussellVesely) {
    const auto rows = fmea_report(scenarios::fig3_camera_gps_fusion());
    for (std::size_t i = 1; i < rows.size(); ++i) {
        EXPECT_GE(rows[i - 1].fussell_vesely, rows[i].fussell_vesely);
    }
}

TEST(Fmea, SensorsTopTheFig3Ranking) {
    const auto rows = fmea_report(scenarios::fig3_camera_gps_fusion());
    ASSERT_GE(rows.size(), 2u);
    EXPECT_EQ(rows[0].kind, ResourceKind::Sensor);
    EXPECT_EQ(rows[1].kind, ResourceKind::Sensor);
    EXPECT_GT(rows[0].fussell_vesely, 0.4);
    EXPECT_TRUE(rows[0].single_point_of_failure);
}

TEST(Fmea, BranchHardwareIsNotSpof) {
    const auto rows = fmea_report(scenarios::fig3_camera_gps_fusion());
    for (const FmeaRow& row : rows) {
        if (row.resource == "ecu1" || row.resource == "ecu2") {
            EXPECT_FALSE(row.single_point_of_failure) << row.resource;
            EXPECT_LT(row.fussell_vesely, 1e-3) << row.resource;
        }
    }
}

TEST(Fmea, ImplementsAndLambdaAreFilled) {
    const auto rows = fmea_report(scenarios::chain_1in_1out());
    for (const FmeaRow& row : rows) {
        EXPECT_FALSE(row.implements.empty()) << row.resource;
        EXPECT_GT(row.lambda, 0.0) << row.resource;
    }
}

TEST(Fmea, SharedResourceListsAllItsNodes) {
    const auto rows = fmea_report(scenarios::fig3_camera_gps_fusion());
    for (const FmeaRow& row : rows) {
        if (row.resource == "switch1") {
            EXPECT_EQ(row.implements, (std::vector<std::string>{"split_cam", "split_gps"}));
        }
        if (row.resource == "eth3") {
            EXPECT_EQ(row.implements.size(), 2u);  // c_cam1 + c_gps1
        }
    }
}

TEST(Fmea, FsrsAreTraced) {
    const auto rows = fmea_report(scenarios::ecotwin_lateral_control());
    bool found = false;
    for (const FmeaRow& row : rows) {
        if (row.resource == "world_model_hw") {
            found = true;
            EXPECT_EQ(row.fsrs, (std::vector<std::string>{"FSR-LAT-01"}));
        }
    }
    EXPECT_TRUE(found);
}

TEST(Fmea, DecompositionDemotesTheExpandedPart) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    const auto before = fmea_report(m);
    double n_fv_before = -1.0;
    for (const auto& row : before) {
        if (row.resource == "n_hw") n_fv_before = row.fussell_vesely;
    }
    ASSERT_GE(n_fv_before, 0.1);
    transform::expand(m, m.find_app_node("n"));
    const auto after = fmea_report(m);
    for (const auto& row : after) {
        if (row.resource == "n_1_hw" || row.resource == "n_2_hw") {
            EXPECT_LT(row.fussell_vesely, 1e-3) << row.resource;
            EXPECT_FALSE(row.single_point_of_failure) << row.resource;
        }
    }
}

TEST(Fmea, SameNamedResourcesKeepTheirOwnImportance) {
    // Fig. 3 with ecu2 renamed ecu1: a defect validate reports, but each
    // ecu1 row is still its own resource, with that resource's measures.
    const ArchitectureModel clean = scenarios::fig3_camera_gps_fusion();
    ArchitectureModel renamed = clean;
    renamed.resources().node(renamed.find_resource("ecu2")).name = "ecu1";
    EXPECT_TRUE(validate(renamed).has(IssueCode::DuplicateName));

    using Measures = std::tuple<std::vector<std::string>, double, double, bool>;
    const auto measures = [](const std::vector<FmeaRow>& rows, std::string_view a,
                             std::string_view b) {
        std::vector<Measures> out;
        for (const FmeaRow& row : rows) {
            if (row.resource == a || row.resource == b) {
                out.emplace_back(row.implements, row.birnbaum, row.fussell_vesely,
                                 row.single_point_of_failure);
            }
        }
        std::sort(out.begin(), out.end());
        return out;
    };
    const std::vector<Measures> want = measures(fmea_report(clean), "ecu1", "ecu2");
    ASSERT_EQ(want.size(), 2u);
    EXPECT_NE(std::get<2>(want[0]), std::get<2>(want[1]));
    EXPECT_EQ(measures(fmea_report(renamed), "ecu1", "ecu1"), want);
}

TEST(Fmea, VirtualElementsAreNotSpofs) {
    const auto rows = fmea_report(scenarios::ecotwin_lateral_control());
    for (const FmeaRow& row : rows) {
        if (row.resource == "observed_scene_hw" || row.resource == "vsplit_scene_hw") {
            EXPECT_FALSE(row.single_point_of_failure) << row.resource;
            EXPECT_DOUBLE_EQ(row.lambda, 0.0) << row.resource;
        }
    }
}

}  // namespace
}  // namespace asilkit::analysis
