#include "model/architecture.h"

#include <gtest/gtest.h>

#include "core/error.h"
#include "model/failure_rates.h"

namespace asilkit {
namespace {

class ModelTest : public ::testing::Test {
protected:
    ArchitectureModel m{"test"};
    LocationId front = m.add_location({"front", kDefaultLocationLambda, {}});
    LocationId rear = m.add_location({"rear", kDefaultLocationLambda, {}});
};

TEST_F(ModelTest, NameRoundTrip) {
    EXPECT_EQ(m.name(), "test");
    m.set_name("other");
    EXPECT_EQ(m.name(), "other");
}

TEST_F(ModelTest, MapNodeRequiresCompatibleKinds) {
    const NodeId sensor = m.add_app_node({"cam", NodeKind::Sensor, AsilTag{Asil::B}, {}});
    const ResourceId ecu = m.add_resource({"ecu", ResourceKind::Functional, Asil::B, {}, {}});
    EXPECT_THROW((void)m.map_node(sensor, ecu), ModelError);
    const ResourceId cam_hw = m.add_resource({"cam_hw", ResourceKind::Sensor, Asil::B, {}, {}});
    EXPECT_NO_THROW((void)m.map_node(sensor, cam_hw));
    EXPECT_EQ(m.mapped_resources(sensor).size(), 1u);
}

TEST_F(ModelTest, SplitterMayRunOnSwitchHardware) {
    // The Fig. 3 example implements splitters/mergers in Ethernet switches.
    const NodeId split = m.add_app_node({"split", NodeKind::Splitter, AsilTag{Asil::D}, {}});
    const ResourceId sw = m.add_resource({"switch", ResourceKind::Communication, Asil::D, {}, {}});
    EXPECT_NO_THROW((void)m.map_node(split, sw));
    const NodeId merge = m.add_app_node({"merge", NodeKind::Merger, AsilTag{Asil::D}, {}});
    const ResourceId ecu = m.add_resource({"ecu", ResourceKind::Functional, Asil::D, {}, {}});
    EXPECT_NO_THROW((void)m.map_node(merge, ecu));
}

TEST_F(ModelTest, MapNodeIsIdempotent) {
    const NodeId f = m.add_app_node({"f", NodeKind::Functional, AsilTag{Asil::B}, {}});
    const ResourceId ecu = m.add_resource({"ecu", ResourceKind::Functional, Asil::B, {}, {}});
    m.map_node(f, ecu);
    m.map_node(f, ecu);
    EXPECT_EQ(m.mapped_resources(f).size(), 1u);
}

TEST_F(ModelTest, UnmapAndRemap) {
    const NodeId f = m.add_app_node({"f", NodeKind::Functional, AsilTag{Asil::B}, {}});
    const ResourceId e1 = m.add_resource({"e1", ResourceKind::Functional, Asil::B, {}, {}});
    const ResourceId e2 = m.add_resource({"e2", ResourceKind::Functional, Asil::C, {}, {}});
    m.map_node(f, e1);
    m.remap_node(f, {e2});
    EXPECT_EQ(m.mapped_resources(f), (std::vector<ResourceId>{e2}));
    m.unmap_node(f, e2);
    EXPECT_TRUE(m.mapped_resources(f).empty());
    EXPECT_NO_THROW((void)m.unmap_node(f, e1));  // absent: no-op
}

TEST_F(ModelTest, EffectiveAsilIsEq3) {
    // ASIL(node) = min(A(node), A(MapG(node))).
    const NodeId f = m.add_app_node({"f", NodeKind::Functional, AsilTag{Asil::D}, {}});
    EXPECT_EQ(m.effective_asil(f), Asil::QM);  // unmapped: no implementation
    const ResourceId ecu_b = m.add_resource({"ecu_b", ResourceKind::Functional, Asil::B, {}, {}});
    m.map_node(f, ecu_b);
    EXPECT_EQ(m.effective_asil(f), Asil::B);  // hardware limits
    const NodeId g = m.add_app_node({"g", NodeKind::Functional, AsilTag{Asil::A}, {}});
    const ResourceId ecu_d = m.add_resource({"ecu_d", ResourceKind::Functional, Asil::D, {}, {}});
    m.map_node(g, ecu_d);
    EXPECT_EQ(m.effective_asil(g), Asil::A);  // requirement limits
}

TEST_F(ModelTest, EffectiveAsilUsesWeakestResource) {
    const NodeId f = m.add_app_node({"f", NodeKind::Communication, AsilTag{Asil::D}, {}});
    const ResourceId bus_d = m.add_resource({"bus_d", ResourceKind::Communication, Asil::D, {}, {}});
    const ResourceId bus_a = m.add_resource({"bus_a", ResourceKind::Communication, Asil::A, {}, {}});
    m.map_node(f, bus_d);
    m.map_node(f, bus_a);
    EXPECT_EQ(m.effective_asil(f), Asil::A);
}

TEST_F(ModelTest, DedicatedResourceHelper) {
    const NodeId n = m.add_node_with_dedicated_resource(
        {"ctrl", NodeKind::Functional, AsilTag{Asil::C}, {}}, front);
    ASSERT_EQ(m.mapped_resources(n).size(), 1u);
    const Resource& res = m.resources().node(m.mapped_resources(n).front());
    EXPECT_EQ(res.name, "ctrl_hw");
    EXPECT_EQ(res.kind, ResourceKind::Functional);
    EXPECT_EQ(res.asil, Asil::C);
    EXPECT_EQ(m.node_locations(n), (std::vector<LocationId>{front}));
}

TEST_F(ModelTest, ResourceLambdaFollowsTable1) {
    const FailureRates table1;
    const ResourceId ecu = m.add_resource({"ecu", ResourceKind::Functional, Asil::B, {}, {}});
    EXPECT_DOUBLE_EQ(table1.resource_rate(m.resources().node(ecu)), 1e-7);
    const ResourceId split = m.add_resource({"sp", ResourceKind::Splitter, Asil::B, {}, {}});
    EXPECT_DOUBLE_EQ(table1.resource_rate(m.resources().node(split)), 1e-8);  // one decade better
    const ResourceId sensor_qm = m.add_resource({"s", ResourceKind::Sensor, Asil::QM, {}, {}});
    EXPECT_DOUBLE_EQ(table1.resource_rate(m.resources().node(sensor_qm)), 1e-5);
}

TEST_F(ModelTest, ResourceLambdaHonoursOverride) {
    const ResourceId ecu = m.add_resource({"ecu", ResourceKind::Functional, Asil::B, 4.2e-9, {}});
    EXPECT_DOUBLE_EQ(FailureRates{}.resource_rate(m.resources().node(ecu)), 4.2e-9);
}

TEST_F(ModelTest, NodesOnResourceAndUsedResources) {
    const NodeId f = m.add_app_node({"f", NodeKind::Functional, AsilTag{Asil::B}, {}});
    const NodeId g = m.add_app_node({"g", NodeKind::Functional, AsilTag{Asil::B}, {}});
    const ResourceId shared = m.add_resource({"ecu", ResourceKind::Functional, Asil::B, {}, {}});
    const ResourceId spare = m.add_resource({"spare", ResourceKind::Functional, Asil::B, {}, {}});
    m.map_node(f, shared);
    m.map_node(g, shared);
    EXPECT_EQ(m.nodes_on_resource(shared).size(), 2u);
    EXPECT_TRUE(m.nodes_on_resource(spare).empty());
    EXPECT_EQ(m.used_resources(), (std::vector<ResourceId>{shared}));
}

TEST_F(ModelTest, EraseAppNodeDropsDedicatedResources) {
    const NodeId n =
        m.add_node_with_dedicated_resource({"f", NodeKind::Functional, AsilTag{Asil::B}, {}}, front);
    const ResourceId r = m.mapped_resources(n).front();
    m.erase_app_node(n, /*drop_dedicated_resources=*/true);
    EXPECT_FALSE(m.resources().contains(r));
    EXPECT_FALSE(m.app().contains(n));
}

TEST_F(ModelTest, EraseAppNodeKeepsSharedResources) {
    const NodeId f = m.add_app_node({"f", NodeKind::Functional, AsilTag{Asil::B}, {}});
    const NodeId g = m.add_app_node({"g", NodeKind::Functional, AsilTag{Asil::B}, {}});
    const ResourceId shared = m.add_resource({"ecu", ResourceKind::Functional, Asil::B, {}, {}});
    m.map_node(f, shared);
    m.map_node(g, shared);
    m.erase_app_node(f, /*drop_dedicated_resources=*/true);
    EXPECT_TRUE(m.resources().contains(shared));
    EXPECT_EQ(m.nodes_on_resource(shared), (std::vector<NodeId>{g}));
}

TEST_F(ModelTest, EraseResourceCleansMappings) {
    const NodeId f = m.add_app_node({"f", NodeKind::Functional, AsilTag{Asil::B}, {}});
    const ResourceId r = m.add_resource({"ecu", ResourceKind::Functional, Asil::B, {}, {}});
    m.map_node(f, r);
    m.place_resource(r, front);
    m.erase_resource(r);
    EXPECT_TRUE(m.mapped_resources(f).empty());
    EXPECT_FALSE(m.resources().contains(r));
}

TEST_F(ModelTest, PlacementAndNodeLocations) {
    const NodeId f = m.add_app_node({"f", NodeKind::Functional, AsilTag{Asil::B}, {}});
    const ResourceId r = m.add_resource({"ecu", ResourceKind::Functional, Asil::B, {}, {}});
    m.map_node(f, r);
    m.place_resource(r, front);
    m.place_resource(r, rear);
    m.place_resource(r, front);  // idempotent
    EXPECT_EQ(m.resource_locations(r).size(), 2u);
    EXPECT_EQ(m.node_locations(f).size(), 2u);
}

TEST_F(ModelTest, FindByName) {
    const NodeId f = m.add_app_node({"f", NodeKind::Functional, AsilTag{Asil::B}, {}});
    const ResourceId r = m.add_resource({"ecu", ResourceKind::Functional, Asil::B, {}, {}});
    EXPECT_EQ(m.find_app_node("f"), f);
    EXPECT_FALSE(m.find_app_node("nope").valid());
    EXPECT_EQ(m.find_resource("ecu"), r);
    EXPECT_EQ(m.find_location("front"), front);
    EXPECT_FALSE(m.find_location("nowhere").valid());
}

TEST(FailureRates, Table1Values) {
    const FailureRates rates = FailureRates::table1();
    EXPECT_DOUBLE_EQ(rates.rate(ResourceKind::Functional, Asil::QM), 1e-5);
    EXPECT_DOUBLE_EQ(rates.rate(ResourceKind::Functional, Asil::D), 1e-9);
    EXPECT_DOUBLE_EQ(rates.rate(ResourceKind::Splitter, Asil::QM), 1e-6);
    EXPECT_DOUBLE_EQ(rates.rate(ResourceKind::Merger, Asil::D), 1e-10);
}

TEST(FailureRates, EveryLevelIsOneDecade) {
    const FailureRates rates;
    for (ResourceKind kind : kAllResourceKinds) {
        for (int level = 1; level < kAsilLevelCount; ++level) {
            const double upper = rates.rate(kind, static_cast<Asil>(level - 1));
            const double lower = rates.rate(kind, static_cast<Asil>(level));
            EXPECT_NEAR(upper / lower, 10.0, 1e-9);
        }
    }
}

TEST(FailureRates, Customisable) {
    FailureRates rates;
    rates.set_rate(ResourceKind::Sensor, Asil::B, 3e-8);
    EXPECT_DOUBLE_EQ(rates.rate(ResourceKind::Sensor, Asil::B), 3e-8);
}

TEST(FailureRates, ResourceRateHonoursOverride) {
    const FailureRates rates;
    Resource r{"x", ResourceKind::Functional, Asil::D, {}, {}};
    EXPECT_DOUBLE_EQ(rates.resource_rate(r), 1e-9);
    r.lambda_override = 7e-8;
    EXPECT_DOUBLE_EQ(rates.resource_rate(r), 7e-8);
}

}  // namespace
}  // namespace asilkit
