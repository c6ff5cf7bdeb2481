#include "transform/reduce.h"

#include <gtest/gtest.h>

#include "core/error.h"
#include "model/validation.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

namespace asilkit::transform {
namespace {

/// sensor -> c1 -> c2 -> actuator: a directly reducible pair.
ArchitectureModel comm_pair() {
    ArchitectureModel m("comm-pair");
    const LocationId loc = m.add_location({"zone", kDefaultLocationLambda, {}});
    const NodeId s = m.add_node_with_dedicated_resource(
        {"sens", NodeKind::Sensor, AsilTag{Asil::D}, {}}, loc);
    const NodeId c1 = m.add_node_with_dedicated_resource(
        {"c1", NodeKind::Communication, AsilTag{Asil::D}, {}}, loc);
    const NodeId c2 = m.add_node_with_dedicated_resource(
        {"c2", NodeKind::Communication, AsilTag{Asil::B}, {}}, loc);
    const NodeId a = m.add_node_with_dedicated_resource(
        {"act", NodeKind::Actuator, AsilTag{Asil::D}, {}}, loc);
    m.connect_app(s, c1);
    m.connect_app(c1, c2);
    m.connect_app(c2, a);
    return m;
}

TEST(Reduce, CollapsesPair) {
    ArchitectureModel m = comm_pair();
    const NodeId c1 = m.find_app_node("c1");
    const NodeId c2 = m.find_app_node("c2");
    ASSERT_TRUE(can_reduce(m, c1, c2));
    const ReduceResult r = reduce(m, c1, c2);
    EXPECT_EQ(r.kept, c1);
    EXPECT_FALSE(m.find_app_node("c2").valid());
    EXPECT_FALSE(m.find_resource("c2_hw").valid());
    // Edges re-stitched: sensor -> c1 -> actuator.
    EXPECT_EQ(m.app().successors(c1), (std::vector<NodeId>{m.find_app_node("act")}));
    EXPECT_EQ(validate(m).error_count(), 0u);
}

TEST(Reduce, SurvivorTakesWeakestAsil) {
    // Paper: "the lowest ASIL value of the two is assigned".
    ArchitectureModel m = comm_pair();  // c1 is D, c2 is B
    reduce(m, m.find_app_node("c1"), m.find_app_node("c2"));
    EXPECT_EQ(m.app().node(m.find_app_node("c1")).asil.level, Asil::B);
}

TEST(Reduce, SurvivorKeepsStrongestInheritance) {
    ArchitectureModel m = comm_pair();
    const NodeId c1 = m.find_app_node("c1");
    const NodeId c2 = m.find_app_node("c2");
    m.app().node(c1).asil = AsilTag{Asil::B, Asil::B};
    m.app().node(c2).asil = AsilTag{Asil::B, Asil::D};  // decomposed from D
    reduce(m, c1, c2);
    EXPECT_EQ(m.app().node(c1).asil.inherited, Asil::D);
}

TEST(Reduce, RefusesNonCommunicationNodes) {
    ArchitectureModel m = comm_pair();
    EXPECT_FALSE(can_reduce(m, m.find_app_node("sens"), m.find_app_node("c1")));
    EXPECT_THROW((void)reduce(m, m.find_app_node("sens"), m.find_app_node("c1")), TransformError);
}

TEST(Reduce, RefusesNonAdjacentNodes) {
    ArchitectureModel m = comm_pair();
    // c2 -> c1 edge does not exist (only c1 -> c2).
    EXPECT_FALSE(can_reduce(m, m.find_app_node("c2"), m.find_app_node("c1")));
}

TEST(Reduce, RefusesWhenFirstHasFanOut) {
    ArchitectureModel m = comm_pair();
    const NodeId c1 = m.find_app_node("c1");
    const NodeId tap = m.add_node_with_dedicated_resource(
        {"tap", NodeKind::Actuator, AsilTag{Asil::QM}, {}}, m.find_location("zone"));
    m.connect_app(c1, tap);
    EXPECT_FALSE(can_reduce(m, c1, m.find_app_node("c2")));
}

TEST(Reduce, RefusesWhenSecondHasFanIn) {
    ArchitectureModel m = comm_pair();
    const NodeId c2 = m.find_app_node("c2");
    const NodeId other = m.add_node_with_dedicated_resource(
        {"other", NodeKind::Sensor, AsilTag{Asil::QM}, {}}, m.find_location("zone"));
    m.connect_app(other, c2);
    EXPECT_FALSE(can_reduce(m, m.find_app_node("c1"), c2));
}

TEST(Reduce, RefusesErasedIds) {
    ArchitectureModel m = comm_pair();
    const NodeId c2 = m.find_app_node("c2");
    reduce(m, m.find_app_node("c1"), c2);
    EXPECT_FALSE(can_reduce(m, m.find_app_node("c1"), c2));
}

TEST(Reduce, ReduceAllCollapsesChains) {
    // A chain of 4 consecutive communication nodes collapses to 1.
    ArchitectureModel m("comm-chain");
    const LocationId loc = m.add_location({"zone", kDefaultLocationLambda, {}});
    const NodeId s = m.add_node_with_dedicated_resource(
        {"sens", NodeKind::Sensor, AsilTag{Asil::D}, {}}, loc);
    NodeId prev = s;
    for (int i = 0; i < 4; ++i) {
        const NodeId c = m.add_node_with_dedicated_resource(
            {std::string("c").append(std::to_string(i)), NodeKind::Communication,
             AsilTag{Asil::D}, {}},
            loc);
        m.connect_app(prev, c);
        prev = c;
    }
    const NodeId a = m.add_node_with_dedicated_resource(
        {"act", NodeKind::Actuator, AsilTag{Asil::D}, {}}, loc);
    m.connect_app(prev, a);
    const std::size_t reductions = reduce_all(m);
    EXPECT_EQ(reductions, 3u);
    EXPECT_EQ(m.app().node_count(), 3u);  // sensor, one comm, actuator
    EXPECT_EQ(validate(m).error_count(), 0u);
}

TEST(Reduce, ReduceAllCleansExpansionResidue) {
    // Two adjacent COMM expansions leave c_post_x -> c_pre_y between the
    // blocks; reduce_all must collapse exactly those.
    ArchitectureModel m("adjacent-comms");
    const LocationId loc = m.add_location({"zone", kDefaultLocationLambda, {}});
    const NodeId s = m.add_node_with_dedicated_resource(
        {"sens", NodeKind::Sensor, AsilTag{Asil::D}, {}}, loc);
    const NodeId x = m.add_node_with_dedicated_resource(
        {"x", NodeKind::Communication, AsilTag{Asil::D}, {}}, loc);
    const NodeId y = m.add_node_with_dedicated_resource(
        {"y", NodeKind::Communication, AsilTag{Asil::D}, {}}, loc);
    const NodeId a = m.add_node_with_dedicated_resource(
        {"act", NodeKind::Actuator, AsilTag{Asil::D}, {}}, loc);
    m.connect_app(s, x);
    m.connect_app(x, y);
    m.connect_app(y, a);
    expand(m, x);
    expand(m, m.find_app_node("y"));
    const std::size_t before = m.app().node_count();
    const std::size_t reductions = reduce_all(m);
    EXPECT_GE(reductions, 1u);
    EXPECT_LT(m.app().node_count(), before);
    // The boundary pair c_post_x / c_pre_y is gone (one of them survives).
    EXPECT_TRUE(!m.find_app_node("c_post_x").valid() || !m.find_app_node("c_pre_y").valid());
    EXPECT_EQ(validate(m).error_count(), 0u);
}

TEST(Reduce, ReduceAllIsIdempotent) {
    ArchitectureModel m = comm_pair();
    EXPECT_EQ(reduce_all(m), 1u);
    EXPECT_EQ(reduce_all(m), 0u);
}

TEST(Reduce, DoesNotTouchBranchInternals) {
    // Inside an expanded FUNCTIONAL block there are no comm-comm pairs;
    // reduce_all on a fresh expansion must be a no-op.
    ArchitectureModel m = scenarios::chain_1in_1out();
    expand(m, m.find_app_node("n"));
    EXPECT_EQ(reduce_all(m), 0u);
}

}  // namespace
}  // namespace asilkit::transform
