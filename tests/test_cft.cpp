// Candidate tree generation: fragment keys move exactly with the edits
// that change a component's share of the tree, and the incremental
// builder's memo serves trees bitwise identical to a full rebuild
// (docs/ftree.md).
#include "ftree/cft.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ftree/builder.h"
#include "ftree/modules.h"
#include "model/architecture.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/micro.h"

namespace asilkit::ftree {
namespace {

/// Bitwise arena equality: same events (names, rates, indices), same
/// gates (names, kinds, child lists), same top.  Stricter than
/// isomorphism on purpose — the exactness contract promises a memo hit
/// serves the *identical* tree, not an equivalent one.
void expect_identical_trees(const FaultTree& a, const FaultTree& b) {
    ASSERT_EQ(a.basic_events().size(), b.basic_events().size());
    for (std::size_t i = 0; i < a.basic_events().size(); ++i) {
        EXPECT_EQ(a.basic_events()[i].name, b.basic_events()[i].name) << i;
        EXPECT_EQ(a.basic_events()[i].lambda, b.basic_events()[i].lambda) << i;
    }
    ASSERT_EQ(a.gates().size(), b.gates().size());
    for (std::size_t i = 0; i < a.gates().size(); ++i) {
        EXPECT_EQ(a.gates()[i].name, b.gates()[i].name) << i;
        EXPECT_EQ(a.gates()[i].kind, b.gates()[i].kind) << i;
        EXPECT_EQ(a.gates()[i].children, b.gates()[i].children) << i;
    }
    ASSERT_EQ(a.has_top(), b.has_top());
    if (a.has_top()) {
        EXPECT_TRUE(a.top() == b.top());
    }
}

TEST(FragmentKey, IgnoresUnrelatedEdits) {
    ArchitectureModel m = scenarios::ecotwin_lateral_control();
    const FtBuildOptions options;
    const NodeId sensor = m.find_app_node("camera");
    const std::uint64_t before = fragment_key(m, sensor, options);

    // An edit elsewhere in the model must not move this node's key.
    ArchitectureModel other = m;
    const ResourceId act_hw = other.find_resource("steering_actuator_hw");
    ASSERT_TRUE(act_hw.valid());
    other.resources().node(act_hw).lambda_override = 4.2e-9;
    EXPECT_EQ(fragment_key(other, sensor, options), before);

    // An edit to its own resource must.
    ArchitectureModel own = m;
    const ResourceId cam_hw = own.mapped_resources(sensor).front();
    own.resources().node(cam_hw).lambda_override = 4.2e-9;
    EXPECT_NE(fragment_key(own, sensor, options), before);
}

std::vector<std::uint32_t> sorted_values(std::vector<NodeId> ids) {
    std::vector<std::uint32_t> out;
    out.reserve(ids.size());
    for (const NodeId n : ids) out.push_back(n.value());
    std::sort(out.begin(), out.end());
    return out;
}

/// Nodes whose fragment key differs between the two models; a node
/// present in only one of them counts too.  The composition
/// fingerprint rests on this: an edit must move the keys of exactly
/// the nodes whose share of the tree it changes.
std::vector<std::uint32_t> moved_keys(const ArchitectureModel& before,
                                      const ArchitectureModel& after) {
    const FtBuildOptions options;
    std::unordered_map<std::uint32_t, std::uint64_t> before_keys;
    for (const NodeId n : before.app().node_ids()) {
        before_keys.emplace(n.value(), fragment_key(before, n, options));
    }
    std::vector<std::uint32_t> moved;
    for (const NodeId n : after.app().node_ids()) {
        const auto it = before_keys.find(n.value());
        if (it == before_keys.end() || it->second != fragment_key(after, n, options)) {
            moved.push_back(n.value());
        }
        if (it != before_keys.end()) before_keys.erase(it);
    }
    for (const auto& [id, key] : before_keys) moved.push_back(id);
    std::sort(moved.begin(), moved.end());
    return moved;
}

// Rate, ASIL, connectivity and mapping edits each move exactly the
// expected keys — no more, no fewer.
TEST(DirtyFragments, RateEditDirtiesExactlyTheHostedNodes) {
    const ArchitectureModel before = scenarios::ecotwin_lateral_control();
    ArchitectureModel after = before;
    const ResourceId r = after.find_resource("lateral_control_hw");
    ASSERT_TRUE(r.valid());
    after.resources().node(r).lambda_override = 7.5e-8;
    EXPECT_EQ(moved_keys(before, after), sorted_values(after.nodes_on_resource(r)));
    EXPECT_FALSE(after.nodes_on_resource(r).empty());
}

TEST(DirtyFragments, ResourceAsilEditDirtiesExactlyTheHostedNodes) {
    // ASIL readiness selects the Table-I decade, so raising it changes
    // the hosted nodes' intrinsic rates — and nothing else.
    const ArchitectureModel before = scenarios::ecotwin_lateral_control();
    ArchitectureModel after = before;
    const ResourceId r = after.find_resource("world_model_hw");
    ASSERT_TRUE(r.valid());
    after.resources().node(r).asil = Asil::B;
    EXPECT_EQ(moved_keys(before, after), sorted_values(after.nodes_on_resource(r)));
}

TEST(DirtyFragments, NodeAsilEditDirtiesExactlyThatNode) {
    const ArchitectureModel before = scenarios::ecotwin_lateral_control();
    ArchitectureModel after = before;
    const NodeId n = after.find_app_node("lateral_control");
    after.app().node(n).asil = AsilTag{Asil::B};
    EXPECT_EQ(moved_keys(before, after), sorted_values({n}));
}

TEST(DirtyFragments, ConnectivityEditDirtiesExactlyTheSink) {
    // A new channel changes only the sink's inport wiring: its failure
    // gate gains an input, every other key stays.
    const ArchitectureModel before = scenarios::ecotwin_lateral_control();
    ArchitectureModel after = before;
    const NodeId from = after.find_app_node("camera");
    const NodeId to = after.find_app_node("lateral_control");
    after.connect_app(from, to);
    EXPECT_EQ(moved_keys(before, after), sorted_values({to}));
}

TEST(DirtyFragments, MappingEditDirtiesExactlyTheRemappedNode) {
    const ArchitectureModel before = scenarios::ecotwin_lateral_control();
    ArchitectureModel after = before;
    const NodeId n = after.find_app_node("lateral_control");
    const ResourceId extra = after.find_resource("world_model_hw");
    ASSERT_TRUE(extra.valid());
    after.map_node(n, extra);
    EXPECT_EQ(moved_keys(before, after), sorted_values({n}));
}

TEST(DirtyFragments, ErasedNodeCountsAsDirty) {
    const ArchitectureModel before = scenarios::chain_1in_2out();
    ArchitectureModel after = before;
    const NodeId n = after.find_app_node("n");
    after.erase_app_node(n, /*drop_dedicated_resources=*/true);
    const std::vector<std::uint32_t> moved = moved_keys(before, after);
    EXPECT_TRUE(std::binary_search(moved.begin(), moved.end(), n.value()));
}

TEST(DirtyFragments, IdenticalModelsAreClean) {
    const ArchitectureModel m = scenarios::ecotwin_lateral_control();
    EXPECT_TRUE(moved_keys(m, m).empty());
}

/// Full-rebuild reference for one model: canonical tree + hash +
/// module decomposition.
struct Reference {
    FaultTree canonical;
    std::uint64_t structural = 0;
    ModuleDecomposition modules;
};

Reference reference_of(const ArchitectureModel& m, const FtBuildOptions& options) {
    Reference ref;
    ref.canonical = canonical_form(build_fault_tree(m, options).tree);
    ref.structural = ref.canonical.structural_hash();
    ref.modules = find_modules(ref.canonical);
    return ref;
}

void expect_matches_reference(const IncrementalTreeBuilder::Prepared& prep,
                              const Reference& ref) {
    ASSERT_NE(prep.canonical, nullptr);
    ASSERT_NE(prep.modules, nullptr);
    expect_identical_trees(*prep.canonical, ref.canonical);
    EXPECT_EQ(prep.structural_hash, ref.structural);
    ASSERT_EQ(prep.modules->size(), ref.modules.size());
    for (std::size_t i = 0; i < ref.modules.size(); ++i) {
        const Module& got = prep.modules->modules[i];
        const Module& want = ref.modules.modules[i];
        EXPECT_EQ(got.root, want.root) << "module " << i;
        EXPECT_EQ(got.child_modules, want.child_modules) << "module " << i;
        EXPECT_EQ(got.basic_events, want.basic_events) << "module " << i;
    }
}

TEST(IncrementalTreeBuilder, TracksEditsAndStaysExact) {
    FtBuildOptions options;
    IncrementalTreeBuilder builder;

    // Cold start, then a rate edit and a connectivity edit: each is a
    // new composition, built in full and identical to the reference.
    ArchitectureModel m = scenarios::ecotwin_lateral_control();
    expect_matches_reference(builder.prepare(m, options), reference_of(m, options));
    EXPECT_FALSE(builder.last_memo_hit());

    const ResourceId r = m.find_resource("lateral_control_hw");
    ASSERT_TRUE(r.valid());
    m.resources().node(r).lambda_override = 7.5e-8;
    expect_matches_reference(builder.prepare(m, options), reference_of(m, options));
    EXPECT_FALSE(builder.last_memo_hit());

    m.connect_app(m.find_app_node("camera"), m.find_app_node("lateral_control"));
    expect_matches_reference(builder.prepare(m, options), reference_of(m, options));
    EXPECT_FALSE(builder.last_memo_hit());
}

TEST(IncrementalTreeBuilder, RevisitedCompositionHitsTheMemo) {
    FtBuildOptions options;
    IncrementalTreeBuilder builder;

    // A -> B -> A: the walk of a search that tries a move, tries
    // another, and re-scores the first — the steady state the memo
    // exists for.
    ArchitectureModel a = scenarios::ecotwin_lateral_control();
    ArchitectureModel b = a;
    b.resources().node(b.find_resource("lateral_control_hw")).lambda_override = 7.5e-8;

    const IncrementalTreeBuilder::Prepared first = builder.prepare(a, options);
    EXPECT_FALSE(builder.last_memo_hit());
    (void)builder.prepare(b, options);
    EXPECT_FALSE(builder.last_memo_hit());

    const IncrementalTreeBuilder::Prepared again = builder.prepare(a, options);
    EXPECT_TRUE(builder.last_memo_hit());
    // The memo serves the same immutable tree by reference.
    EXPECT_EQ(again.canonical.get(), first.canonical.get());
    EXPECT_EQ(again.modules.get(), first.modules.get());
    expect_matches_reference(again, reference_of(a, options));
}

TEST(IncrementalTreeBuilder, DistinctOptionsNeverShareMemoEntries) {
    IncrementalTreeBuilder builder;
    ArchitectureModel m = scenarios::fig3_camera_gps_fusion();

    FtBuildOptions exact;
    FtBuildOptions approx;
    approx.approximate = true;

    (void)builder.prepare(m, exact);
    const IncrementalTreeBuilder::Prepared a = builder.prepare(m, approx);
    EXPECT_FALSE(builder.last_memo_hit());
    expect_matches_reference(a, reference_of(m, approx));
    const IncrementalTreeBuilder::Prepared e = builder.prepare(m, exact);
    EXPECT_TRUE(builder.last_memo_hit());
    expect_matches_reference(e, reference_of(m, exact));
}

/// The same entangled-sharing model built under a node/edge declaration
/// permutation.  Two shared ECUs carry the SAME Table-I rate and the
/// SAME reference count, so only the context refinement in
/// canonical_form can order their events deterministically — the
/// regression the shuffled build pins down.
ArchitectureModel entangled(bool shuffled) {
    ArchitectureModel m(shuffled ? "entangled-shuffled" : "entangled");
    const LocationId zone = m.add_location({"zone", kDefaultLocationLambda, {}});

    AppNode sens{"sens", NodeKind::Sensor, AsilTag{Asil::B}, {}};
    AppNode f1{"f1", NodeKind::Functional, AsilTag{Asil::B}, {}};
    AppNode f2{"f2", NodeKind::Functional, AsilTag{Asil::B}, {}};
    AppNode f3{"f3", NodeKind::Functional, AsilTag{Asil::B}, {}};
    AppNode act{"act", NodeKind::Actuator, AsilTag{Asil::B}, {}};

    NodeId n_sens, n_f1, n_f2, n_f3, n_act;
    if (shuffled) {
        n_act = m.add_app_node(act);
        n_f3 = m.add_app_node(f3);
        n_f1 = m.add_app_node(f1);
        n_sens = m.add_app_node(sens);
        n_f2 = m.add_app_node(f2);
    } else {
        n_sens = m.add_app_node(sens);
        n_f1 = m.add_app_node(f1);
        n_f2 = m.add_app_node(f2);
        n_f3 = m.add_app_node(f3);
        n_act = m.add_app_node(act);
    }

    Resource sens_hw;
    sens_hw.name = "sens_hw";
    sens_hw.kind = ResourceKind::Sensor;
    sens_hw.asil = Asil::B;
    Resource act_hw;
    act_hw.name = "act_hw";
    act_hw.kind = ResourceKind::Actuator;
    act_hw.asil = Asil::B;
    // The entangled pair: ecu_a hosts {f1, f2}, ecu_b hosts {f2, f3} —
    // same kind, same ASIL, hence the same Table-I rate and (in the
    // tree) the same reference count.  Their events are distinguishable
    // only by which gates share them.
    Resource ecu_a;
    ecu_a.name = "ecu_a";
    ecu_a.kind = ResourceKind::Functional;
    ecu_a.asil = Asil::B;
    Resource ecu_b;
    ecu_b.name = "ecu_b";
    ecu_b.kind = ResourceKind::Functional;
    ecu_b.asil = Asil::B;

    ResourceId r_sens, r_act, r_a, r_b;
    if (shuffled) {
        r_b = m.add_resource(ecu_b);
        r_act = m.add_resource(act_hw);
        r_a = m.add_resource(ecu_a);
        r_sens = m.add_resource(sens_hw);
    } else {
        r_sens = m.add_resource(sens_hw);
        r_a = m.add_resource(ecu_a);
        r_b = m.add_resource(ecu_b);
        r_act = m.add_resource(act_hw);
    }
    for (const ResourceId r : {r_sens, r_a, r_b, r_act}) m.place_resource(r, zone);

    if (shuffled) {
        m.map_node(n_f2, r_b);
        m.map_node(n_act, r_act);
        m.map_node(n_f3, r_b);
        m.map_node(n_f1, r_a);
        m.map_node(n_sens, r_sens);
        m.map_node(n_f2, r_a);
        m.connect_app(n_f3, n_act);
        m.connect_app(n_sens, n_f1);
        m.connect_app(n_f2, n_f3);
        m.connect_app(n_f1, n_f2);
    } else {
        m.map_node(n_sens, r_sens);
        m.map_node(n_f1, r_a);
        m.map_node(n_f2, r_a);
        m.map_node(n_f2, r_b);
        m.map_node(n_f3, r_b);
        m.map_node(n_act, r_act);
        m.connect_app(n_sens, n_f1);
        m.connect_app(n_f1, n_f2);
        m.connect_app(n_f2, n_f3);
        m.connect_app(n_f3, n_act);
    }
    return m;
}

// Satellite: structural_hash / canonical_form must be invariant under
// the component and edge declaration order of the source model.
TEST(DeclarationOrder, ShuffledIsomorphicModelHashesEqual) {
    for (const bool approximate : {false, true}) {
        FtBuildOptions options;
        options.approximate = approximate;
        const FaultTree a =
            canonical_form(build_fault_tree(entangled(false), options).tree);
        const FaultTree b =
            canonical_form(build_fault_tree(entangled(true), options).tree);
        EXPECT_EQ(a.structural_hash(), b.structural_hash()) << approximate;
        EXPECT_EQ(a.shape_hash(), b.shape_hash()) << approximate;
        EXPECT_TRUE(identical_shape(a, b)) << approximate;
    }
}

}  // namespace
}  // namespace asilkit::ftree
