#include "ftree/builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/probability.h"
#include "core/error.h"
#include "explore/driver.h"
#include "helpers.h"
#include "model/blocks.h"
#include "model/validation.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/longitudinal.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

namespace asilkit::ftree {
namespace {

TEST(Builder, RequiresActuator) {
    ArchitectureModel m("empty");
    EXPECT_THROW((void)build_fault_tree(m), AnalysisError);
}

TEST(Builder, ChainProducesOneEventPerResourcePlusLocations) {
    const ArchitectureModel m = scenarios::chain_1in_1out();
    const FtBuildResult r = build_fault_tree(m);
    const FaultTreeStats s = r.tree.stats();
    // 5 resources + 2 locations = 7 basic events; 5 node gates.
    EXPECT_EQ(s.basic_events, 7u);
    EXPECT_EQ(s.gates, 5u);
    EXPECT_TRUE(r.warnings.empty());
    EXPECT_EQ(r.cycles_cut, 0u);
}

TEST(Builder, EventLambdasFollowTable1) {
    const ArchitectureModel m = scenarios::chain_1in_1out();  // all ASIL D
    const FtBuildResult r = build_fault_tree(m);
    EXPECT_DOUBLE_EQ(r.tree.basic_event(r.tree.find_basic_event("res:n_hw")).lambda, 1e-9);
    EXPECT_DOUBLE_EQ(r.tree.basic_event(r.tree.find_basic_event("loc:front")).lambda, 1e-11);
}

TEST(Builder, SharedResourceYieldsOneSharedEvent) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    // Map both communication nodes onto one bus.
    const ResourceId bus = m.add_resource({"bus", ResourceKind::Communication, Asil::D, {}, {}});
    m.place_resource(bus, m.find_location("front"));
    m.remap_node(m.find_app_node("c_in"), {bus});
    m.remap_node(m.find_app_node("c_out"), {bus});
    const FtBuildResult r = build_fault_tree(m);
    // The two gates reference one "res:bus" event.
    std::size_t bus_events = 0;
    for (const BasicEvent& e : r.tree.basic_events()) {
        if (e.name == "res:bus") ++bus_events;
    }
    EXPECT_EQ(bus_events, 1u);
}

TEST(Builder, MergerUsesAndGate) {
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    const FtBuildResult r = build_fault_tree(m);
    bool found_and = false;
    for (const Gate& g : r.tree.gates()) {
        if (g.kind == GateKind::And) {
            found_and = true;
            EXPECT_EQ(g.name, "and:merge_dfus");
            EXPECT_EQ(g.children.size(), 2u);
        }
    }
    EXPECT_TRUE(found_and);
}

TEST(Builder, NonMergerUsesOrGates) {
    const ArchitectureModel m = scenarios::chain_1in_1out();
    const FtBuildResult r = build_fault_tree(m);
    for (const Gate& g : r.tree.gates()) {
        EXPECT_EQ(g.kind, GateKind::Or) << g.name;
    }
}

TEST(Builder, CyclesAreCut) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    // Feedback loop: n -> c_fb -> n (automotive control loops are DCGs).
    const NodeId n = m.find_app_node("n");
    const NodeId fb = m.add_node_with_dedicated_resource(
        {"c_fb", NodeKind::Communication, AsilTag{Asil::D}, {}}, m.find_location("center"));
    m.connect_app(n, fb);
    m.connect_app(fb, n);
    const FtBuildResult r = build_fault_tree(m);
    EXPECT_GE(r.cycles_cut, 1u);
    EXPECT_TRUE(r.tree.has_top());
}

TEST(Builder, UnmappedNodeProducesWarningNotEvent) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    const NodeId n = m.find_app_node("n");
    m.remap_node(n, {});
    const FtBuildResult r = build_fault_tree(m);
    ASSERT_FALSE(r.warnings.empty());
    EXPECT_NE(r.warnings.front().find("no mapped resource"), std::string::npos);
    EXPECT_FALSE(r.tree.has_basic_event("res:n_hw"));
}

TEST(Builder, MultipleActuatorsGetSystemTop) {
    const ArchitectureModel m = scenarios::chain_1in_2out();
    const FtBuildResult r = build_fault_tree(m);
    const Gate& top = r.tree.gate(r.tree.top());
    EXPECT_EQ(top.name, "system_failure");
    EXPECT_EQ(top.children.size(), 2u);
}

// ---- approximation ----------------------------------------------------------

/// Every name, rate, kind and child list of `got` equals `want`'s, index
/// for index.
void expect_same_tree(const FaultTree& got, const FaultTree& want, const std::string& what) {
    ASSERT_EQ(got.basic_events().size(), want.basic_events().size()) << what;
    ASSERT_EQ(got.gates().size(), want.gates().size()) << what;
    for (std::size_t e = 0; e < want.basic_events().size(); ++e) {
        EXPECT_EQ(got.basic_events()[e].name, want.basic_events()[e].name) << what << " event " << e;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.basic_events()[e].lambda),
                  std::bit_cast<std::uint64_t>(want.basic_events()[e].lambda))
            << what << " event " << e;
    }
    for (std::size_t g = 0; g < want.gates().size(); ++g) {
        EXPECT_EQ(got.gates()[g].name, want.gates()[g].name) << what << " gate " << g;
        EXPECT_EQ(got.gates()[g].kind, want.gates()[g].kind) << what << " gate " << g;
        EXPECT_EQ(got.gates()[g].children, want.gates()[g].children) << what << " gate " << g;
    }
    EXPECT_EQ(got.top(), want.top()) << what;
}

TEST(Builder, WorkspaceCarriesNothingBetweenBuilds) {
    // One workspace builds models of different sizes and resource sets in
    // turn, exact and approximated: each tree must equal a build on a
    // workspace of its own, so no event a resource or location resolved
    // in an earlier build leaks into a later one.
    const std::vector<std::pair<std::string, ArchitectureModel>> models = {
        {"ecotwin_lateral", scenarios::ecotwin_lateral_control()},
        {"fig3", scenarios::fig3_camera_gps_fusion()},
        {"chain", scenarios::chain_1in_1out()},
        {"ecotwin_lateral again", scenarios::ecotwin_lateral_control()},
    };
    BuildWorkspace workspace;
    for (const bool approximate : {false, true}) {
        FtBuildOptions options;
        options.approximate = approximate;
        for (const auto& [name, m] : models) {
            const FtBuildResult reused = build_fault_tree(m, options, workspace);
            const FtBuildResult fresh = build_fault_tree(m, options);
            expect_same_tree(reused.tree, fresh.tree, name);
            EXPECT_EQ(reused.warnings, fresh.warnings) << name;
            EXPECT_EQ(reused.approximated_blocks, fresh.approximated_blocks) << name;
        }
    }
}

TEST(Approximation, ShrinksTheTree) {
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    const FtBuildResult exact = build_fault_tree(m);
    FtBuildOptions options;
    options.approximate = true;
    const FtBuildResult approx = build_fault_tree(m, options);
    EXPECT_EQ(approx.approximated_blocks, 1u);
    EXPECT_LT(approx.tree.stats().dag_nodes, exact.tree.stats().dag_nodes);
    EXPECT_LT(approx.tree.stats().paths, exact.tree.stats().paths);
}

TEST(Approximation, RemovesBranchEvents) {
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    FtBuildOptions options;
    options.approximate = true;
    const FtBuildResult approx = build_fault_tree(m, options);
    // Branch hardware disappears from the tree ...
    EXPECT_FALSE(approx.tree.has_basic_event("res:ecu1"));
    EXPECT_FALSE(approx.tree.has_basic_event("res:ecu2"));
    // ... while series hardware and the splitters' upstreams stay.
    EXPECT_TRUE(approx.tree.has_basic_event("res:camera_hw"));
    EXPECT_TRUE(approx.tree.has_basic_event("res:gps_hw"));
    EXPECT_TRUE(approx.tree.has_basic_event("res:steering_hw"));
}

TEST(Approximation, RefusedWhenBranchesShareBaseEvents) {
    const ArchitectureModel m = scenarios::fig3_with_shared_ecu_ccf();
    FtBuildOptions options;
    options.approximate = true;
    const FtBuildResult r = build_fault_tree(m, options);
    EXPECT_EQ(r.approximated_blocks, 0u);
    ASSERT_FALSE(r.warnings.empty());
    EXPECT_NE(r.warnings.front().find("common cause"), std::string::npos);
    // Fallback to the exact expansion: the shared ECU is in the tree.
    EXPECT_TRUE(r.tree.has_basic_event("res:ecu1"));
}

TEST(Approximation, SameNamedBranchResourcesStayIndependent) {
    // Fig. 3 with ecu2 renamed ecu1: a defect validate reports, but the
    // branches still run on two resources, so the block is approximated
    // and P keeps every bit.
    const ArchitectureModel clean = scenarios::fig3_camera_gps_fusion();
    ArchitectureModel renamed = clean;
    renamed.resources().node(renamed.find_resource("ecu2")).name = "ecu1";
    EXPECT_TRUE(validate(renamed).has(IssueCode::DuplicateName));
    analysis::ProbabilityOptions options;
    options.approximate = true;
    const analysis::ProbabilityResult want = analysis::analyze_failure_probability(clean, options);
    const analysis::ProbabilityResult got = analysis::analyze_failure_probability(renamed, options);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.failure_probability),
              std::bit_cast<std::uint64_t>(want.failure_probability));
    EXPECT_EQ(got.approximated_blocks, 1u);
    EXPECT_TRUE(got.warnings.empty());
}

/// The warning the builder gives when it refuses to approximate the
/// block at `merger` because its branches share `event`.
std::string refusal(const ArchitectureModel& m, NodeId merger, const std::string& event) {
    return "approximation disabled for block at merger '" + m.app().node(merger).name +
           "': branches share base event '" + event + "' (potential common cause fault)";
}

TEST(Approximation, WarningNamesTheLowestIdSharedResource) {
    // Both branches also run on two more ECUs in one bay: two shared
    // resources and a shared location.  The lower id carries the later
    // name, and the warning names it.
    ArchitectureModel m = scenarios::chain_1in_1out();
    transform::expand(m, m.find_app_node("n"));
    const RedundantBlock block = find_redundant_blocks(m).front();
    const LocationId bay = m.add_location({"bay", kDefaultLocationLambda, {}});
    const ResourceId low =
        m.add_resource({"zeta_ecu", ResourceKind::Functional, Asil::D, {}, {}});
    const ResourceId high =
        m.add_resource({"alpha_ecu", ResourceKind::Functional, Asil::D, {}, {}});
    for (const ResourceId r : {high, low}) {
        m.place_resource(r, bay);
        for (const char* node : {"n_1", "n_2"}) m.map_node(m.find_app_node(node), r);
    }
    FtBuildOptions options;
    options.approximate = true;
    const FtBuildResult built = build_fault_tree(m, options);
    EXPECT_EQ(built.approximated_blocks, 0u);
    EXPECT_EQ(built.warnings, std::vector<std::string>{refusal(m, block.merger, "res:zeta_ecu")});
}

TEST(Approximation, WarningNamesASharedLocation) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    const LocationId shared = m.add_location({"shared_bay", kDefaultLocationLambda, {}});
    transform::ExpandOptions expand_options;
    expand_options.branch_locations = {shared, shared};
    transform::expand(m, m.find_app_node("n"), expand_options);
    const NodeId merger = find_redundant_blocks(m).front().merger;
    FtBuildOptions options;
    options.approximate = true;
    const FtBuildResult built = build_fault_tree(m, options);
    EXPECT_EQ(built.approximated_blocks, 0u);
    EXPECT_EQ(built.warnings, std::vector<std::string>{refusal(m, merger, "loc:shared_bay")});
}

TEST(Approximation, DecidedByTheBranchUsageList) {
    // A well-formed block whose branches are all fed by splitters is
    // approximated exactly when branch_usage shows no shared resource or
    // location; otherwise the builder warns.
    std::vector<ArchitectureModel> models = {
        scenarios::fig3_camera_gps_fusion(), scenarios::fig3_with_shared_ecu_ccf(),
        scenarios::ecotwin_lateral_control(), scenarios::ecotwin_longitudinal_control()};
    for (std::uint32_t seed = 1; seed <= 8; ++seed) {
        models.push_back(testing::synthetic_flow_final(seed));
        models.push_back(models.back());
        testing::add_common_causes(models.back(), seed);
    }
    for (const DecompositionStrategy strategy :
         {DecompositionStrategy::BB, DecompositionStrategy::AC, DecompositionStrategy::RND}) {
        explore::ExplorationOptions explore_options;
        explore_options.strategy = strategy;
        models.push_back(explore::run_exploration(scenarios::ecotwin_lateral_control(),
                                                  scenarios::ecotwin_decision_nodes(),
                                                  explore_options)
                             .final_model);
        models.push_back(explore::run_exploration(scenarios::ecotwin_longitudinal_control(),
                                                  scenarios::longitudinal_decision_nodes(),
                                                  explore_options)
                             .final_model);
    }
    const std::string prefix = "approximation disabled for block at merger '";
    FtBuildOptions options;
    options.approximate = true;
    std::size_t refused = 0;
    std::size_t approximated = 0;
    for (const ArchitectureModel& m : models) {
        const FtBuildResult built = build_fault_tree(m, options);
        std::vector<std::string> want_refused;
        std::size_t want_approximated = 0;
        for (const RedundantBlock& block : find_redundant_blocks(m)) {
            if (!block.well_formed) continue;
            const BranchUsage usage = branch_usage(m, block);
            const auto shared = [](const auto& use) { return use.shared(); };
            const std::string& merger = m.app().node(block.merger).name;
            const bool fed = std::ranges::none_of(
                block.branches, [](const Branch& b) { return b.feeding_splitters.empty(); });
            // A merger inside an approximated branch gets no gate.
            const bool reached = std::ranges::any_of(built.tree.gates(), [&](const Gate& g) {
                return g.name == std::string(kNodeGatePrefix) + merger;
            });
            if (std::ranges::any_of(usage.resources, shared) ||
                std::ranges::any_of(usage.locations, shared)) {
                want_refused.push_back(merger);
            } else if (fed && reached) {
                ++want_approximated;
            }
        }
        std::vector<std::string> got_refused;
        for (const std::string& w : built.warnings) {
            if (!w.starts_with(prefix)) continue;
            const std::size_t end = w.find('\'', prefix.size());
            got_refused.push_back(w.substr(prefix.size(), end - prefix.size()));
        }
        EXPECT_EQ(got_refused, want_refused) << m.name();
        EXPECT_EQ(built.approximated_blocks, want_approximated) << m.name();
        refused += want_refused.size();
        approximated += want_approximated;
    }
    EXPECT_GT(refused, 0u);
    EXPECT_GT(approximated, 0u);
}

TEST(Approximation, HalvesPathsPerDecomposition) {
    // Expanding k nodes of a chain multiplies the path count by ~2^k;
    // the approximation collapses it back.
    ArchitectureModel m = scenarios::chain_n_stages(4);
    for (int i = 1; i <= 4; ++i) {
        transform::expand(m, m.find_app_node(std::string("f").append(std::to_string(i))));
    }
    const FtBuildResult exact = build_fault_tree(m);
    FtBuildOptions options;
    options.approximate = true;
    const FtBuildResult approx = build_fault_tree(m, options);
    EXPECT_EQ(approx.approximated_blocks, 4u);
    EXPECT_GE(exact.tree.stats().paths, 16u * approx.tree.stats().paths / 2u);
}

// ---- composition fingerprint ------------------------------------------------

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

TEST(FragmentKey, EveryNameByteCounts) {
    // Names are folded 8 bytes per mix, the last word zero-padded: a
    // byte the fold skipped, or a tail it padded away, would let two
    // different names share a key.  Every single-byte edit of a node,
    // resource or location name must move both keys, and so must a
    // trailing NUL, which the padding alone cannot tell apart.
    const FtBuildOptions options;
    const ArchitectureModel base = scenarios::chain_1in_1out();
    const NodeId n = base.find_app_node("n");
    const ResourceId r = base.mapped_resources(n).front();
    ASSERT_FALSE(base.resource_locations(r).empty());
    const LocationId loc = base.resource_locations(r).front();

    enum class Target { Node, Resource, Location };
    const auto keys = [&](Target target, const std::string& name) {
        ArchitectureModel m = base;
        switch (target) {
            case Target::Node: m.app().node(n).name = name; break;
            case Target::Resource: m.resources().node(r).name = name; break;
            case Target::Location: m.physical().node(loc).name = name; break;
        }
        return std::pair{fragment_key(m, n, options), composition_key(m, options)};
    };
    for (const Target target : {Target::Node, Target::Resource, Target::Location}) {
        for (const std::size_t length : {1u, 7u, 8u, 9u, 16u, 17u}) {
            SCOPED_TRACE(::testing::Message()
                         << "target " << static_cast<int>(target) << ", length " << length);
            std::string name;
            for (std::size_t i = 0; i < length; ++i) name.push_back(static_cast<char>('a' + i));
            const auto reference = keys(target, name);
            EXPECT_EQ(keys(target, name), reference);  // equal models, equal keys
            const std::size_t positions[] = {0, 7, 8, length - 1};
            for (const std::size_t pos : positions) {
                if (pos >= length) continue;
                for (const int bit : {0x01, 0x80}) {
                    std::string edited = name;
                    edited[pos] = static_cast<char>(edited[pos] ^ bit);
                    const auto moved = keys(target, edited);
                    EXPECT_NE(moved.first, reference.first) << "byte " << pos << " ^ " << bit;
                    EXPECT_NE(moved.second, reference.second) << "byte " << pos << " ^ " << bit;
                }
            }
            const auto with_nul = keys(target, name + std::string(1, '\0'));
            EXPECT_NE(with_nul.first, reference.first);
            EXPECT_NE(with_nul.second, reference.second);
        }
    }
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

// structural_hash / canonical_form must be invariant under the component
// and edge declaration order of the source model.
TEST(DeclarationOrder, ShuffledIsomorphicModelHashesEqual) {
    for (const bool approximate : {false, true}) {
        FtBuildOptions options;
        options.approximate = approximate;
        const FaultTree a =
            canonical_form(build_fault_tree(entangled(false), options).tree);
        const FaultTree b =
            canonical_form(build_fault_tree(entangled(true), options).tree);
        EXPECT_EQ(a.structural_hash(), b.structural_hash()) << approximate;
        EXPECT_TRUE(testing::same_indexed_shape(a, b)) << approximate;
    }
}

// ---- deep application graphs ------------------------------------------------

TEST(DeepModel, LongChainBuildsAndAnalyses) {
    // 15 000 stages: a chain of 30 003 application nodes.  The builder
    // walks the application graph on a heap stack, so generation and
    // the analysis run on the default call stack; a recursive walk
    // overflowed it here.  The tree hash and P are the values the
    // recursive builder produced on a raised stack limit.
    const ArchitectureModel m = scenarios::chain_n_stages(15000);
    const FtBuildResult built = build_fault_tree(m);
    EXPECT_EQ(built.tree.gates().size(), 30003u);
    EXPECT_EQ(built.tree.basic_events().size(), 30005u);
    EXPECT_EQ(built.tree.structural_hash(), 0x0824b4c742306fa3ULL);
    const double p = analysis::analyze_failure_probability(m).failure_probability;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(p), 0x3eff75c0d91290efULL) << p;  // 3.0002569080382046e-05
}

}  // namespace
}  // namespace asilkit::ftree
