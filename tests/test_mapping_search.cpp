#include "explore/mapping_search.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/ccf.h"
#include "analysis/probability.h"
#include "core/error.h"
#include "io/model_json.h"
#include "model/validation.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

namespace asilkit::explore {
namespace {

TEST(MappingSearch, ImprovesSeriesChain) {
    ArchitectureModel m = scenarios::chain_n_stages(4);
    const MappingSearchResult r = search_mapping(m);
    EXPECT_GT(r.merges, 0u);
    EXPECT_LT(r.probability_after, r.probability_before);
    EXPECT_LT(r.cost_after, r.cost_before);
    EXPECT_TRUE(r.reached_local_optimum);
    EXPECT_EQ(validate(m).error_count(), 0u);
}

TEST(MappingSearch, NeverExceedsCapacity) {
    ArchitectureModel m = scenarios::chain_n_stages(6);
    MappingSearchOptions options;
    options.max_nodes_per_resource = 2;
    search_mapping(m, options);
    for (ResourceId r : m.resources().node_ids()) {
        EXPECT_LE(m.nodes_on_resource(r).size(), 2u)
            << m.resources().node(r).name;
    }
}

TEST(MappingSearch, LooserCapacityFindsBetterOptimum) {
    ArchitectureModel tight_model = scenarios::chain_n_stages(6);
    MappingSearchOptions tight;
    tight.max_nodes_per_resource = 2;
    const auto r_tight = search_mapping(tight_model, tight);

    ArchitectureModel loose_model = scenarios::chain_n_stages(6);
    MappingSearchOptions loose;
    loose.max_nodes_per_resource = 8;
    const auto r_loose = search_mapping(loose_model, loose);

    EXPECT_LE(r_loose.probability_after, r_tight.probability_after);
    EXPECT_LT(r_loose.probability_after, r_loose.probability_before);
}

TEST(MappingSearch, NeverMergesAcrossBranches) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    transform::expand(m, m.find_app_node("n"));
    search_mapping(m);
    EXPECT_TRUE(analysis::analyze_ccf(m).independent());
    // Replicas stay on distinct hardware.
    const auto r1 = m.mapped_resources(m.find_app_node("n_1"));
    const auto r2 = m.mapped_resources(m.find_app_node("n_2"));
    ASSERT_EQ(r1.size(), 1u);
    ASSERT_EQ(r2.size(), 1u);
    EXPECT_NE(r1.front(), r2.front());
}

TEST(MappingSearch, SensorsActuatorsManagementUntouched) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    transform::expand(m, m.find_app_node("n"));
    search_mapping(m);
    EXPECT_TRUE(m.find_resource("sens_hw").valid());
    EXPECT_TRUE(m.find_resource("act_hw").valid());
    EXPECT_TRUE(m.find_resource("split_n_hw").valid());
    EXPECT_TRUE(m.find_resource("merge_n_hw").valid());
}

TEST(MappingSearch, SharedResourceGetsRequiredReadiness) {
    // Merging a D-node's resource with a B-node's resource must raise the
    // shared hardware to D so Eq. 3 does not degrade.
    ArchitectureModel m("mixed");
    const LocationId loc = m.add_location({"zone", kDefaultLocationLambda, {}});
    const NodeId s = m.add_node_with_dedicated_resource(
        {"sens", NodeKind::Sensor, AsilTag{Asil::D}, {}}, loc);
    const NodeId f1 = m.add_node_with_dedicated_resource(
        {"f1", NodeKind::Functional, AsilTag{Asil::B}, {}}, loc);
    const NodeId f2 = m.add_node_with_dedicated_resource(
        {"f2", NodeKind::Functional, AsilTag{Asil::D}, {}}, loc);
    const NodeId a = m.add_node_with_dedicated_resource(
        {"act", NodeKind::Actuator, AsilTag{Asil::D}, {}}, loc);
    m.connect_app(s, f1);
    m.connect_app(f1, f2);
    m.connect_app(f2, a);
    const Asil f1_before = m.effective_asil(f1);
    const Asil f2_before = m.effective_asil(f2);
    search_mapping(m);
    EXPECT_EQ(m.effective_asil(f1), f1_before);
    EXPECT_EQ(m.effective_asil(f2), f2_before);
    EXPECT_EQ(validate(m).error_count(), 0u);
}

TEST(MappingSearch, IterationLimitRespected) {
    ArchitectureModel m = scenarios::chain_n_stages(6);
    MappingSearchOptions options;
    options.max_iterations = 1;
    const auto r = search_mapping(m, options);
    EXPECT_LE(r.merges, 1u);
    EXPECT_LE(r.iterations, 1u);
}

TEST(MappingSearch, NoopWhenNothingMergeable) {
    ArchitectureModel m = scenarios::chain_1in_1out();  // 1 functional, 2 comm
    MappingSearchOptions options;
    options.include_non_branch_nodes = false;
    const auto r = search_mapping(m, options);
    EXPECT_EQ(r.merges, 0u);
    EXPECT_TRUE(r.reached_local_optimum);
    EXPECT_DOUBLE_EQ(r.probability_after, r.probability_before);
}

TEST(MappingSearch, LintRejectionCounterReported) {
    // The in-region move generator never proposes structurally invalid
    // merges, so the search runs no lint filter and the counter, kept
    // for existing readers, always reads zero.
    ArchitectureModel m = scenarios::chain_n_stages(4);
    const MappingSearchResult r = search_mapping(m, {});
    EXPECT_EQ(r.lint_rejections, 0u);
}

// ---- exactness contract ----------------------------------------------------

namespace {

void expect_same_front(const std::vector<TradeoffPoint>& a, const std::vector<TradeoffPoint>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].label, b[i].label) << "point " << i;
        EXPECT_EQ(a[i].cost, b[i].cost) << "point " << i;  // bitwise
        EXPECT_EQ(a[i].failure_probability, b[i].failure_probability) << "point " << i;
    }
}

}  // namespace

TEST(MappingSearch, BoundPruningNeverChangesResults) {
    // The bound check may only skip candidates whose admissible lower
    // bound proves them unable to beat the best evaluated move; the
    // searched model, every objective AND the emitted front must be
    // bitwise identical with pruning on or off.
    ArchitectureModel pruned = scenarios::chain_n_stages(6);
    ArchitectureModel exhaustive = scenarios::chain_n_stages(6);
    transform::expand(pruned, pruned.find_app_node("f3"));
    transform::expand(exhaustive, exhaustive.find_app_node("f3"));

    MappingSearchOptions options;
    options.bound_pruning = true;
    const MappingSearchResult r_on = search_mapping(pruned, options);
    options.bound_pruning = false;
    const MappingSearchResult r_off = search_mapping(exhaustive, options);

    EXPECT_EQ(r_on.merges, r_off.merges);
    EXPECT_EQ(r_on.iterations, r_off.iterations);
    EXPECT_EQ(r_on.probability_before, r_off.probability_before);
    EXPECT_EQ(r_on.probability_after, r_off.probability_after);
    EXPECT_EQ(r_on.cost_after, r_off.cost_after);
    EXPECT_EQ(io::to_json(pruned).dump(), io::to_json(exhaustive).dump());
    expect_same_front(r_on.front, r_off.front);
    EXPECT_EQ(r_off.bound_rejections, 0u);
    // Pruning must actually do something on this walk, or the bench
    // claims are vacuous.
    EXPECT_GT(r_on.bound_rejections, 0u);
    EXPECT_LT(r_on.evaluations, r_off.evaluations);
}

TEST(MappingSearch, CandidateDedupNeverChangesResults) {
    // A second identical search on a shared engine replays every
    // candidate from the engine's evaluation memo.  The memo stores the
    // bitwise value an earlier evaluation produced, so every walk must
    // agree exactly with a search on a fresh engine.
    ArchitectureModel base = scenarios::chain_n_stages(6);
    transform::expand(base, base.find_app_node("f3"));
    ArchitectureModel reference_model = base;
    const MappingSearchResult reference = search_mapping(reference_model);

    engine::EvalEngine shared;
    for (const bool repeat : {false, true}) {
        SCOPED_TRACE(repeat ? "repeat" : "first");
        ArchitectureModel m = base;
        const MappingSearchResult r = search_mapping(m, {}, shared);
        EXPECT_EQ(r.merges, reference.merges);
        EXPECT_EQ(r.iterations, reference.iterations);
        EXPECT_EQ(r.probability_after, reference.probability_after);
        EXPECT_EQ(r.cost_after, reference.cost_after);
        EXPECT_EQ(io::to_json(m).dump(), io::to_json(reference_model).dump());
        expect_same_front(r.front, reference.front);
        if (repeat) {
            EXPECT_EQ(r.eval_cache_misses, 0u);
            EXPECT_EQ(r.eval_cache_hits, r.evaluations);
        }
    }
}

TEST(MappingSearch, PruningAndDedupTogetherStayExact) {
    // The bound-pruned search replaying from a memo the exhaustive
    // search filled, against that exhaustive search itself.
    ArchitectureModel staged = scenarios::chain_n_stages(6);
    ArchitectureModel plain = scenarios::chain_n_stages(6);
    transform::expand(staged, staged.find_app_node("f3"));
    transform::expand(plain, plain.find_app_node("f3"));

    engine::EvalEngine shared;
    MappingSearchOptions options;
    options.bound_pruning = false;
    const MappingSearchResult r_plain = search_mapping(plain, options, shared);
    options.bound_pruning = true;
    const MappingSearchResult r_staged = search_mapping(staged, options, shared);

    EXPECT_EQ(r_staged.eval_cache_misses, 0u);
    EXPECT_EQ(r_staged.merges, r_plain.merges);
    EXPECT_EQ(r_staged.probability_after, r_plain.probability_after);
    EXPECT_EQ(r_staged.cost_after, r_plain.cost_after);
    EXPECT_EQ(io::to_json(staged).dump(), io::to_json(plain).dump());
    expect_same_front(r_staged.front, r_plain.front);
}

TEST(MappingSearch, IncrementalFtreeNeverChangesResults) {
    // The engine's tree builder serves repeat compositions from a memo
    // of finished trees and builds the rest with build_fault_tree; the
    // reference, analysis::analyze_failure_probability, builds every
    // tree.  A memo hit is the tree a build would produce
    // (docs/ftree.md), so the search's objectives must equal the
    // reference analysis of the models they describe.
    ArchitectureModel base = scenarios::chain_n_stages(6);
    transform::expand(base, base.find_app_node("f3"));
    const double p_before = analysis::analyze_failure_probability(base).failure_probability;

    ArchitectureModel reference_model = base;
    const MappingSearchResult reference = search_mapping(reference_model);
    EXPECT_EQ(reference.probability_before, p_before);
    EXPECT_EQ(reference.probability_after,
              analysis::analyze_failure_probability(reference_model).failure_probability);

    // Searched twice on one engine: the repeat walk revisits every
    // composition, so the finished-tree memo serves all of them.
    engine::EvalEngine shared;
    for (const bool repeat : {false, true}) {
        SCOPED_TRACE(repeat ? "repeat" : "first");
        ArchitectureModel m = base;
        const MappingSearchResult r = search_mapping(m, {}, shared);

        EXPECT_EQ(r.merges, reference.merges);
        EXPECT_EQ(r.iterations, reference.iterations);
        EXPECT_EQ(r.probability_before, p_before);
        EXPECT_EQ(r.probability_after,
                  analysis::analyze_failure_probability(m).failure_probability);
        EXPECT_EQ(r.cost_before, reference.cost_before);
        EXPECT_EQ(r.cost_after, reference.cost_after);
        EXPECT_EQ(io::to_json(m).dump(), io::to_json(reference_model).dump());
        expect_same_front(r.front, reference.front);
        if (repeat) {
            EXPECT_EQ(r.ftree_memo_hits, r.evaluations);
        }
    }
}

// ---- anytime front ---------------------------------------------------------

TEST(MappingSearch, StreamsFrontInWalkOrder) {
    ArchitectureModel m = scenarios::chain_n_stages(6);
    MappingSearchOptions options;
    std::vector<TradeoffPoint> streamed;
    std::vector<std::size_t> sizes;
    options.on_front_update = [&](const TradeoffPoint& p, std::size_t front_size) {
        streamed.push_back(p);
        sizes.push_back(front_size);
    };
    const MappingSearchResult r = search_mapping(m, options);

    // The initial state always opens the front; every accepted merge of
    // a steepest-descent walk strictly improves the objective, so each
    // one updates the front too.
    ASSERT_GE(streamed.size(), 1u);
    EXPECT_EQ(streamed.front().label, "initial");
    EXPECT_EQ(streamed.size(), r.front_updates);
    EXPECT_EQ(streamed.size(), r.merges + 1);
    EXPECT_EQ(r.front.size(), sizes.back());
    // The last streamed point is the local optimum the search returns.
    EXPECT_EQ(streamed.back().failure_probability, r.probability_after);
    EXPECT_EQ(streamed.back().cost, r.cost_after);
}

TEST(MappingSearch, CallerOwnedTrackerAccumulatesAcrossSearches) {
    ParetoTracker tracker;
    MappingSearchOptions options;
    options.front_tracker = &tracker;

    ArchitectureModel tight_model = scenarios::chain_n_stages(6);
    options.max_nodes_per_resource = 2;
    const MappingSearchResult r_tight = search_mapping(tight_model, options);

    ArchitectureModel loose_model = scenarios::chain_n_stages(6);
    options.max_nodes_per_resource = 8;
    const MappingSearchResult r_loose = search_mapping(loose_model, options);

    // The second result's front is the shared tracker's: it has seen both
    // walks, so it dominates (or equals) each run's own best state.
    EXPECT_EQ(r_loose.front.size(), tracker.front().size());
    EXPECT_GE(r_tight.front.size(), 1u);
    for (std::size_t i = 1; i < r_loose.front.size(); ++i) {
        EXPECT_GT(r_loose.front[i].cost, r_loose.front[i - 1].cost);
        EXPECT_LT(r_loose.front[i].failure_probability,
                  r_loose.front[i - 1].failure_probability);
    }
}

// ---- region-id packing -----------------------------------------------------

TEST(MappingSearch, PackRegionIdIsCollisionFree) {
    // Regression: the old (merger << 16) | branch packing aliased e.g.
    // (merger 2, branch 0) with (merger 1, branch 0x10000).
    EXPECT_NE(detail::pack_region_id(2, 0), detail::pack_region_id(1, 0x10000));
    EXPECT_EQ(detail::pack_region_id(3, 5), (std::uint64_t{3} << 32) | 5u);
    // Distinct pairs across the full 32-bit branch range stay distinct.
    EXPECT_NE(detail::pack_region_id(0, 1), detail::pack_region_id(1, 0));
    // The trunk sentinel (~0) is unreachable: the all-ones merger id is
    // the invalid NodeId and is rejected.
    EXPECT_THROW((void)detail::pack_region_id(0xFFFFFFFFu, 0xFFFFFFFFu), ModelError);
    EXPECT_THROW((void)detail::pack_region_id(std::uint64_t{1} << 32, 0), ModelError);
    EXPECT_THROW((void)detail::pack_region_id(0, std::uint64_t{1} << 32), ModelError);
}

}  // namespace
}  // namespace asilkit::explore
