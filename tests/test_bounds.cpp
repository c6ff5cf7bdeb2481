#include "explore/bounds.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "analysis/cutsets.h"
#include "analysis/probability.h"
#include "cost/cost_analysis.h"
#include "engine/engine.h"
#include "ftree/builder.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/longitudinal.h"
#include "scenarios/micro.h"
#include "scenarios/synthetic.h"
#include "transform/expand.h"

namespace asilkit::explore {
namespace {

/// The search's merge move, replicated so the tests can compare a bound
/// against the exact objective of the merged model.
void apply_merge(ArchitectureModel& m, ResourceId into, ResourceId from) {
    const Asil needed = asil_max(m.resources().node(into).asil, m.resources().node(from).asil);
    m.resources().node(into).asil = needed;
    for (NodeId n : m.nodes_on_resource(from)) {
        m.map_node(n, into);
        m.unmap_node(n, from);
    }
    m.erase_resource(from);
}

/// All ordered pairs of used resources of the same kind: the superset of
/// everything the move generator can propose.
std::vector<std::pair<ResourceId, ResourceId>> same_kind_pairs(const ArchitectureModel& m) {
    std::vector<std::pair<ResourceId, ResourceId>> pairs;
    const std::vector<ResourceId> used = m.used_resources();
    for (ResourceId a : used) {
        for (ResourceId b : used) {
            if (a == b) continue;
            if (m.resources().node(a).kind != m.resources().node(b).kind) continue;
            pairs.emplace_back(a, b);
        }
    }
    return pairs;
}

std::vector<ArchitectureModel> bound_test_models() {
    std::vector<ArchitectureModel> models;
    models.push_back(scenarios::fig3_camera_gps_fusion());
    models.push_back(scenarios::ecotwin_lateral_control());
    models.push_back(scenarios::ecotwin_longitudinal_control());
    models.push_back(scenarios::chain_n_stages(5));
    // An expanded variant exercises branch regions and location events.
    ArchitectureModel expanded = scenarios::chain_n_stages(4);
    transform::expand(expanded, expanded.find_app_node("f2"));
    models.push_back(std::move(expanded));
    // Generated models (the tests/test_properties.cpp shape: 2 sensors,
    // 2 layers of 2), each with one functional node expanded.
    for (std::uint32_t seed = 1; seed <= 12; ++seed) {
        scenarios::SyntheticOptions options;
        options.seed = seed;
        options.sensors = 2;
        options.layers = 2;
        options.width = 2;
        ArchitectureModel synthetic = scenarios::synthetic_model(options);
        transform::expand(synthetic, synthetic.find_app_node("f0_0"));
        models.push_back(std::move(synthetic));
    }
    return models;
}

TEST(Bounds, CostBoundNeverExceedsExactMergedCost) {
    for (const ArchitectureModel& m : bound_test_models()) {
        for (const cost::CostMetric& metric :
             {cost::CostMetric::exponential_metric1(), cost::CostMetric::exponential_metric2(),
              cost::CostMetric::linear_metric3()}) {
            const double current = cost::total_cost(m, metric);
            engine::EvalEngine engine;
            const MergeBoundContext ctx(m, metric, {}, current, engine);
            for (const auto& [into, from] : same_kind_pairs(m)) {
                ArchitectureModel merged = m;
                apply_merge(merged, into, from);
                const double exact = cost::total_cost(merged, metric);
                const double lb = ctx.bounds(into, from).cost_lb;
                EXPECT_LE(lb, exact) << m.name() << " " << metric.name();
                // The bound is the exact delta up to the FP slack factor.
                EXPECT_GE(lb, exact * (1.0 - 1e-9)) << m.name() << " " << metric.name();
            }
        }
    }
}

TEST(Bounds, ProbabilityBoundNeverExceedsExactMergedProbability) {
    const analysis::ProbabilityOptions prob_options;
    const cost::CostMetric metric = cost::CostMetric::exponential_metric1();
    for (const ArchitectureModel& m : bound_test_models()) {
        engine::EvalEngine engine;
        const MergeBoundContext ctx(m, metric, prob_options, cost::total_cost(m, metric), engine);
        ASSERT_TRUE(ctx.usable()) << m.name();
        EXPECT_GT(ctx.cut_count(), 0u) << m.name();
        for (const auto& [into, from] : same_kind_pairs(m)) {
            ArchitectureModel merged = m;
            apply_merge(merged, into, from);
            const double exact =
                analysis::analyze_failure_probability(merged, prob_options).failure_probability;
            const double lb = ctx.bounds(into, from).probability_lb;
            EXPECT_GE(lb, 0.0) << m.name();
            EXPECT_LE(lb, exact)
                << m.name() << ": merging " << m.resources().node(from).name << " into "
                << m.resources().node(into).name;
        }
    }
}

TEST(Bounds, RandomizedMergeSequencesStayAdmissible) {
    // Walk random merge sequences (as the search does) and re-check both
    // bounds at every state — admissibility must hold at depth, not just
    // on the seed models.
    std::mt19937 rng(23);
    const analysis::ProbabilityOptions prob_options;
    const cost::CostMetric metric = cost::CostMetric::exponential_metric2();
    for (int round = 0; round < 8; ++round) {
        ArchitectureModel m = scenarios::ecotwin_lateral_control();
        for (int depth = 0; depth < 3; ++depth) {
            const auto pairs = same_kind_pairs(m);
            if (pairs.empty()) break;
            engine::EvalEngine engine;
            const MergeBoundContext ctx(m, metric, prob_options, cost::total_cost(m, metric),
                                        engine);
            const auto& [into, from] =
                pairs[std::uniform_int_distribution<std::size_t>(0, pairs.size() - 1)(rng)];
            const MergeBoundContext::Bounds b = ctx.bounds(into, from);
            apply_merge(m, into, from);
            EXPECT_LE(b.cost_lb, cost::total_cost(m, metric));
            EXPECT_LE(b.probability_lb,
                      analysis::analyze_failure_probability(m, prob_options).failure_probability);
        }
    }
}

TEST(Bounds, CommittedContextStaysAdmissibleAlongWalks) {
    // search_mapping builds ONE context and carries it across accepted
    // merges with commit() — no fault-tree rebuild, no cut
    // re-enumeration.  The materialized rewrite must keep every later
    // bound admissible, at depth, for every candidate.
    std::mt19937 rng(31);
    const analysis::ProbabilityOptions prob_options;
    const cost::CostMetric metric = cost::CostMetric::exponential_metric1();
    for (int round = 0; round < 4; ++round) {
        ArchitectureModel m = scenarios::ecotwin_lateral_control();
        engine::EvalEngine engine;
        MergeBoundContext ctx(m, metric, prob_options, cost::total_cost(m, metric), engine);
        ASSERT_TRUE(ctx.usable());
        for (int depth = 0; depth < 4; ++depth) {
            const auto pairs = same_kind_pairs(m);
            if (pairs.empty()) break;
            for (const auto& [into, from] : pairs) {
                const MergeBoundContext::Bounds b = ctx.bounds(into, from);
                ArchitectureModel merged = m;
                apply_merge(merged, into, from);
                EXPECT_LE(b.cost_lb, cost::total_cost(merged, metric)) << "depth " << depth;
                EXPECT_LE(b.probability_lb,
                          analysis::analyze_failure_probability(merged, prob_options)
                              .failure_probability)
                    << "depth " << depth;
            }
            // Accept a random merge and carry the context across it, as
            // the search does with its winner: commit() sees the
            // PRE-merge model, so the merged cost comes from a copy.
            const auto& [into, from] =
                pairs[std::uniform_int_distribution<std::size_t>(0, pairs.size() - 1)(rng)];
            ArchitectureModel merged = m;
            apply_merge(merged, into, from);
            ctx.commit(into, from, cost::total_cost(merged, metric));
            m = std::move(merged);
            EXPECT_TRUE(ctx.usable()) << "depth " << depth;
        }
    }
}

TEST(Bounds, BaseBoundNeverExceedsExactTopProbability) {
    // The Bonferroni machinery itself, checked against the exact BDD
    // probability on every test model: cut sets under-approximate the
    // top event, the bound under-approximates their union.
    for (const ArchitectureModel& m : bound_test_models()) {
        const auto built = ftree::build_fault_tree(m);
        const auto cuts = analysis::minimal_cut_sets(built.tree);
        const analysis::CutSetLowerBound lb(cuts,
                                            analysis::basic_event_probabilities(built.tree));
        const double exact =
            analysis::analyze_failure_probability(m, {}).failure_probability;
        EXPECT_GE(lb.base_bound(), 0.0);
        // The raw bound is mathematically <= exact but the two sides are
        // rounded through different FP accumulation orders; when every
        // cut survives into the bound they can differ by a final ulp.
        // MergeBoundContext absorbs this with its 1 - 1e-9 slack factor;
        // assert the same contract here.
        EXPECT_LE(lb.base_bound() * (1.0 - 1e-9), exact) << m.name();
    }
}

TEST(Bounds, ReboundMatchesFreshConstruction) {
    // rebound(sub) must equal building CutSetLowerBound from the
    // substituted cut list directly (up to FP accumulation order).
    std::mt19937 rng(29);
    std::uniform_real_distribution<double> uniform(1e-6, 1e-2);
    std::vector<double> probs(8);
    for (double& p : probs) p = uniform(rng);
    const std::vector<analysis::CutSet> cuts = {{0, 1}, {1, 2}, {3}, {4, 5}, {2, 6}};
    const analysis::CutSetLowerBound base(cuts, probs);

    // Substitute: drop cuts 1 and 4 (the ones touching event 2), re-price
    // event 2, re-introduce rewritten forms.
    analysis::CutSetLowerBound::Substitution sub;
    sub.affected = {1, 4};
    sub.replacements = {{1, 2, 7}, {2, 6}};
    sub.overrides = {{2, uniform(rng)}};

    std::vector<analysis::CutSet> direct_cuts = {{0, 1}, {3}, {4, 5}, {1, 2, 7}, {2, 6}};
    std::vector<double> direct_probs = probs;
    direct_probs[2] = sub.overrides[0].second;
    const analysis::CutSetLowerBound direct(direct_cuts, direct_probs);

    EXPECT_NEAR(base.rebound(sub), direct.base_bound(),
                1e-12 * std::max(1.0, direct.base_bound()));
}

TEST(Bounds, BoundsAreUsefullyTight) {
    // Admissible alone would allow probability_lb = 0 everywhere, and
    // the search would then prune nothing; the bounds must bite.  On the
    // EcoTwin model every candidate's probability bound must be strictly
    // positive (the rewritten cuts keep real mass) and within 10x of the
    // exact merged probability for at least one candidate.
    const ArchitectureModel m = scenarios::ecotwin_lateral_control();
    const cost::CostMetric metric = cost::CostMetric::exponential_metric1();
    engine::EvalEngine engine;
    const MergeBoundContext ctx(m, metric, {}, cost::total_cost(m, metric), engine);
    ASSERT_TRUE(ctx.usable());
    bool some_tight = false;
    for (const auto& [into, from] : same_kind_pairs(m)) {
        const double lb = ctx.bounds(into, from).probability_lb;
        EXPECT_GT(lb, 0.0);
        ArchitectureModel merged = m;
        apply_merge(merged, into, from);
        const double exact =
            analysis::analyze_failure_probability(merged, {}).failure_probability;
        if (lb >= exact / 10.0) some_tight = true;
    }
    EXPECT_TRUE(some_tight);
}

}  // namespace
}  // namespace asilkit::explore
