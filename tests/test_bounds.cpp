#include "explore/bounds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cutsets.h"
#include "analysis/probability.h"
#include "core/error.h"
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

TEST(Bounds, ReboundRejectsIndicesOutOfRange) {
    // Three events, two cuts: event 3 and cut 2 are one past the end.
    const analysis::CutSetLowerBound lb({{0, 1}, {1, 2}}, {0.1, 0.2, 0.3});
    const auto error = [&](const analysis::CutSetLowerBound::Substitution& s) -> std::string {
        try {
            (void)lb.rebound(s);
        } catch (const AnalysisError& e) {
            return e.what();
        }
        return "";
    };
    const std::string bad_event = "analysis error: CutSetLowerBound: event index out of range";
    const std::string bad_cut = "analysis error: CutSetLowerBound: cut index out of range";

    analysis::CutSetLowerBound::Substitution replacement;
    replacement.affected = {0};
    replacement.replacements = {{0, 3}};
    EXPECT_EQ(error(replacement), bad_event);

    analysis::CutSetLowerBound::Substitution override;
    override.overrides = {{3, 0.5}};
    EXPECT_EQ(error(override), bad_event);

    analysis::CutSetLowerBound::Substitution affected;
    affected.affected = {0, 2};
    EXPECT_EQ(error(affected), bad_cut);

    EXPECT_THROW((void)lb.cuts_containing({1, 3}), AnalysisError);
    EXPECT_THROW((void)analysis::CutSetLowerBound({{0, 3}}, {0.1, 0.2, 0.3}), AnalysisError);
    // In range, the same substitutions are fine.
    replacement.replacements = {{0, 2}};
    override.overrides = {{2, 0.5}};
    override.affected = {1};
    affected.affected = {0, 1};
    EXPECT_EQ(error(replacement), "");
    EXPECT_EQ(error(override), "");
    EXPECT_EQ(error(affected), "");
}

// ---- an independent oracle for CutSetLowerBound ------------------------

/// Product of `price` over the union of two sorted event lists, walked as
/// one merge: an event both lists name is priced once per common
/// occurrence, every other occurrence once.
double union_product(const analysis::CutSet& a, const analysis::CutSet& b,
                     const std::vector<double>& price) {
    double p = 1.0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() || j < b.size()) {
        if (j == b.size() || (i < a.size() && a[i] < b[j])) {
            p *= price[a[i++]];
        } else if (i == a.size() || b[j] < a[i]) {
            p *= price[b[j++]];
        } else {
            p *= price[a[i]];
            ++i;
            ++j;
        }
    }
    return p;
}

double product(const analysis::CutSet& c, const std::vector<double>& price) {
    double p = 1.0;
    for (const std::uint32_t e : c) p *= price[e];
    return p;
}

bool share_an_event(const analysis::CutSet& a, const analysis::CutSet& b) {
    return std::find_first_of(a.begin(), a.end(), b.begin(), b.end()) != a.end();
}

/// The second-order Bonferroni bound and its re-bounding written out the
/// slow way: every pair of cuts is tested directly, O(k^2), and the terms
/// are summed in the order CutSetLowerBound documents (pairs (i, j),
/// i <= j, ascending; per replacement, the surviving cuts ascending), so
/// the two must agree to the bit.
struct NaiveBound {
    std::vector<analysis::CutSet> cuts;
    std::vector<double> probs;
    std::vector<double> cut_prob;
    std::vector<double> pair_sum;
    double s1 = 0.0;
    double s2 = 0.0;
    double base = 0.0;

    NaiveBound(std::vector<analysis::CutSet> c, std::vector<double> p)
        : cuts(std::move(c)), probs(std::move(p)) {
        const std::size_t k = cuts.size();
        double sum_sq = 0.0;
        double max_single = 0.0;
        for (const analysis::CutSet& cut : cuts) {
            cut_prob.push_back(product(cut, probs));
            s1 += cut_prob.back();
            sum_sq += cut_prob.back() * cut_prob.back();
            max_single = std::max(max_single, cut_prob.back());
        }
        s2 = std::max(0.0, (s1 * s1 - sum_sq) * 0.5);
        for (std::size_t i = 0; i < k; ++i) pair_sum.push_back(cut_prob[i] * (s1 - cut_prob[i]));
        for (std::size_t i = 0; i < k; ++i) {
            for (std::size_t j = i; j < k; ++j) {
                const bool shares =
                    j == i ? std::adjacent_find(cuts[i].begin(), cuts[i].end()) != cuts[i].end()
                           : share_an_event(cuts[i], cuts[j]);
                if (!shares) continue;
                const double c = union_product(cuts[i], cuts[j], probs) - cut_prob[i] * cut_prob[j];
                pair_sum[i] += c;
                pair_sum[j] += c;
                s2 += c;
            }
        }
        base = std::min(std::max({0.0, max_single, s1 - s2}), 1.0);
    }

    [[nodiscard]] double rebound(const analysis::CutSetLowerBound::Substitution& s) const {
        std::vector<double> priced = probs;
        for (const auto& [e, p] : s.overrides) priced[e] = p;
        std::vector<bool> affected(cuts.size(), false);
        for (const std::uint32_t i : s.affected) affected[i] = true;

        double s1_new = s1;
        for (const std::uint32_t i : s.affected) s1_new -= cut_prob[i];
        const double s1_surviving = s1_new;
        double max_single = 0.0;
        for (std::size_t i = 0; i < cuts.size(); ++i) {
            if (!affected[i]) max_single = std::max(max_single, cut_prob[i]);
        }
        std::vector<double> repl;
        for (const analysis::CutSet& r : s.replacements) {
            repl.push_back(product(r, priced));
            s1_new += repl.back();
            max_single = std::max(max_single, repl.back());
        }

        double removed = 0.0;
        for (const std::uint32_t i : s.affected) removed += pair_sum[i];
        for (std::size_t x = 0; x < s.affected.size(); ++x) {
            for (std::size_t y = x + 1; y < s.affected.size(); ++y) {
                removed -= union_product(cuts[s.affected[x]], cuts[s.affected[y]], probs);
            }
        }
        double added = 0.0;
        for (std::size_t x = 0; x < s.replacements.size(); ++x) {
            const analysis::CutSet& r = s.replacements[x];
            if (repl[x] == 0.0) continue;
            added += repl[x] * s1_surviving;
            for (std::size_t j = 0; j < cuts.size(); ++j) {
                if (affected[j] || !share_an_event(r, cuts[j])) continue;
                added += union_product(r, cuts[j], priced) - repl[x] * cut_prob[j];
            }
        }
        for (std::size_t x = 0; x < s.replacements.size(); ++x) {
            for (std::size_t y = x + 1; y < s.replacements.size(); ++y) {
                added += union_product(s.replacements[x], s.replacements[y], priced);
            }
        }
        const double s2_new = s2 - removed + added;
        return std::min(std::max({0.0, max_single, s1_new - s2_new}), 1.0);
    }
};

/// A sorted cut of 1-4 (2-4 when `pairs_up`) events below `events`; now
/// and then one event twice.
analysis::CutSet random_cut(std::mt19937& rng, std::uint32_t events, bool pairs_up) {
    const std::size_t order = (pairs_up ? 2 : 1) + rng() % (pairs_up ? 3 : 4);
    analysis::CutSet cut;
    for (std::size_t i = 0; i < order; ++i) cut.push_back(static_cast<std::uint32_t>(rng() % events));
    if (rng() % 16 == 0) cut.push_back(cut.front());  // a repeated event
    std::sort(cut.begin(), cut.end());
    return cut;
}

TEST(Bounds, BitRowIndexMatchesANaiveOracle) {
    // Families across the word boundaries of the bit rows (k = 63, 64,
    // 65, 129) up to the search's cap of 2048 cuts, 32 words a row.  The
    // last three events are in no cut; one event has probability 0, so
    // some replacements take the zero-probability shortcut.
    for (const std::size_t k : {1u, 63u, 64u, 65u, 129u, 2048u}) {
        for (std::uint32_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(std::string("k ").append(std::to_string(k)).append(", seed ").append(
                std::to_string(seed)));
            std::mt19937 rng(seed * 7919u + static_cast<std::uint32_t>(k));
            const std::uint32_t used = 6 + static_cast<std::uint32_t>(rng() % 40);
            const std::uint32_t events = used + 3;
            std::uniform_real_distribution<double> uniform(1e-5, 1e-2);
            std::vector<double> probs(events);
            for (double& p : probs) p = uniform(rng);
            probs[rng() % used] = 0.0;
            std::vector<analysis::CutSet> cuts;
            for (std::size_t i = 0; i < k; ++i) cuts.push_back(random_cut(rng, used, k > 129));

            const analysis::CutSetLowerBound lb(cuts, probs);
            const NaiveBound naive(cuts, probs);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(lb.base_bound()),
                      std::bit_cast<std::uint64_t>(naive.base));

            for (int round = 0; round < (k > 129 ? 4 : 12); ++round) {
                // Re-priced events, every cut containing one of them, and
                // a few more cuts: the substitution precondition.
                analysis::CutSetLowerBound::Substitution s;
                const std::size_t overridden = rng() % 3;
                for (std::size_t o = 0; o < overridden; ++o) {
                    const auto e = static_cast<std::uint32_t>(rng() % events);
                    if (std::none_of(s.overrides.begin(), s.overrides.end(),
                                     [&](const auto& ov) { return ov.first == e; })) {
                        s.overrides.emplace_back(e, uniform(rng));
                    }
                }
                std::vector<std::uint32_t> touched;
                for (const auto& [e, p] : s.overrides) touched.push_back(e);
                if (rng() % 2 == 0) touched.push_back(static_cast<std::uint32_t>(rng() % events));
                std::vector<std::uint32_t> want;
                for (std::uint32_t i = 0; i < k; ++i) {
                    if (std::any_of(touched.begin(), touched.end(), [&](std::uint32_t e) {
                            return std::find(cuts[i].begin(), cuts[i].end(), e) != cuts[i].end();
                        })) {
                        want.push_back(i);
                    }
                }
                std::sort(touched.begin(), touched.end());
                EXPECT_EQ(lb.cuts_containing(touched), want);
                s.affected = want;
                for (std::size_t extra = rng() % 4; extra > 0; --extra) {
                    s.affected.push_back(static_cast<std::uint32_t>(rng() % k));
                }
                std::sort(s.affected.begin(), s.affected.end());
                s.affected.erase(std::unique(s.affected.begin(), s.affected.end()),
                                 s.affected.end());
                for (std::size_t r = rng() % 7; r > 0; --r) {
                    s.replacements.push_back(random_cut(rng, events, k > 129));
                }
                EXPECT_EQ(std::bit_cast<std::uint64_t>(lb.rebound(s)),
                          std::bit_cast<std::uint64_t>(naive.rebound(s)))
                    << "round " << round;
            }
        }
    }
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
