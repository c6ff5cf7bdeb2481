#include "explore/mapping_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/ccf.h"
#include "analysis/probability.h"
#include "core/error.h"
#include "cost/cost_analysis.h"
#include "explore/bounds.h"
#include "explore/driver.h"
#include "ftree/builder.h"
#include "helpers.h"
#include "io/model_json.h"
#include "model/validation.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "scenarios/builder.h"
#include "scenarios/ecotwin.h"
#include "scenarios/longitudinal.h"
#include "scenarios/micro.h"
#include "scenarios/synthetic.h"
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
    // 1 functional, 2 comm: merging the two comm parts would put two
    // nodes on one resource, over the capacity of 1.
    ArchitectureModel m = scenarios::chain_1in_1out();
    MappingSearchOptions options;
    options.max_nodes_per_resource = 1;
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

/// Whether a search walked exactly like the reference search: the same
/// merges, initial and final objective bits, searched model and front
/// (labels and objective bits).
::testing::AssertionResult same_walk(const MappingSearchResult& got,
                                     const ArchitectureModel& got_model,
                                     const testing::ReferenceSearchResult& want,
                                     const ArchitectureModel& want_model) {
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    if (got.merges != want.merges) {
        return ::testing::AssertionFailure()
               << "merges " << got.merges << ", reference " << want.merges;
    }
    if (bits(got.probability_before) != bits(want.probability_before) ||
        bits(got.cost_before) != bits(want.cost_before)) {
        return ::testing::AssertionFailure()
               << std::hexfloat << "initial (P, cost) (" << got.probability_before << ", "
               << got.cost_before << "), reference (" << want.probability_before << ", "
               << want.cost_before << ")";
    }
    if (bits(got.probability_after) != bits(want.probability_after) ||
        bits(got.cost_after) != bits(want.cost_after)) {
        return ::testing::AssertionFailure()
               << std::hexfloat << "final (P, cost) (" << got.probability_after << ", "
               << got.cost_after << "), reference (" << want.probability_after << ", "
               << want.cost_after << ")";
    }
    if (io::to_json(got_model).dump() != io::to_json(want_model).dump()) {
        return ::testing::AssertionFailure() << "searched models differ";
    }
    if (got.front.size() != want.front.size()) {
        return ::testing::AssertionFailure()
               << "front of " << got.front.size() << ", reference " << want.front.size();
    }
    for (std::size_t i = 0; i < got.front.size(); ++i) {
        const TradeoffPoint& g = got.front[i];
        const TradeoffPoint& w = want.front[i];
        if (g.label != w.label || bits(g.cost) != bits(w.cost) ||
            bits(g.failure_probability) != bits(w.failure_probability)) {
            return ::testing::AssertionFailure()
                   << std::hexfloat << "front point " << i << ": " << g.label << " ("
                   << g.failure_probability << ", " << g.cost << "), reference " << w.label
                   << " (" << w.failure_probability << ", " << w.cost << ")";
        }
    }
    return ::testing::AssertionSuccess();
}

/// The models of the differential against the reference search.
const std::vector<std::string> kDifferentialModels = {
    "synthetic1",   "synthetic2",       "synthetic3",           "synthetic4", "synthetic5",
    "synthetic6",   "synthetic7",       "synthetic8",           "chain6_f3",  "lateral",
    "longitudinal", "lateral_bb_final", "longitudinal_bb_final"};

ArchitectureModel differential_model(const std::string& name) {
    if (name.starts_with("synthetic")) {
        return testing::synthetic_flow_final(
            static_cast<std::uint32_t>(std::stoul(name.substr(9))));
    }
    if (name == "chain6_f3") {
        ArchitectureModel m = scenarios::chain_n_stages(6);
        transform::expand(m, m.find_app_node("f3"));
        return m;
    }
    if (name == "lateral") return scenarios::ecotwin_lateral_control();
    if (name == "longitudinal") return scenarios::ecotwin_longitudinal_control();
    if (name == "lateral_bb_final") {
        return run_exploration(scenarios::ecotwin_lateral_control(),
                               scenarios::ecotwin_decision_nodes())
            .final_model;
    }
    if (name == "longitudinal_bb_final") {
        return run_exploration(scenarios::ecotwin_longitudinal_control(),
                               scenarios::longitudinal_decision_nodes())
            .final_model;
    }
    throw std::invalid_argument(std::string("no differential model named ").append(name));
}

}  // namespace

// ---- differential: search_mapping against the reference search -----------

class SearchMatchesReference : public ::testing::TestWithParam<std::string> {};

TEST_P(SearchMatchesReference, AtEveryCapacityExactAndApproximate) {
    // The reference (tests/helpers.h) scores every candidate on a merged
    // copy; the search prunes by bounds, trials in place and replays
    // from its engine.  Their walks must agree bit for bit.
    const ArchitectureModel base = differential_model(GetParam());
    for (std::size_t capacity = 2; capacity <= 4; ++capacity) {
        for (const bool approximate : {false, true}) {
            SCOPED_TRACE(std::string("capacity ")
                             .append(std::to_string(capacity))
                             .append(approximate ? ", approximate" : ", exact"));
            MappingSearchOptions options;
            options.max_nodes_per_resource = capacity;
            options.probability.approximate = approximate;
            ArchitectureModel searched = base;
            ArchitectureModel reference = base;
            const MappingSearchResult got = search_mapping(searched, options);
            const testing::ReferenceSearchResult want = testing::reference_search(reference, options);
            EXPECT_TRUE(same_walk(got, searched, want, reference));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Models, SearchMatchesReference,
                         ::testing::ValuesIn(kDifferentialModels),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                             return info.param;
                         });

TEST(MappingSearch, FoldedCompositionKeysMatchFullKeys) {
    // search_mapping folds each state's composition key from the
    // incumbent's cached fragment keys (detail::CompositionKeys).  On the
    // differential models, exact and approximated, every candidate's
    // folded key inside its trial merge, and the incumbent's after each
    // accepted merge, must equal the key computed from scratch.  Each
    // candidate is also tried the other way round, so that the moved
    // nodes are not always the later ids and the survivor's own nodes
    // also see its ASIL rise.
    std::mt19937 rng(43);
    std::size_t trials = 0;
    std::size_t accepted = 0;
    for (const std::string& name : kDifferentialModels) {
        const ArchitectureModel base = differential_model(name);
        for (const bool approximate : {false, true}) {
            SCOPED_TRACE(name + (approximate ? ", approximate" : ", exact"));
            analysis::ProbabilityOptions probability;
            probability.approximate = approximate;
            const ftree::FtBuildOptions build = analysis::fault_tree_options(probability);
            ArchitectureModel m = base;
            detail::CompositionKeys keys(m, build);
            EXPECT_EQ(keys.incumbent(m), ftree::composition_key(m, build));
            const MappingSearchOptions options;
            for (int depth = 0; depth < 4; ++depth) {
                const auto moves = detail::merge_candidates(m, options);
                if (moves.empty()) break;
                for (const auto& move : moves) {
                    for (const auto& [into, from] :
                         {move, std::pair{move.second, move.first}}) {
                        const detail::ScopedMerge trial(m, into, from);
                        EXPECT_EQ(keys.with_merge(m, into), ftree::composition_key(m, build))
                            << m.resources().node(into).name << " <- "
                            << m.resources().node(from).name;
                        ++trials;
                    }
                }
                const auto [into, from] = moves[rng() % moves.size()];
                detail::apply_merge(m, into, from);
                keys.accept(m, into);
                EXPECT_EQ(keys.incumbent(m), ftree::composition_key(m, build)) << "depth " << depth;
                ++accepted;
            }
        }
    }
    EXPECT_GT(trials, 2000u);
    EXPECT_GT(accepted, 80u);
}

// ---- the bound context's cut cap (kMaxCuts = 2048) ---------------------------

namespace {

/// A sensor and a splitter feeding three chains of single-resource nodes
/// (functional ASIL B and communication ASIL A, alternating), each chain
/// at a location of its own, into a merger and an actuator.  Picking one event from each chain (one of its nodes'
/// resources or its location) is an order-3 cut, so chains of lengths
/// (a, b, c) give (a+1)(b+1)(c+1) of them, plus the six single cuts of
/// the sensor, splitter, merger, actuator and their two locations.
ArchitectureModel three_chain_model(std::size_t a, std::size_t b, std::size_t c) {
    scenarios::ScenarioBuilder builder("three-chains");
    const LocationId front = builder.loc("front");
    const LocationId center = builder.loc("center");
    const NodeId split = builder.splitter("split", Asil::D, front);
    const NodeId merge = builder.merger("merge", Asil::D, center);
    builder.link(builder.sensor("sens", Asil::D, front), split);
    builder.link(merge, builder.actuator("act", Asil::D, center));
    const std::size_t lengths[] = {a, b, c};
    for (std::size_t chain = 0; chain < 3; ++chain) {
        const std::string prefix = std::string("f").append(std::to_string(chain + 1));
        const LocationId at = builder.loc(prefix + "_zone");
        NodeId prev = split;
        for (std::size_t i = 0; i < lengths[chain]; ++i) {
            const std::string name = prefix + "_" + std::to_string(i + 1);
            const NodeId f = i % 2 == 0 ? builder.func(name, Asil::B, at)
                                        : builder.comm(name, Asil::A, at);
            builder.link(prev, f);
            prev = f;
        }
        builder.link(prev, merge);
    }
    return builder.take();
}

/// search_mapping and the reference search from the same model, compared
/// walk for walk; returns the search's result.
MappingSearchResult expect_search_matches_reference(const ArchitectureModel& m,
                                                    const MappingSearchOptions& options) {
    ArchitectureModel searched = m;
    ArchitectureModel reference = m;
    const MappingSearchResult got = search_mapping(searched, options);
    const testing::ReferenceSearchResult want = testing::reference_search(reference, options);
    EXPECT_TRUE(same_walk(got, searched, want, reference));
    return got;
}

}  // namespace

TEST(MappingSearch, OversizedCutFamilyLeavesTheBoundUnusable) {
    // 14^3 = 2744 order-3 cuts and 6 single ones: past the cap, so the
    // context keeps no probability bound, every candidate's bound is 0,
    // and the search prunes nothing yet walks like the reference.
    const ArchitectureModel m = three_chain_model(13, 13, 13);
    const cost::CostMetric metric = cost::CostMetric::exponential_metric1();
    engine::EvalEngine engine;
    EXPECT_EQ(engine.minimal_cut_sets(m, {}).cut_sets.size(), 2750u);
    const MergeBoundContext ctx(m, metric, {}, cost::total_cost(m, metric), engine);
    EXPECT_FALSE(ctx.usable());
    EXPECT_EQ(ctx.cut_count(), 0u);
    MappingSearchOptions options;
    options.max_iterations = 2;
    const auto moves = detail::merge_candidates(m, options);
    EXPECT_EQ(moves.size(), 3u * (21u + 15u));  // per chain, 7 functional and 6 comm nodes
    for (const auto& [into, from] : moves) {
        EXPECT_EQ(ctx.bounds(into, from).probability_lb, 0.0);
    }
    const MappingSearchResult got = expect_search_matches_reference(m, options);
    EXPECT_EQ(got.merges, 2u);
    EXPECT_EQ(got.bound_rejections, 0u);
}

TEST(MappingSearch, ContextAtTheCutCapStaysUsableAcrossCommits) {
    // 13 * 13 * 12 = 2028 order-3 cuts and 6 single ones: 2034 cuts,
    // within the cap, so the bound's bit rows are 32 words wide.  A
    // commit replaces each affected cut by one rewrite, so the family
    // never grows and the context stays usable down the walk.
    const ArchitectureModel base = three_chain_model(12, 12, 11);
    const cost::CostMetric metric = cost::CostMetric::exponential_metric1();
    engine::EvalEngine engine;
    EXPECT_EQ(engine.minimal_cut_sets(base, {}).cut_sets.size(), 2034u);
    ArchitectureModel m = base;
    MergeBoundContext ctx(m, metric, {}, cost::total_cost(m, metric), engine);
    ASSERT_TRUE(ctx.usable());
    EXPECT_EQ(ctx.cut_count(), 2034u);
    MappingSearchOptions options;
    options.max_iterations = 2;
    for (int depth = 0; depth < 2; ++depth) {
        const auto moves = detail::merge_candidates(m, options);
        ASSERT_FALSE(moves.empty());
        const auto [into, from] = moves.front();
        ArchitectureModel merged = m;
        detail::apply_merge(merged, into, from);
        EXPECT_LE(ctx.bounds(into, from).probability_lb,
                  analysis::analyze_failure_probability(merged, {}).failure_probability);
        const std::size_t before = ctx.cut_count();
        ctx.commit(into, from, cost::total_cost(merged, metric));
        detail::apply_merge(m, into, from);
        EXPECT_TRUE(ctx.usable()) << "depth " << depth;
        EXPECT_LT(ctx.cut_count(), before) << "depth " << depth;
    }
    const MappingSearchResult got = expect_search_matches_reference(base, options);
    EXPECT_EQ(got.merges, 2u);
    EXPECT_GT(got.bound_rejections, 0u);
}

TEST(MappingSearch, BoundPruningNeverChangesResults) {
    // The bound check may only skip candidates whose admissible lower
    // bound proves them unable to beat the best evaluated move; the
    // searched model, every objective AND the emitted front must be
    // bitwise those of the reference search, which scores every
    // candidate.
    ArchitectureModel pruned = scenarios::chain_n_stages(6);
    transform::expand(pruned, pruned.find_app_node("f3"));
    ArchitectureModel exhaustive = pruned;

    const MappingSearchResult r = search_mapping(pruned, {});
    const testing::ReferenceSearchResult want = testing::reference_search(exhaustive, {});
    EXPECT_TRUE(same_walk(r, pruned, want, exhaustive));
    // Pruning must actually do something on this walk, or this test is
    // vacuous.
    EXPECT_GT(r.bound_rejections, 0u);
    EXPECT_LT(r.evaluations, 1 + r.candidates);
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
    // The bound-pruned search replaying from a warm engine's memo,
    // against the reference search.
    ArchitectureModel base = scenarios::chain_n_stages(6);
    transform::expand(base, base.find_app_node("f3"));
    ArchitectureModel exhaustive = base;
    const testing::ReferenceSearchResult want = testing::reference_search(exhaustive, {});

    engine::EvalEngine shared;
    for (const bool repeat : {false, true}) {
        SCOPED_TRACE(repeat ? "repeat" : "first");
        ArchitectureModel m = base;
        const MappingSearchResult r = search_mapping(m, {}, shared);
        EXPECT_TRUE(same_walk(r, m, want, exhaustive));
        if (repeat) {
            EXPECT_EQ(r.eval_cache_misses, 0u);
        }
    }
}

TEST(MappingSearch, IncrementalFtreeNeverChangesResults) {
    // The engine serves repeat compositions from its composition memo
    // and builds the rest with build_fault_tree; the reference,
    // analysis::analyze_failure_probability, builds every tree.  A memo
    // hit is the result a build would produce (docs/ftree.md), so the
    // search's objectives must equal the reference analysis of the
    // models they describe.
    ArchitectureModel base = scenarios::chain_n_stages(6);
    transform::expand(base, base.find_app_node("f3"));
    const double p_before = analysis::analyze_failure_probability(base).failure_probability;

    ArchitectureModel reference_model = base;
    const MappingSearchResult reference = search_mapping(reference_model);
    EXPECT_EQ(reference.probability_before, p_before);
    EXPECT_EQ(reference.probability_after,
              analysis::analyze_failure_probability(reference_model).failure_probability);

    // Searched twice on one engine: the repeat walk revisits every
    // composition, so the composition memo serves all of them.
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

/// Cut-set enumerations (the "minimal_cut_sets" span) that `run` triggers.
std::uint64_t cut_set_enumerations(const std::function<void()>& run) {
    obs::start_tracing();
    run();
    const obs::SpanProfile profile = obs::profile_current_trace();
    obs::stop_tracing();
    const obs::SpanProfile::Node* node = profile.find("minimal_cut_sets");
    return node == nullptr ? 0 : node->count;
}

TEST(MappingSearch, CutSetsAreSharedPerEngineNotPerProcess) {
    // Each search's bound context asks the search's engine for the seed
    // model's cut sets.  Two searches from one model on one engine
    // enumerate them once; a second engine has a memo of its own and
    // enumerates again — no state outlives the engines.
    ArchitectureModel base = scenarios::chain_n_stages(6);
    transform::expand(base, base.find_app_node("f3"));
    const obs::Counter& memo_hits = obs::Registry::global().counter("explore.cutset_memo_hits");
    const std::uint64_t hits_before = memo_hits.value();

    engine::EvalEngine first;
    EXPECT_EQ(cut_set_enumerations([&] {
                  for (int i = 0; i < 2; ++i) {
                      ArchitectureModel m = base;
                      (void)search_mapping(m, {}, first);
                  }
              }),
              1u);
    EXPECT_EQ(memo_hits.value() - hits_before, 1u);

    engine::EvalEngine second;
    EXPECT_EQ(cut_set_enumerations([&] {
                  ArchitectureModel m = base;
                  (void)search_mapping(m, {}, second);
              }),
              1u);
    EXPECT_EQ(memo_hits.value() - hits_before, 1u);
}

// ---- golden walks ----------------------------------------------------------

/// The EcoTwin BB exploration's final model, explored with the
/// approximation as `asilkit explore` does.
ArchitectureModel ecotwin_bb_final() {
    ExplorationOptions options;
    options.probability.approximate = true;
    return run_exploration(scenarios::ecotwin_lateral_control(),
                           scenarios::ecotwin_decision_nodes(), options)
        .final_model;
}

struct GoldenPoint {
    const char* label;
    std::uint64_t cost_bits;
    std::uint64_t probability_bits;
};

struct GoldenWalk {
    const char* name;
    ArchitectureModel model;
    bool approximate;
    std::size_t capacity;
    /// Every state the walk streamed (each one updated the front).
    std::vector<GoldenPoint> streamed;
    /// The front at the end of the search.
    std::vector<GoldenPoint> front;
    std::uint64_t probability_after_bits;
    std::uint64_t cost_after_bits;
    std::size_t merges;
    std::size_t iterations;
    std::uint64_t candidates;
    std::uint64_t bound_rejections;
    std::uint64_t evaluations;
    std::uint64_t eval_cache_hits;
    std::uint64_t eval_cache_misses;
    std::uint64_t ftree_memo_hits;
};

void expect_points(const std::vector<TradeoffPoint>& got, const std::vector<GoldenPoint>& want,
                   const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].label, want[i].label) << what << " point " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].cost), want[i].cost_bits)
            << what << " point " << i << ": cost " << got[i].cost;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].failure_probability),
                  want[i].probability_bits)
            << what << " point " << i << ": P " << got[i].failure_probability;
    }
}

TEST(MappingSearch, GoldenWalks) {
    // The whole walk of three searches, pinned bit for bit: every state
    // it streams, the final front, the final objective and the ledger.
    // Scoring a candidate may take any route (a model copy, an in-place
    // trial, a memo hit), but it must reach these very bits and counts.
    const std::vector<GoldenPoint> demo_cap2 = {
        {"initial", 0x413b503000000000ULL, 0x3e505fe350542b58ULL},
        {"merge#1(ego_out_hw<-wm_eth_hw)", 0x413ab3f000000000ULL, 0x3e4e9a05252bc589ULL},
        {"merge#2(world_model_hw<-lateral_control_hw)", 0x4139f0a000000000ULL,
         0x3e4c7443a9a5fb36ULL},
        {"merge#3(v2v_link_hw<-env_out_hw)", 0x4139546000000000ULL, 0x3e4a4e822e16f7b5ULL},
        {"merge#4(environment_model_hw<-steer_plan_hw)", 0x4138911000000000ULL,
         0x3e4828c0b27ebb05ULL},
        {"merge#5(objs_eth_hw<-objs_bb_hw)", 0x4137f4d000000000ULL, 0x3e4602ff36dd4526ULL},
        {"merge#6(wm_can_hw<-ctrl_out_hw)", 0x4137589000000000ULL, 0x3e43dd3dbb329617ULL},
        {"merge#7(ins_link_hw<-ins_out_hw)", 0x4136bc5000000000ULL, 0x3e43dd3dbb0db15bULL},
        {"merge#8(odo_link_hw<-odo_out_hw)", 0x4136201000000000ULL, 0x3e43dd3dbaf205cfULL},
        {"merge#9(radar_link_hw<-radar_objs_hw)", 0x413583d000000000ULL, 0x3e43dd3dbaf205cfULL},
        {"merge#10(cam_link_hw<-cam_objs_hw)", 0x4134e79000000000ULL, 0x3e43dd3dbaf205ceULL},
    };
    const std::vector<GoldenPoint> demo_cap4 = {
        {"initial", 0x413b503000000000ULL, 0x3e505fe350542b58ULL},
        {"merge#1(ego_out_hw<-wm_eth_hw)", 0x413ab3f000000000ULL, 0x3e4e9a05252bc589ULL},
        {"merge#2(world_model_hw<-lateral_control_hw)", 0x4139f0a000000000ULL,
         0x3e4c7443a9a5fb36ULL},
        {"merge#3(ego_out_hw<-v2v_link_hw)", 0x4139546000000000ULL, 0x3e4a4e822e16f7b5ULL},
        {"merge#4(world_model_hw<-steer_plan_hw)", 0x4138911000000000ULL, 0x3e4828c0b27ebb04ULL},
        {"merge#5(ego_out_hw<-ctrl_out_hw)", 0x4137f4d000000000ULL, 0x3e4602ff36dd4525ULL},
        {"merge#6(environment_model_hw<-world_model_hw)", 0x4137318000000000ULL,
         0x3e43dd3dbb329616ULL},
        {"merge#7(objs_eth_hw<-objs_bb_hw)", 0x4136954000000000ULL, 0x3e41b77c3f7eaddaULL},
        {"merge#8(objs_eth_hw<-env_out_hw)", 0x4135f90000000000ULL, 0x3e3f2375878318dbULL},
        {"merge#9(objs_eth_hw<-wm_can_hw)", 0x41355cc000000000ULL, 0x3e3ad7f28ff663a5ULL},
        {"merge#10(odo_link_hw<-odo_out_hw)", 0x4134c08000000000ULL, 0x3e3ad7f28fac9a2eULL},
        {"merge#11(ins_link_hw<-ins_out_hw)", 0x4134244000000000ULL, 0x3e3ad7f28f754315ULL},
        {"merge#12(cam_link_hw<-cam_objs_hw)", 0x4133880000000000ULL, 0x3e3ad7f28f754315ULL},
        {"merge#13(radar_link_hw<-radar_objs_hw)", 0x4132ebc000000000ULL, 0x3e3ad7f28f754315ULL},
        {"merge#14(lidar_link_hw<-lidar_objs_hw)", 0x41324f8000000000ULL, 0x3e3ad7f28f754315ULL},
    };
    const std::vector<GoldenPoint> final_cap3 = {
        {"initial", 0x4132cbb800000000ULL, 0x3e3c8fc08ea00487ULL},
        {"merge#1(ego_out_hw<-v2v_link_hw)", 0x41322f7800000000ULL, 0x3e38443d97083de5ULL},
        {"merge#2(ego_out_hw<-c_post_steer_req_hw)", 0x4131933800000000ULL,
         0x3e33f8ba9f5e04e6ULL},
    };
    const GoldenWalk walks[] = {
        {"EcoTwin demo, exact, capacity 2", scenarios::ecotwin_lateral_control(), false, 2,
         demo_cap2, {demo_cap2.back()}, 0x3e43dd3dbaf205ceULL, 0x4134e79000000000ULL,
         10, 10, 160, 30, 131, 0, 131, 0},
        {"EcoTwin demo, exact, capacity 4", scenarios::ecotwin_lateral_control(), false, 4,
         demo_cap4, {demo_cap4.back()}, 0x3e3ad7f28f754315ULL, 0x41324f8000000000ULL,
         14, 14, 243, 45, 199, 0, 199, 0},
        {"EcoTwin BB final, approximate, capacity 3", ecotwin_bb_final(), true, 3,
         final_cap3, {final_cap3.back()}, 0x3e33f8ba9f5e04e6ULL, 0x4131933800000000ULL,
         2, 2, 9, 0, 10, 2, 8, 0},
    };
    for (const GoldenWalk& walk : walks) {
        SCOPED_TRACE(walk.name);
        ArchitectureModel m = walk.model;
        MappingSearchOptions options;
        options.probability.approximate = walk.approximate;
        options.max_nodes_per_resource = walk.capacity;
        std::vector<TradeoffPoint> streamed;
        options.on_front_update = [&](const TradeoffPoint& p, std::size_t) {
            streamed.push_back(p);
        };
        const MappingSearchResult r = search_mapping(m, options);

        expect_points(streamed, walk.streamed, "streamed");
        expect_points(r.front, walk.front, "front");
        EXPECT_EQ(std::bit_cast<std::uint64_t>(r.probability_after), walk.probability_after_bits);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(r.cost_after), walk.cost_after_bits);
        EXPECT_EQ(r.merges, walk.merges);
        EXPECT_EQ(r.iterations, walk.iterations);
        EXPECT_EQ(r.candidates, walk.candidates);
        EXPECT_EQ(r.bound_rejections, walk.bound_rejections);
        EXPECT_EQ(r.evaluations, walk.evaluations);
        EXPECT_EQ(r.eval_cache_hits, walk.eval_cache_hits);
        EXPECT_EQ(r.eval_cache_misses, walk.eval_cache_misses);
        EXPECT_EQ(r.ftree_memo_hits, walk.ftree_memo_hits);
    }
}

// ---- in-place trials -------------------------------------------------------

void expect_same_analysis(const analysis::ProbabilityResult& got,
                          const analysis::ProbabilityResult& want) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.failure_probability),
              std::bit_cast<std::uint64_t>(want.failure_probability));
    EXPECT_EQ(got.ft_stats.basic_events, want.ft_stats.basic_events);
    EXPECT_EQ(got.ft_stats.gates, want.ft_stats.gates);
    EXPECT_EQ(got.ft_stats.dag_nodes, want.ft_stats.dag_nodes);
    EXPECT_EQ(got.ft_stats.expanded_nodes, want.ft_stats.expanded_nodes);
    EXPECT_EQ(got.ft_stats.paths, want.ft_stats.paths);
    EXPECT_EQ(got.ft_stats.depth, want.ft_stats.depth);
    EXPECT_EQ(got.warnings, want.warnings);
}

TEST(MappingSearch, InPlaceTrialScoresLikeAMergedCopy) {
    // search_mapping scores each candidate on the incumbent model inside
    // a ScopedMerge instead of on a merged copy.  Inside the scope the
    // model must score bitwise like apply_merge's result — the same
    // composition key, cost and analysis, exact and approximated — and
    // leaving the scope, normally or by an exception, must restore it.
    std::vector<std::pair<std::string, ArchitectureModel>> models;
    models.emplace_back("EcoTwin BB final", ecotwin_bb_final());
    ArchitectureModel chain = scenarios::chain_n_stages(6);
    transform::expand(chain, chain.find_app_node("f3"));
    models.emplace_back("chain6 f3 expanded", std::move(chain));
    for (std::uint32_t seed = 1; seed <= 4; ++seed) {
        scenarios::SyntheticOptions synthetic;
        synthetic.seed = seed;
        models.emplace_back("synthetic" + std::to_string(seed),
                            scenarios::synthetic_model(synthetic));
    }

    const MappingSearchOptions search;
    std::size_t checked = 0;
    for (auto& [name, m] : models) {
        SCOPED_TRACE(name);
        const std::string before = io::to_json(m).dump();
        const auto candidates = detail::merge_candidates(m, search);
        EXPECT_FALSE(candidates.empty());
        for (const auto& [into, from] : candidates) {
            SCOPED_TRACE(m.resources().node(into).name + " <- " + m.resources().node(from).name);
            ArchitectureModel merged = m;
            detail::apply_merge(merged, into, from);
            {
                const detail::ScopedMerge trial(m, into, from);
                for (const bool approximate : {false, true}) {
                    analysis::ProbabilityOptions options;
                    options.approximate = approximate;
                    const ftree::FtBuildOptions build = analysis::fault_tree_options(options);
                    EXPECT_EQ(ftree::composition_key(m, build),
                              ftree::composition_key(merged, build));
                    expect_same_analysis(analysis::analyze_failure_probability(m, options),
                                         analysis::analyze_failure_probability(merged, options));
                }
                EXPECT_EQ(std::bit_cast<std::uint64_t>(cost::total_cost(m, search.metric)),
                          std::bit_cast<std::uint64_t>(cost::total_cost(merged, search.metric)));
            }
            EXPECT_EQ(io::to_json(m).dump(), before);
            ++checked;
        }

        // An exception inside the scope unwinds through the undo.
        const auto [into, from] = candidates.front();
        EXPECT_THROW(
            {
                const detail::ScopedMerge trial(m, into, from);
                EXPECT_NE(io::to_json(m).dump(), before);
                throw std::runtime_error("scoring failed");
            },
            std::runtime_error);
        EXPECT_EQ(io::to_json(m).dump(), before);
    }
    EXPECT_GT(checked, 30u);
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
