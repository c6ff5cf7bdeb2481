// The three workloads.  Each constructor is the set-up (every input is
// built from the seed before timing starts), pass() is one timed unit of
// work made of public asilkit calls only, and check() verifies the
// outputs of the last pass outside the timed region.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "analysis/ccf.h"
#include "analysis/cutsets.h"
#include "analysis/probability.h"
#include "analysis/simulation.h"
#include "analysis/tolerance.h"
#include "bench.h"
#include "cost/cost_analysis.h"
#include "engine/engine.h"
#include "explore/driver.h"
#include "explore/mapping_search.h"
#include "explore/pareto.h"
#include "ftree/builder.h"
#include "io/json.h"
#include "io/model_json.h"
#include "lint/lint.h"
#include "model/validation.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/longitudinal.h"
#include "scenarios/micro.h"
#include "scenarios/synthetic.h"

namespace bench_e2e {

using namespace asilkit;

namespace {

/// Derives the k-th sub-seed of a run seed (splitmix64 finaliser), so
/// neighbouring run seeds give unrelated input streams.
std::uint32_t sub_seed(std::uint32_t seed, std::uint64_t k) {
    std::uint64_t z = (static_cast<std::uint64_t>(seed) << 32) + k + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<std::uint32_t>(z ^ (z >> 31));
}

/// Visits 0..n-1 in a seeded order that is reshuffled every cycle, so
/// traced and untraced passes both see every input over a run.
class Cycle {
public:
    Cycle(std::size_t n, std::uint32_t seed) : order_(n), rng_(seed), next_(n) {
        for (std::size_t i = 0; i < n; ++i) order_[i] = i;
    }
    std::size_t next() {
        if (next_ == order_.size()) {
            for (std::size_t i = order_.size(); i > 1; --i) {
                std::swap(order_[i - 1], order_[rng_() % i]);
            }
            next_ = 0;
        }
        return order_[next_++];
    }

private:
    std::vector<std::size_t> order_;
    std::mt19937 rng_;
    std::size_t next_;
};

bool close_rel(double a, double b, double rel) {
    return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Hypervolume of a (cost, P) front normalised by its initial point,
/// against reference (1.1, 1.1): the area the front dominates.
double normalised_hypervolume(const std::vector<explore::TradeoffPoint>& front,
                              const explore::TradeoffPoint& initial) {
    constexpr double kRef = 1.1;
    std::vector<std::pair<double, double>> pts;
    for (const explore::TradeoffPoint& p : front) {
        const double c = p.cost / initial.cost;
        const double q = p.failure_probability / initial.failure_probability;
        if (c < kRef && q < kRef) pts.emplace_back(c, q);
    }
    std::sort(pts.begin(), pts.end());
    double hv = 0.0;
    double best_q = kRef;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        best_q = std::min(best_q, pts[i].second);
        const double next_c = i + 1 < pts.size() ? pts[i + 1].first : kRef;
        hv += (next_c - pts[i].first) * (kRef - best_q);
    }
    return hv;
}

/// Sums of the mapping-search ledger over one pass.
struct SearchTotals {
    double candidates = 0;
    double evaluations = 0;
    double full_evals = 0;
    double bound_rejections = 0;
    double merges = 0;
    double iterations = 0;

    void add(const explore::MappingSearchResult& r) {
        evaluations += static_cast<double>(r.evaluations);
        full_evals += static_cast<double>(r.eval_cache_misses);
        bound_rejections += static_cast<double>(r.bound_rejections);
        candidates += static_cast<double>(r.evaluations + r.bound_rejections + r.lint_rejections);
        merges += static_cast<double>(r.merges);
        iterations += static_cast<double>(r.iterations);
    }
    void record(PassRecord& rec) const {
        rec[Layer::ExploreCandidates] = candidates;
        rec[Layer::ExploreEvaluations] = evaluations;
        rec[Layer::ExploreFullEvals] = full_evals;
        rec[Layer::ExplorePruneRatio] = ratio(bound_rejections, candidates);
        rec[Layer::ExploreMergeYield] = ratio(merges, evaluations);
        rec[Layer::ExploreIterations] = iterations;
    }
};

/// Sums of EvalEngine::stats() over the engines of one pass.
struct EngineTotals {
    engine::EvalEngine::Stats s{};
    unsigned threads = 0;

    void add(const engine::EvalEngine::Stats& d, unsigned engine_threads) {
        s.analyze_calls += d.analyze_calls;
        s.tree_hits += d.tree_hits;
        s.module_hits += d.module_hits;
        s.module_misses += d.module_misses;
        s.dedup_hits += d.dedup_hits;
        s.subtree_memo_hits += d.subtree_memo_hits;
        s.subtree_memo_misses += d.subtree_memo_misses;
        s.gc_collections += d.gc_collections;
        s.batch_lanes += d.batch_lanes;
        s.fragments_built += d.fragments_built;
        s.fragments_reused += d.fragments_reused;
        s.ftree_memo_hits += d.ftree_memo_hits;
        threads = std::max(threads, engine_threads);
    }
    void record(PassRecord& rec) const {
        const auto f = [](std::uint64_t v) { return static_cast<double>(v); };
        rec[Layer::EngineAnalyzeCalls] = f(s.analyze_calls);
        rec[Layer::EngineTreeHitRatio] = ratio(f(s.tree_hits), f(s.analyze_calls));
        rec[Layer::EngineModuleHitRatio] =
            ratio(f(s.module_hits), f(s.module_hits + s.module_misses));
        rec[Layer::EngineDedupHits] = f(s.dedup_hits);
        rec[Layer::EngineSubtreeMemoHitRatio] =
            ratio(f(s.subtree_memo_hits), f(s.subtree_memo_hits + s.subtree_memo_misses));
        rec[Layer::EngineGcCollections] = f(s.gc_collections);
        rec[Layer::EngineBatchLanes] = f(s.batch_lanes);
        rec[Layer::EngineThreads] = threads;
        rec[Layer::EngineFragmentReuseRatio] =
            ratio(f(s.fragments_reused), f(s.fragments_built + s.fragments_reused));
        rec[Layer::EngineFtreeMemoHits] = f(s.ftree_memo_hits);
    }
};

/// One searched model and what the search claimed about it.
struct Searched {
    ArchitectureModel model;
    explore::MappingSearchResult result;
    cost::CostMetric metric = cost::CostMetric::exponential_metric1();
};

/// The search's claims must match an independent analysis of the
/// searched model.
void check_search(Checker& checker, const Searched& s, const std::string& what) {
    const double p = analysis::analyze_failure_probability(s.model).failure_probability;
    checker.expect(close_rel(s.result.probability_after, p, 1e-9),
                   what + ": probability_after matches analyze_failure_probability");
    const double c = cost::total_cost(s.model, s.metric);
    checker.expect(close_rel(s.result.cost_after, c, 1e-12),
                   what + ": cost_after matches total_cost");
}

// ---- eco_sweep --------------------------------------------------------

struct Scenario {
    ArchitectureModel model;
    std::vector<std::string> nodes;
};

/// One configuration of the sweep.
struct SweepConfig {
    std::size_t scenario;  ///< 0 lateral, 1 longitudinal
    int metric;            ///< Table II metric 1 or 2
    DecompositionStrategy strategy;
};

class EcoSweep final : public Workload {
public:
    /// The seed drives the order in which the 12 configurations visit
    /// the shared engine (and so which revisits hit): every pass draws a
    /// fresh order, so a run's median is over many orders, not one.  RND
    /// keeps the library's default rng_seed: its draw alone moves a pass
    /// between 250 and 970 ms (seeds 1-10), which would swamp any code
    /// change.
    explicit EcoSweep(std::uint32_t seed) : order_rng_(seed) {
        scenarios_.push_back(
            {scenarios::ecotwin_lateral_control(), scenarios::ecotwin_decision_nodes()});
        scenarios_.push_back(
            {scenarios::ecotwin_longitudinal_control(), scenarios::longitudinal_decision_nodes()});
        std::vector<SweepConfig> configs;
        for (std::size_t sc = 0; sc < scenarios_.size(); ++sc) {
            for (const int metric : {1, 2}) {
                for (const DecompositionStrategy strategy :
                     {DecompositionStrategy::BB, DecompositionStrategy::AC,
                      DecompositionStrategy::RND}) {
                    configs.push_back({sc, metric, strategy});
                }
            }
        }
        configs_ = std::move(configs);
    }

    void pass(PassRecord& rec) override {
        for (std::size_t i = configs_.size(); i > 1; --i) {
            std::swap(configs_[i - 1], configs_[order_rng_() % i]);
        }
        searched_.clear();
        fig12_.reset();
        SearchTotals search;
        engine::EvalEngine shared;
        // One front and initial point per (scenario, metric): costs under
        // different metrics or of different systems do not compare.
        std::map<std::pair<std::size_t, int>,
                 std::pair<explore::ParetoTracker, explore::TradeoffPoint>>
            fronts;
        for (const SweepConfig& cfg : configs_) {
            const Scenario& sc = scenarios_[cfg.scenario];
            const cost::CostMetric metric = cfg.metric == 1
                                                ? cost::CostMetric::exponential_metric1()
                                                : cost::CostMetric::exponential_metric2();
            auto& [tracker, initial] = fronts[{cfg.scenario, cfg.metric}];
            explore::ExplorationOptions options;
            options.strategy = cfg.strategy;
            options.metric = metric;
            options.front_tracker = &tracker;
            explore::ExplorationResult flow;
            {
                const Call call(rec, Layer::ExploreFlowMs, "run_exploration");
                flow = explore::run_exploration(sc.model, sc.nodes, options, shared);
            }
            initial = flow.curve.front();
            rec[Layer::FtreeDagNodes] += static_cast<double>(flow.curve.back().ft_dag_nodes);
            rec[Layer::BddNodes] += static_cast<double>(flow.curve.back().bdd_nodes);
            if (cfg.scenario == 0 && cfg.metric == 1 && cfg.strategy == DecompositionStrategy::BB) {
                fig12_ = flow.curve;
            }
            for (const std::size_t capacity : {2, 3, 4}) {
                explore::MappingSearchOptions so;
                so.max_nodes_per_resource = capacity;
                so.metric = metric;
                so.front_tracker = &tracker;
                Searched s{flow.final_model, {}, metric};
                {
                    const Call call(rec, Layer::ExploreSearchMs, "search_mapping");
                    s.result = explore::search_mapping(s.model, so, shared);
                }
                search.add(s.result);
                searched_.push_back(std::move(s));
            }
        }
        double hv_sum = 0.0;
        for (const auto& [key, front] : fronts) {
            hv_sum += normalised_hypervolume(front.first.front(), front.second);
        }
        search.record(rec);
        EngineTotals eng;
        eng.add(shared.stats(), shared.threads());
        eng.record(rec);
        rec[Layer::FrontHv] = hv_sum / static_cast<double>(fronts.size());
    }

    void check(Checker& checker) override {
        check_fig12(checker);
        for (std::size_t i = 0; i < searched_.size(); ++i) {
            check_search(checker, searched_[i], "eco_sweep search #" + std::to_string(i));
        }
    }

private:
    /// EXPERIMENTS.md, Fig. 12: the lateral BB / metric-1 trajectory.
    /// Costs match exactly, P to the significant digits the table gives.
    void check_fig12(Checker& checker) const {
        checker.expect(fig12_ && fig12_->points.size() >= 4, "fig12: curve has points A-D");
        if (!fig12_ || fig12_->points.size() < 4) return;
        const std::vector<explore::TradeoffPoint>& pts = fig12_->points;
        std::size_t b = 0;
        for (std::size_t i = 0; i < pts.size(); ++i) {
            if (pts[i].label.rfind("expand(", 0) == 0) b = i;
        }
        const explore::TradeoffPoint* named[] = {&pts.front(), &pts[b], &pts[pts.size() - 2],
                                                 &pts.back()};
        const double cost[] = {1790000, 2127600, 1439600, 1231800};
        const char* prob[] = {"1.525e-08", "2.065e-08", "6.65e-09", "6.65e-09"};
        const char* label[] = {"A", "B", "C", "D"};
        for (int i = 0; i < 4; ++i) {
            checker.expect(named[i]->cost == cost[i], std::string("fig12 ") + label[i] + " cost");
            // Round P to as many significant digits as the table gives.
            const std::string want = prob[i];
            const int decimals = static_cast<int>(want.find('e')) - 2;
            char got[32];
            std::snprintf(got, sizeof got, "%.*e", decimals, named[i]->failure_probability);
            checker.expect(got == want,
                           std::string("fig12 ") + label[i] + " P " + got + " vs " + want);
        }
    }

    std::vector<Scenario> scenarios_;
    std::vector<SweepConfig> configs_;
    std::mt19937 order_rng_;
    std::vector<Searched> searched_;
    std::optional<explore::TradeoffCurve> fig12_;
};

// ---- synthetic_search -------------------------------------------------

/// The seeded stream of synthetic models: 3 sensors and 3 functional
/// layers of kSearchWidth (the library's default shape), with
/// kExpandedNodes functional nodes drawn for expansion.  A 30 s run
/// visits ~200 of them, so its median is over many draws, not a few:
/// with EcoTwin-sized layers of 4 a run held ~90 searches and the median
/// moved 9% from seed to seed.
constexpr std::size_t kStreamLength = 256;
constexpr std::size_t kSearchWidth = 3;
constexpr std::size_t kExpandedNodes = 3;

struct StreamItem {
    ArchitectureModel model;
    std::vector<std::string> nodes;
};

StreamItem synthetic_item(std::uint32_t seed, std::size_t width) {
    scenarios::SyntheticOptions so;
    so.seed = seed;
    so.sensors = 3;
    so.layers = 3;
    so.width = width;
    StreamItem item{scenarios::synthetic_model(so), {}};
    std::vector<std::string> functional;
    for (std::size_t l = 0; l < so.layers; ++l) {
        for (std::size_t w = 0; w < so.width; ++w) {
            functional.push_back("f" + std::to_string(l) + "_" + std::to_string(w));
        }
    }
    std::mt19937 rng(seed);
    for (std::size_t i = 0; i < kExpandedNodes; ++i) {
        const std::size_t pick = i + rng() % (functional.size() - i);
        std::swap(functional[i], functional[pick]);
        item.nodes.push_back(functional[i]);
    }
    return item;
}

class SyntheticSearch final : public Workload {
public:
    explicit SyntheticSearch(std::uint32_t seed) : order_(kStreamLength, sub_seed(seed, 0)) {
        for (std::size_t k = 0; k < kStreamLength; ++k) {
            stream_.push_back(synthetic_item(sub_seed(seed, k + 1), kSearchWidth));
        }
    }

    void pass(PassRecord& rec) override {
        const StreamItem& item = stream_[order_.next()];
        explore::ParetoTracker tracker;
        explore::ExplorationOptions options;
        options.front_tracker = &tracker;
        explore::ExplorationResult flow;
        {
            const Call call(rec, Layer::ExploreFlowMs, "run_exploration");
            flow = explore::run_exploration(item.model, item.nodes, options);
        }
        rec[Layer::FtreeDagNodes] = static_cast<double>(flow.curve.back().ft_dag_nodes);
        rec[Layer::BddNodes] = static_cast<double>(flow.curve.back().bdd_nodes);
        engine::EvalEngine fresh;
        explore::MappingSearchOptions so;
        so.max_nodes_per_resource = 3;
        so.front_tracker = &tracker;
        searched_ = Searched{std::move(flow.final_model), {}, so.metric};
        {
            const Call call(rec, Layer::ExploreSearchMs, "search_mapping");
            searched_.result = explore::search_mapping(searched_.model, so, fresh);
        }
        SearchTotals search;
        search.add(searched_.result);
        search.record(rec);
        EngineTotals eng;
        eng.add(flow.engine_stats, fresh.threads());
        eng.add(fresh.stats(), fresh.threads());
        eng.record(rec);
        rec[Layer::FrontHv] = normalised_hypervolume(tracker.front(), flow.curve.front());
    }

    void check(Checker& checker) override {
        check_search(checker, searched_, "synthetic_search " + searched_.model.name());
    }

    /// One pass's time spans 3x over the stream; six average it out.
    [[nodiscard]] std::size_t warm_up_passes() const override { return 6; }

private:
    std::vector<StreamItem> stream_;
    Cycle order_;
    Searched searched_;
};

// ---- analyze_corpus ---------------------------------------------------

/// Seeded synthetic models in the corpus, EcoTwin-sized (3 sensors, 3
/// functional layers of 4: 31 application nodes over 3 shared zones).
/// A pass assesses the whole corpus, so its time sums over every draw
/// instead of landing on whichever model sits at the median of a mixed
/// stream.
constexpr std::size_t kCorpusSynthetic = 48;
constexpr std::size_t kCorpusWidth = 4;

/// Point B of the paper flow: every listed node expanded, no
/// connect/reduce, no mapping optimisation.
ArchitectureModel max_expansion(const ArchitectureModel& m, const std::vector<std::string>& nodes) {
    explore::ExplorationOptions options;
    options.run_connect_reduce = false;
    options.run_mapping_optimization = false;
    return explore::run_exploration(m, nodes, options).final_model;
}

/// What one pass produced for one corpus model.
struct Assessment {
    ArchitectureModel model;
    double probability = 0.0;
    analysis::SimulationResult sim{};
};

class AnalyzeCorpus final : public Workload {
public:
    explicit AnalyzeCorpus(std::uint32_t seed) {
        std::vector<ArchitectureModel> models = {
            scenarios::fig3_camera_gps_fusion(),
            scenarios::fig3_with_shared_ecu_ccf(),
            scenarios::chain_1in_1out(),
            scenarios::chain_1in_2out(),
            scenarios::chain_3in_3out(),
            scenarios::chain_two_stages(),
            scenarios::ecotwin_lateral_control(),
            max_expansion(scenarios::ecotwin_lateral_control(), scenarios::ecotwin_decision_nodes()),
            scenarios::ecotwin_longitudinal_control(),
            max_expansion(scenarios::ecotwin_longitudinal_control(),
                          scenarios::longitudinal_decision_nodes()),
        };
        for (std::size_t k = 0; k < kCorpusSynthetic; ++k) {
            const StreamItem item = synthetic_item(sub_seed(seed, k + 1), kCorpusWidth);
            models.push_back(explore::run_exploration(item.model, item.nodes).final_model);
        }
        for (const ArchitectureModel& m : models) texts_.push_back(io::to_json(m).dump());
        outs_.resize(texts_.size());
        references_.resize(texts_.size());
    }

    void pass(PassRecord& rec) override {
        double parsed_kb = 0.0;
        double trials = 0.0;
        for (std::size_t i = 0; i < texts_.size(); ++i) {
            assess(texts_[i], outs_[i], rec);
            parsed_kb += static_cast<double>(texts_[i].size()) / 1e3;
            trials += static_cast<double>(outs_[i].sim.trials);
        }
        rec[Layer::IoParseMbPerS] = ratio(parsed_kb, rec[Layer::IoParseMs]);
        rec[Layer::AnalysisSimTrialsPerS] = ratio(trials * 1e3, rec[Layer::AnalysisSimMs]);
    }

    void check(Checker& checker) override {
        for (std::size_t i = 0; i < outs_.size(); ++i) check_one(checker, outs_[i], references_[i]);
    }

private:
    /// What `asilkit analyze/lint/ccf/tolerance/simulate --is` run on one
    /// model given as JSON text.
    static void assess(const std::string& text, Assessment& out, PassRecord& rec) {
        ArchitectureModel m;
        {
            const Call call(rec, Layer::IoParseMs, "model_from_json");
            m = io::model_from_json(io::Json::parse(text));
        }
        {
            const Call call(rec, Layer::ModelValidateMs, "validate");
            (void)validate(m);
        }
        {
            const Call call(rec, Layer::LintRunMs, "run_lint");
            (void)lint::run_lint(m);
        }
        {
            const Call call(rec, Layer::AnalysisProbabilityMs, "analyze_failure_probability");
            const analysis::ProbabilityResult r = analysis::analyze_failure_probability(m);
            out.probability = r.failure_probability;
            rec[Layer::FtreeDagNodes] += static_cast<double>(r.ft_stats.dag_nodes);
            rec[Layer::BddNodes] += static_cast<double>(r.bdd_nodes);
        }
        {
            const Call call(rec, Layer::CostTotalMs, "total_cost");
            (void)cost::total_cost(m, cost::CostMetric::exponential_metric1());
        }
        {
            const Call call(rec, Layer::AnalysisCcfMs, "analyze_ccf");
            (void)analysis::analyze_ccf(m);
        }
        {
            const Call call(rec, Layer::AnalysisToleranceMs, "analyze_fault_tolerance");
            const analysis::FaultToleranceReport r = analysis::analyze_fault_tolerance(m);
            for (const std::size_t n : r.cut_sets_by_order) {
                rec[Layer::AnalysisCutSets] += static_cast<double>(n);
            }
        }
        {
            const Call call(rec, Layer::AnalysisSimMs, "simulate_failure_probability");
            analysis::SimulationOptions so;
            so.importance_sampling = true;
            out.sim = analysis::simulate_failure_probability(m, so);
        }
        rec[Layer::AnalysisSimEss] += out.sim.ess;
        out.model = std::move(m);
    }

    static void check_one(Checker& checker, const Assessment& out,
                          std::optional<std::pair<double, double>>& ref) {
        const std::string what = "analyze_corpus " + out.model.name();
        if (ref) {
            checker.expect(out.probability == ref->first && out.sim.estimate == ref->second,
                           what + ": repeat pass reproduces P and the Monte Carlo estimate");
            return;
        }
        // First pass over this model: the independent evaluators.
        ref.emplace(out.probability, out.sim.estimate);
        const double p = out.probability;
        checker.expect(std::fabs(out.sim.estimate - p) <= 4.0 * out.sim.std_error,
                       what + ": Monte Carlo estimate within 4 standard errors of exact P");
        const ftree::FaultTree tree = ftree::build_fault_tree(out.model).tree;
        const double bound =
            analysis::cut_set_probability_bound(tree, analysis::minimal_cut_sets(tree));
        checker.expect(bound >= p * (1.0 - 1e-12), what + ": cut-set bound >= exact P");
    }

    std::vector<std::string> texts_;
    std::vector<Assessment> outs_;
    /// (P, Monte Carlo estimate) of each model's first pass.
    std::vector<std::optional<std::pair<double, double>>> references_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint32_t seed) {
    if (name == "eco_sweep") return std::make_unique<EcoSweep>(seed);
    if (name == "synthetic_search") return std::make_unique<SyntheticSearch>(seed);
    if (name == "analyze_corpus") return std::make_unique<AnalyzeCorpus>(seed);
    return nullptr;
}

}  // namespace bench_e2e
