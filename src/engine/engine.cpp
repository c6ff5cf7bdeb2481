#include "engine/engine.h"

#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include "core/hash.h"
#include "obs/trace.h"

namespace asilkit::engine {
namespace {

[[nodiscard]] std::uint64_t double_bits(double d) noexcept {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

void fill_from_value(analysis::ProbabilityResult& result, const analysis::TreeEvaluation& value) {
    result.failure_probability = value.failure_probability;
    result.bdd_nodes = value.bdd_nodes;
    result.bdd_total_nodes = value.bdd_total_nodes;
    result.variables = value.variables;
    result.modules = value.modules;
}

}  // namespace

EvalEngine::EvalEngine(const EngineOptions& options)
    : pool_(core::resolve_thread_count(options.threads)),
      analyze_calls_(obs::Registry::global().counter("engine.analyze_calls")),
      tree_hits_(obs::Registry::global().counter("engine.tree_hits")),
      tree_misses_(obs::Registry::global().counter("engine.tree_misses")) {}

EvalEngine::Stats EvalEngine::stats() const {
    Stats s;
    s.analyze_calls = analyze_calls_.local.value();
    s.tree_hits = tree_hits_.local.value();
    s.tree_misses = tree_misses_.local.value();
    s.ftree_memo_hits = ftree_memo_hits_.value();
    return s;
}

ftree::IncrementalTreeBuilder& EvalEngine::ftree_lane() {
    const std::thread::id id = std::this_thread::get_id();
    const core::MutexLock lock(ftree_lanes_mutex_);
    std::unique_ptr<ftree::IncrementalTreeBuilder>& slot = ftree_lanes_[id];
    if (slot == nullptr) slot = std::make_unique<ftree::IncrementalTreeBuilder>();
    return *slot;
}

EvalEngine::PreparedModel EvalEngine::prepare(const ArchitectureModel& m,
                                              const analysis::ProbabilityOptions& options) {
    analyze_calls_.inc();

    // The engine evaluates the canonical form of the tree: gate children
    // sorted by a structural subtree hash.  AND/OR commute, so the
    // probability is unchanged — but candidate architectures that differ
    // only by a symmetry (mirror merges in redundant branches, sibling
    // chains of a sensor fan) collapse onto the SAME canonical tree and
    // therefore the same memo key, the same module decomposition, the
    // same BDD variable orders, and bit-identical arithmetic.  That is
    // what makes a memo hit safe to substitute for a fresh evaluation
    // at any thread count.  The thread's builder generates the tree
    // with build_fault_tree, or serves a repeat composition from its
    // finished-tree memo, so the result matches
    // analysis::analyze_failure_probability.
    ftree::IncrementalTreeBuilder& lane = ftree_lane();
    ftree::IncrementalTreeBuilder::Prepared prep =
        lane.prepare(m, analysis::fault_tree_options(options));
    if (lane.last_memo_hit()) ftree_memo_hits_.inc();
    PreparedModel p;
    p.result.ft_stats = prep.stats;
    p.result.approximated_blocks = prep.approximated_blocks;
    p.result.cycles_cut = prep.cycles_cut;
    p.result.warnings = std::move(prep.warnings);
    p.canonical = std::move(prep.canonical);
    p.modules = std::move(prep.modules);
    p.tree_key = hash::combine(prep.structural_hash, double_bits(options.mission_hours));
    return p;
}

void EvalEngine::finish(PreparedModel& p, const analysis::ProbabilityOptions& options) {
    {
        const core::MutexLock lock(memo_mutex_);
        if (const auto it = memo_.find(p.tree_key); it != memo_.end()) {
            // The stored value is the bitwise evaluation of this
            // canonical tree — identical to what re-evaluating would
            // produce.
            tree_hits_.inc();
            fill_from_value(p.result, it->second);
            return;
        }
    }
    tree_misses_.inc();

    // Tree miss: the one evaluation path, on the decomposition the tree
    // builder carried over with the tree.  Concurrent misses on one key
    // (separate analyze calls) compute the same value; the first insert
    // wins.
    const analysis::TreeEvaluation value =
        analysis::modular_probability(*p.canonical, options.mission_hours, p.modules.get());
    fill_from_value(p.result, value);
    const core::MutexLock lock(memo_mutex_);
    memo_.emplace(p.tree_key, value);
}

analysis::ProbabilityResult EvalEngine::analyze(const ArchitectureModel& m,
                                                const analysis::ProbabilityOptions& options) {
    const obs::ObsSpan span("analyze", "engine");
    static obs::Histogram& latency =
        obs::Registry::global().histogram("engine.analyze_ns", obs::latency_bounds_ns());
    const obs::ScopedTimer timer(latency);
    PreparedModel p = prepare(m, options);
    finish(p, options);
    return std::move(p.result);
}

std::vector<analysis::ProbabilityResult> EvalEngine::analyze_batch(
    std::span<const ArchitectureModel* const> models,
    const analysis::ProbabilityOptions& options) {
    const obs::ObsSpan span("analyze_batch", "engine", "batch_size",
                            static_cast<double>(models.size()));

    // Phase A (parallel): model -> canonical tree and key.  All memo
    // traffic waits for phase C, so the leader/follower split below is
    // a pure function of the batch — deterministic at any thread count.
    std::vector<std::optional<PreparedModel>> prepared(models.size());
    pool_.parallel_for(models.size(), [&](std::size_t i) {
        if (models[i] != nullptr) prepared[i] = prepare(*models[i], options);
    });

    // Phase B (serial, input order): the first model of each tree key
    // leads; a follower replays its leader, a tree hit in all but name.
    std::unordered_map<std::uint64_t, std::size_t> leader_of_key;
    std::vector<std::pair<std::size_t, std::size_t>> followers;  // (model, leader)
    std::vector<std::size_t> leaders;
    for (std::size_t i = 0; i < prepared.size(); ++i) {
        if (!prepared[i].has_value()) continue;
        if (const auto it = leader_of_key.find(prepared[i]->tree_key);
            it != leader_of_key.end()) {
            followers.emplace_back(i, it->second);
        } else {
            leader_of_key.emplace(prepared[i]->tree_key, i);
            leaders.push_back(i);
        }
    }

    // Phase C (parallel over leaders): memo lookups and evaluation.
    pool_.parallel_for(leaders.size(),
                       [&](std::size_t u) { finish(*prepared[leaders[u]], options); });

    for (const auto& [i, leader] : followers) {
        tree_hits_.inc();
        const analysis::ProbabilityResult& r = prepared[leader]->result;
        fill_from_value(prepared[i]->result,
                        analysis::TreeEvaluation{r.failure_probability, r.bdd_nodes,
                                                 r.bdd_total_nodes, r.variables, r.modules});
    }

    std::vector<analysis::ProbabilityResult> results(models.size());
    for (std::size_t i = 0; i < prepared.size(); ++i) {
        if (prepared[i].has_value()) results[i] = std::move(prepared[i]->result);
    }
    return results;
}

}  // namespace asilkit::engine
