#include "engine/engine.h"

#include <cstring>
#include <utility>

#include "core/hash.h"
#include "obs/metrics.h"
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

analysis::ProbabilityResult EvalEngine::analyze(const ArchitectureModel& m,
                                                const analysis::ProbabilityOptions& options) {
    const obs::ObsSpan span("analyze", "engine");
    static obs::Counter& analyze_calls = obs::Registry::global().counter("engine.analyze_calls");
    static obs::Counter& tree_hits = obs::Registry::global().counter("engine.tree_hits");
    static obs::Counter& tree_misses = obs::Registry::global().counter("engine.tree_misses");
    static obs::Histogram& latency =
        obs::Registry::global().histogram("engine.analyze_ns", obs::latency_bounds_ns());
    const obs::ScopedTimer timer(latency);
    ++stats_.analyze_calls;
    analyze_calls.inc();

    // The engine evaluates the canonical form of the tree: gate children
    // sorted by a structural subtree hash.  AND/OR commute, so the
    // probability is unchanged — but candidate architectures that differ
    // only by a symmetry (mirror merges in redundant branches, sibling
    // chains of a sensor fan) collapse onto the SAME canonical tree and
    // therefore the same memo key, the same module decomposition, the
    // same BDD variable orders, and bit-identical arithmetic.  That is
    // what makes a memo hit safe to substitute for a fresh evaluation.
    // The builder generates the tree with build_fault_tree, or serves a
    // repeat composition from its finished-tree memo, so the result
    // matches analysis::analyze_failure_probability.
    ftree::IncrementalTreeBuilder::Prepared prep =
        builder_.prepare(m, analysis::fault_tree_options(options));
    if (builder_.last_memo_hit()) ++stats_.ftree_memo_hits;
    analysis::ProbabilityResult result;
    result.ft_stats = prep.stats;
    result.approximated_blocks = prep.approximated_blocks;
    result.cycles_cut = prep.cycles_cut;
    result.warnings = std::move(prep.warnings);

    const std::uint64_t key =
        hash::combine(prep.structural_hash, double_bits(options.mission_hours));
    if (const auto it = memo_.find(key); it != memo_.end()) {
        // The stored value is the bitwise evaluation of this canonical
        // tree — identical to what re-evaluating would produce.
        ++stats_.tree_hits;
        tree_hits.inc();
        fill_from_value(result, it->second);
        return result;
    }
    ++stats_.tree_misses;
    tree_misses.inc();

    // Tree miss: the one evaluation path, on the decomposition the tree
    // builder carried over with the tree.
    const analysis::TreeEvaluation value =
        analysis::modular_probability(*prep.canonical, options.mission_hours, prep.modules.get());
    fill_from_value(result, value);
    memo_.emplace(key, value);
    return result;
}

}  // namespace asilkit::engine
