#include "engine/engine.h"

#include <cstring>
#include <utility>

#include "core/hash.h"
#include "ftree/fault_tree.h"
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

}  // namespace

analysis::ProbabilityResult EvalEngine::analyze(const ArchitectureModel& m,
                                                const analysis::ProbabilityOptions& options) {
    const obs::ObsSpan span("analyze", "engine");
    static obs::Counter& analyze_calls = obs::Registry::global().counter("engine.analyze_calls");
    static obs::Counter& tree_hits = obs::Registry::global().counter("engine.tree_hits");
    static obs::Counter& tree_misses = obs::Registry::global().counter("engine.tree_misses");
    static obs::Counter& memo_hits = obs::Registry::global().counter("ftree.memo_hits");
    ++stats_.analyze_calls;
    analyze_calls.inc();

    // The engine evaluates the canonical form of the tree: gate children
    // sorted by a structural subtree hash.  AND/OR commute, so the
    // probability is unchanged — but candidate architectures that differ
    // only by a symmetry (mirror merges in redundant branches, sibling
    // chains of a sensor fan) collapse onto the SAME canonical tree and
    // therefore the same tree key, the same module decomposition, the
    // same BDD variable orders, and bit-identical arithmetic.  That is
    // what makes a memo hit safe to substitute for a fresh evaluation.
    const std::uint64_t mission = double_bits(options.mission_hours);
    std::uint64_t composition = 0;
    std::uint64_t tree_key = 0;
    analysis::CanonicalBuild built;
    {
        const obs::ObsSpan assemble("assemble", "ftree");
        const ftree::FtBuildOptions build = analysis::fault_tree_options(options);
        composition = hash::combine(ftree::composition_key(m, build), mission);
        if (const auto it = results_.find(composition); it != results_.end()) {
            // Steady state: this exact composition was scored before,
            // and equal keys mean the same build_fault_tree input — the
            // stored result is what a rebuild would produce, with zero
            // gates constructed.
            ++stats_.ftree_memo_hits;
            memo_hits.inc();
            ++stats_.tree_hits;
            tree_hits.inc();
            return it->second;
        }
        built = analysis::build_canonical_tree(m, options, workspace_);
        tree_key = hash::combine(built.canonical.structural_hash(), mission);
    }

    analysis::ProbabilityResult& result = built.result;
    if (const auto it = evaluations_.find(tree_key); it != evaluations_.end()) {
        // A new composition with a known canonical tree: the stored
        // value is the bitwise evaluation of this tree.
        ++stats_.tree_hits;
        tree_hits.inc();
        analysis::set_evaluation(result, it->second);
    } else {
        ++stats_.tree_misses;
        tree_misses.inc();
        const analysis::TreeEvaluation value =
            analysis::modular_probability(built.canonical, options.mission_hours, workspace_);
        analysis::set_evaluation(result, value);
        evaluations_.emplace(tree_key, value);
    }
    results_.emplace(composition, result);
    return std::move(result);
}

const EvalEngine::RawCutSets& EvalEngine::minimal_cut_sets(const ArchitectureModel& m,
                                                           const ftree::FtBuildOptions& options) {
    static obs::Counter& hits = obs::Registry::global().counter("explore.cutset_memo_hits");
    const std::uint64_t key = ftree::composition_key(m, options);
    if (const auto it = cut_sets_.find(key); it != cut_sets_.end()) {
        hits.inc();
        return it->second;
    }
    const ftree::FaultTree tree = ftree::build_fault_tree(m, options, workspace_.build).tree;
    RawCutSets raw{analysis::minimal_cut_sets(tree), {}, {}};
    raw.lambdas.reserve(tree.basic_events().size());
    for (std::uint32_t e = 0; e < tree.basic_events().size(); ++e) {
        raw.event_index.emplace(tree.basic_events()[e].name, e);
        raw.lambdas.push_back(tree.basic_events()[e].lambda);
    }
    return cut_sets_.emplace(key, std::move(raw)).first->second;
}

}  // namespace asilkit::engine
