// Heap allocations of an engine's tree miss.  This program replaces the
// global operator new and operator delete with counting versions, so it
// is a test binary of its own.
//
// A warm engine evaluates a miss on its one workspace: the BDD manager
// is reset for each module, and the build, canonical-form and module
// buffers keep their capacity.  What a miss still allocates is what it
// hands out or stores, and the budget counts exactly that:
//   * per gate of the raw tree, its child list, its name when the name
//     outgrows the short-string buffer, and its canonical copy's child
//     list;
//   * per basic event of the raw tree, its name when the name outgrows
//     that buffer: the tree keeps no name index;
//   * kFixed for what does not grow with the tree: the composition
//     key's fragment array and its two node lists, the two trees' node
//     arrays, the builder's two node lists, actuator lists and walk
//     stack, the raw tree's stats(), the module roots' and the results'
//     arrays, and the two memo entries.  That is 24 on every miss here,
//     and the memos' occasional rehashes add up to 3 more; kFixed
//     leaves 2 to spare.
// There is no per-module term: the decomposition is one array of roots.
// A raw tree with a name index (a node per event, a copy of each long
// name, a bucket array) and a module walk that kept a gate -> module
// map makes 156 to 159 allocations here, against a budget of 115, and
// fails; so does a miss that made a manager per module, rebuilt its
// scratch arrays or hashed every BDD node into a set to count it
// (about 430).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "explore/driver.h"
#include "explore/mapping_search.h"
#include "ftree/builder.h"
#include "scenarios/synthetic.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_allocation(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_allocation(size); }
void* operator new[](std::size_t size) { return counted_allocation(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace asilkit {
namespace {

constexpr std::size_t kFixed = 29;

bool owns_heap_buffer(const std::string& s) { return s.size() > std::string().capacity(); }

/// The allocations a miss hands out or stores for a tree whose raw form
/// is `raw`, kFixed included.
std::size_t budget(const ftree::FaultTree& raw) {
    std::size_t n = kFixed;
    for (const ftree::Gate& g : raw.gates()) n += 2 + (owns_heap_buffer(g.name) ? 1 : 0);
    for (const ftree::BasicEvent& e : raw.basic_events()) n += owns_heap_buffer(e.name) ? 1 : 0;
    return n;
}

/// The capacity-3 mapping search's first candidates run on a seeded
/// synthetic model after the BB flow has expanded three of its
/// functional nodes: 81 merges, each a composition the engine has not
/// seen.
ArchitectureModel flow_final() {
    scenarios::SyntheticOptions options;
    options.seed = 7;
    return explore::run_exploration(scenarios::synthetic_model(options), {"f0_0", "f1_1", "f2_2"})
        .final_model;
}

TEST(AllocationBudget, WarmEngineTreeMissStaysWithinBudget) {
    ArchitectureModel m = flow_final();
    explore::MappingSearchOptions search;
    search.max_nodes_per_resource = 3;
    const auto moves = explore::detail::merge_candidates(m, search);
    ASSERT_FALSE(moves.empty());

    engine::EvalEngine engine;
    (void)engine.analyze(m, {});  // the warm-up miss
    std::size_t misses = 0;
    for (const auto& [into, from] : moves) {
        const explore::detail::ScopedMerge trial(m, into, from);
        const ftree::FaultTree raw = ftree::build_fault_tree(m).tree;
        const engine::EvalEngine::Stats before = engine.stats();
        const std::size_t start = g_allocations.load(std::memory_order_relaxed);
        const analysis::ProbabilityResult result = engine.analyze(m, {});
        const std::size_t made = g_allocations.load(std::memory_order_relaxed) - start;
        const engine::EvalEngine::Stats after = engine.stats();
        ASSERT_EQ(after.ftree_memo_hits, before.ftree_memo_hits) << "not a composition miss";
        if (after.tree_misses == before.tree_misses) continue;
        ++misses;
        EXPECT_LE(made, budget(raw))
            << m.resources().node(into).name << " <- " << m.resources().node(from).name << ": "
            << raw.gates().size() << " gates, " << raw.basic_events().size() << " events, "
            << result.modules << " modules";
    }
    EXPECT_GE(misses, moves.size() / 2);
}

}  // namespace
}  // namespace asilkit
