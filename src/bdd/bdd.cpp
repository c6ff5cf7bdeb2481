#include "bdd/bdd.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace asilkit::bdd {
namespace {

constexpr std::size_t kInitialTableCapacity = 1 << 10;  // power of two

/// Grow when a table passes ~70 % occupancy.
[[nodiscard]] constexpr bool over_load(std::size_t entries, std::size_t capacity) noexcept {
    return entries * 10 >= capacity * 7;
}

[[nodiscard]] constexpr std::uint64_t pack_pair(BddRef f, BddRef g) noexcept {
    return (static_cast<std::uint64_t>(f) << 32) | g;
}

}  // namespace

BddManager::BddManager(std::uint32_t variable_count) : variable_count_(variable_count) {
    reset(variable_count);
}

void BddManager::reset(std::uint32_t variable_count) {
    obs_tally_.nodes_created += nodes_.size() - std::min(nodes_.size(), obs_nodes_flushed_);
    obs_nodes_flushed_ = 2;
    variable_count_ = variable_count;
    nodes_.clear();
    nodes_.push_back(Node{variable_count_, kFalse, kFalse});  // terminal 0
    nodes_.push_back(Node{variable_count_, kTrue, kTrue});    // terminal 1
    // assign() keeps a grown table's storage but refills only the
    // initial slots: no more work than a fresh manager's tables.
    unique_.slots.assign(kInitialTableCapacity, kFalse);
    unique_.entries = 0;
    for (ApplyCache& cache : apply_cache_) {
        cache.slots.assign(kInitialTableCapacity, ApplyCache::Slot{});
        cache.entries = 0;
    }
}

BddRef BddManager::variable(std::uint32_t var) {
    if (var >= variable_count_) throw AnalysisError("bdd: variable index out of range");
    return make(var, kTrue, kFalse);
}

BddRef BddManager::make(std::uint32_t var, BddRef high, BddRef low) {
    if (high == low) return high;  // reduction rule
    return unique_lookup_or_insert(var, high, low);
}

BddRef BddManager::unique_lookup_or_insert(std::uint32_t var, BddRef high, BddRef low) {
    if (over_load(unique_.entries, unique_.slots.size())) unique_grow();
    const std::size_t mask = unique_.slots.size() - 1;
    std::size_t i = static_cast<std::size_t>(detail::mix_node_key(var, high, low)) & mask;
    for (;; i = (i + 1) & mask) {
        const BddRef ref = unique_.slots[i];
        if (ref == kFalse) break;  // empty slot: not present
        const Node& n = nodes_[ref];
        if (n.var == var && n.high == high && n.low == low) return ref;
    }
    const auto ref = static_cast<BddRef>(nodes_.size());
    nodes_.push_back(Node{var, high, low});
    unique_.slots[i] = ref;
    ++unique_.entries;
    return ref;
}

void BddManager::unique_grow() {
    ++obs_tally_.unique_resizes;
    obs::trace_instant("unique_grow", "bdd", "capacity",
                       static_cast<double>(unique_.slots.size() * 2));
    std::vector<BddRef> old = std::move(unique_.slots);
    unique_.slots.assign(old.size() * 2, kFalse);
    const std::size_t mask = unique_.slots.size() - 1;
    for (const BddRef ref : old) {
        if (ref == kFalse) continue;
        const Node& n = nodes_[ref];
        std::size_t i = static_cast<std::size_t>(detail::mix_node_key(n.var, n.high, n.low)) & mask;
        while (unique_.slots[i] != kFalse) i = (i + 1) & mask;
        unique_.slots[i] = ref;
    }
}

BddRef* BddManager::apply_slot(ApplyCache& cache, std::uint64_t key) {
    if (over_load(cache.entries, cache.slots.size())) apply_grow(cache);
    const std::size_t mask = cache.slots.size() - 1;
    std::size_t i = static_cast<std::size_t>(detail::mix64(key)) & mask;
    while (cache.slots[i].key != 0 && cache.slots[i].key != key) i = (i + 1) & mask;
    if (cache.slots[i].key == 0) {
        cache.slots[i].key = key;
        ++cache.entries;
    }
    return &cache.slots[i].result;
}

void BddManager::apply_grow(ApplyCache& cache) {
    ++obs_tally_.apply_resizes;
    obs::trace_instant("apply_grow", "bdd", "capacity",
                       static_cast<double>(cache.slots.size() * 2));
    std::vector<ApplyCache::Slot> old = std::move(cache.slots);
    cache.slots.assign(old.size() * 2, ApplyCache::Slot{});
    const std::size_t mask = cache.slots.size() - 1;
    for (const ApplyCache::Slot& s : old) {
        if (s.key == 0) continue;
        std::size_t i = static_cast<std::size_t>(detail::mix64(s.key)) & mask;
        while (cache.slots[i].key != 0) i = (i + 1) & mask;
        cache.slots[i] = s;
    }
}

BddRef BddManager::apply(BddOp op, BddRef f, BddRef g) {
    // Terminal cases.
    if (op == BddOp::Or) {
        if (f == kTrue || g == kTrue) return kTrue;
        if (f == kFalse) return g;
        if (g == kFalse) return f;
        if (f == g) return f;
    } else {
        if (f == kFalse || g == kFalse) return kFalse;
        if (f == kTrue) return g;
        if (g == kTrue) return f;
        if (f == g) return f;
    }
    // Both operations are commutative: canonicalise the cache key.  Both
    // operands are interior nodes here (>= 2), so the packed key is
    // nonzero and can use 0 as the empty-slot marker.
    const std::uint64_t key = pack_pair(std::min(f, g), std::max(f, g));
    ApplyCache& cache = apply_cache_[static_cast<std::size_t>(op)];
    // Plain (non-atomic) tallies on the hot path: a manager is
    // single-threaded, so these cost one register add each and are folded
    // into the global registry by flush_obs() at evaluation boundaries.
    ++obs_tally_.apply_lookups;
    {
        const std::size_t mask = cache.slots.size() - 1;
        std::size_t i = static_cast<std::size_t>(detail::mix64(key)) & mask;
        for (; cache.slots[i].key != 0; i = (i + 1) & mask) {
            if (cache.slots[i].key == key) {
                ++obs_tally_.apply_hits;
                return cache.slots[i].result;
            }
        }
    }

    const std::uint32_t vf = var_of(f);
    const std::uint32_t vg = var_of(g);
    const std::uint32_t v = std::min(vf, vg);
    // Paper Eq. 1 (X < Y): recurse into the smaller variable only;
    // Eq. 2 (X == Y): recurse into both cofactors.
    const BddRef f_high = vf == v ? nodes_[f].high : f;
    const BddRef f_low = vf == v ? nodes_[f].low : f;
    const BddRef g_high = vg == v ? nodes_[g].high : g;
    const BddRef g_low = vg == v ? nodes_[g].low : g;

    const BddRef high = apply(op, f_high, g_high);
    const BddRef low = apply(op, f_low, g_low);
    const BddRef result = make(v, high, low);
    // Insert after the recursion: the recursive calls may have grown the
    // cache, so the slot is located now (pointers would be stale).
    *apply_slot(cache, key) = result;
    return result;
}

BddRef BddManager::apply_not(BddRef f) {
    if (f == kFalse) return kTrue;
    if (f == kTrue) return kFalse;
    // Negation via Shannon expansion; memoised through the unique table
    // only (negation is rare in fault trees — used by importance
    // measures), so a local cache per call suffices.
    std::unordered_map<BddRef, BddRef> memo;
    std::function<BddRef(BddRef)> rec = [&](BddRef x) -> BddRef {
        if (x == kFalse) return kTrue;
        if (x == kTrue) return kFalse;
        if (auto it = memo.find(x); it != memo.end()) return it->second;
        const Node& n = nodes_[x];
        const BddRef r = make(n.var, rec(n.high), rec(n.low));
        memo.emplace(x, r);
        return r;
    };
    return rec(f);
}

double BddManager::probability(BddRef f, std::span<const double> var_probability) const {
    if (var_probability.size() != variable_count_) {
        throw AnalysisError("bdd: probability vector size != variable count");
    }
    // Children precede parents in the arena, so one bottom-up sweep up to
    // f covers every node f depends on.
    std::vector<double>& prob = sweep_probability_;
    prob.assign(std::max<std::size_t>(f + 1, 2), 0.0);
    prob[kTrue] = 1.0;
    for (std::size_t i = 2; i <= f; ++i) {
        const Node& n = nodes_[i];
        const double p = var_probability[n.var];
        prob[i] = p * prob[n.high] + (1.0 - p) * prob[n.low];
    }
    return prob[f];
}

std::size_t BddManager::node_count(BddRef f) const {
    if (is_terminal(f)) return 0;
    // Children precede parents, so a backward sweep from f has marked
    // every reachable node before it gets there.
    std::vector<std::uint8_t>& reached = sweep_reached_;
    reached.assign(f + std::size_t{1}, 0);
    reached[f] = 1;
    std::size_t count = 0;
    for (BddRef x = f; x > kTrue; --x) {
        if (reached[x] == 0) continue;
        ++count;
        reached[nodes_[x].high] = 1;
        reached[nodes_[x].low] = 1;
    }
    return count;
}

bool BddManager::evaluate(BddRef f, const std::vector<bool>& assignment) const {
    if (assignment.size() != variable_count_) {
        throw AnalysisError("bdd: assignment size != variable count");
    }
    BddRef x = f;
    while (!is_terminal(x)) {
        const Node& n = nodes_[x];
        x = assignment[n.var] ? n.high : n.low;
    }
    return x == kTrue;
}

BddManager::NodeView BddManager::node(BddRef f) const {
    if (is_terminal(f) || f >= nodes_.size()) {
        throw AnalysisError("bdd: node() on terminal or invalid ref");
    }
    const Node& n = nodes_[f];
    return NodeView{n.var, n.high, n.low};
}

void BddManager::flush_obs() const {
    static obs::Counter& lookups = obs::Registry::global().counter("bdd.apply_lookups");
    static obs::Counter& hits = obs::Registry::global().counter("bdd.apply_hits");
    static obs::Counter& unique_resizes = obs::Registry::global().counter("bdd.unique_resizes");
    static obs::Counter& apply_resizes = obs::Registry::global().counter("bdd.apply_resizes");
    static obs::Counter& nodes_created = obs::Registry::global().counter("bdd.nodes_created");
    static obs::Gauge& high_water = obs::Registry::global().gauge("bdd.node_high_water");
    static obs::Gauge& load_factor = obs::Registry::global().gauge("bdd.unique_load_factor");

    lookups.add(obs_tally_.apply_lookups);
    hits.add(obs_tally_.apply_hits);
    unique_resizes.add(obs_tally_.unique_resizes);
    apply_resizes.add(obs_tally_.apply_resizes);

    // Arena growth since the last flush or reset (the two terminals are
    // storage, not created nodes), plus what earlier resets discarded.
    const std::uint64_t created = obs_tally_.nodes_created + (nodes_.size() - obs_nodes_flushed_);
    if (created > 0) nodes_created.add(created);
    obs_nodes_flushed_ = nodes_.size();
    obs_tally_ = ObsTally{};
    high_water.set_max(static_cast<double>(size()));
    if (!unique_.slots.empty()) {
        load_factor.set(static_cast<double>(unique_.entries) /
                        static_cast<double>(unique_.slots.size()));
    }
}

}  // namespace asilkit::bdd
