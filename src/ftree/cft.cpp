#include "ftree/cft.h"

#include <cstring>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "core/hash.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace asilkit::ftree {
namespace {

[[nodiscard]] std::uint64_t double_bits(double d) noexcept {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

/// Deterministic string fold (std::hash is implementation-defined; the
/// fragment keys feed bench counters that should not drift across
/// standard libraries).
[[nodiscard]] std::uint64_t string_hash(std::string_view s) noexcept {
    std::uint64_t h = hash::combine(0x737472ull /* "str" */, s.size());
    for (const char c : s) h = hash::combine(h, static_cast<unsigned char>(c));
    return h;
}

[[nodiscard]] std::uint64_t option_bits(const FtBuildOptions& o) noexcept {
    return (o.approximate ? 1u : 0u) | (o.include_location_events ? 2u : 0u) |
           (o.include_qm_actuators ? 4u : 0u);
}

}  // namespace

std::uint64_t fragment_key(const ArchitectureModel& m, NodeId n, const FtBuildOptions& options) {
    const AppNode& node = m.app().node(n);
    std::uint64_t h = hash::combine(0x66726167ull /* "frag" */, option_bits(options));
    h = hash::combine(h, string_hash(node.name));
    h = hash::combine(h, static_cast<std::uint64_t>(node.kind));
    h = hash::combine(h, static_cast<std::uint64_t>(node.asil.level));
    // Inport wiring: the in-order predecessor list is part of the
    // fragment, because the node's failure gate ORs its inputs' gates in
    // exactly this order — a connectivity edit dirties the sink.
    for (const NodeId p : m.app().predecessors(n)) {
        h = hash::combine(h, 0x70726564ull /* "pred" */);
        h = hash::combine(h, p.value());
    }
    // Intrinsic events: resolved rates, not table identity, so a custom
    // rate table or a lambda_override dirties exactly the nodes whose
    // events change.
    for (const ResourceId r : m.mapped_resources(n)) {
        const Resource& res = m.resources().node(r);
        h = hash::combine(h, string_hash(res.name));
        h = hash::combine(h, double_bits(options.rates.resource_rate(res)));
        if (options.include_location_events) {
            for (const LocationId p : m.resource_locations(r)) {
                const Location& loc = m.physical().node(p);
                h = hash::combine(h, string_hash(loc.name));
                h = hash::combine(h, double_bits(options.rates.location_rate(loc)));
            }
        }
    }
    return h;
}

ComponentFragment build_fragment(const ArchitectureModel& m, NodeId n,
                                 const FtBuildOptions& options) {
    ComponentFragment f;
    f.key = fragment_key(m, n, options);
    const auto& resources = m.mapped_resources(n);
    f.no_resource = resources.empty();
    for (const ResourceId r : resources) {
        const Resource& res = m.resources().node(r);
        f.events.push_back(BasicEvent{std::string(kResourceEventPrefix) + res.name,
                                      options.rates.resource_rate(res)});
        if (options.include_location_events) {
            for (const LocationId p : m.resource_locations(r)) {
                const Location& loc = m.physical().node(p);
                f.events.push_back(BasicEvent{std::string(kLocationEventPrefix) + loc.name,
                                              options.rates.location_rate(loc)});
            }
        }
    }
    return f;
}

std::vector<NodeId> dirty_fragments(const ArchitectureModel& before, const ArchitectureModel& after,
                                    const FtBuildOptions& options) {
    std::unordered_map<std::uint32_t, std::uint64_t> before_keys;
    for (const NodeId n : before.app().node_ids()) {
        before_keys.emplace(n.value(), fragment_key(before, n, options));
    }
    std::vector<NodeId> dirty;
    std::unordered_set<std::uint32_t> seen;
    for (const NodeId n : after.app().node_ids()) {
        seen.insert(n.value());
        const auto it = before_keys.find(n.value());
        if (it == before_keys.end() || it->second != fragment_key(after, n, options)) {
            dirty.push_back(n);
        }
    }
    for (const NodeId n : before.app().node_ids()) {
        if (!seen.contains(n.value())) dirty.push_back(n);
    }
    return dirty;
}

IncrementalTreeBuilder::Prepared IncrementalTreeBuilder::prepare(const ArchitectureModel& m,
                                                                 const FtBuildOptions& options) {
    const obs::ObsSpan span("assemble", "ftree");
    static obs::Counter& built_counter = obs::Registry::global().counter("ftree.fragment.built");
    static obs::Counter& reused_counter = obs::Registry::global().counter("ftree.fragment.reused");
    static obs::Counter& memo_hits = obs::Registry::global().counter("ftree.memo_hits");
    last_ = {};

    // Delta pass: one fragment key per component, against the cache of
    // the last assembled candidate.  The composition fingerprint folds
    // the keys in node-id order, so it covers the node set, every
    // fragment's content and the full edge wiring.
    const std::vector<NodeId> ids = m.app().node_ids();
    std::vector<std::uint64_t> keys;
    keys.reserve(ids.size());
    std::uint64_t composition = hash::combine(0x636F6D70ull /* "comp" */, option_bits(options));
    for (const NodeId n : ids) {
        const std::uint64_t key = fragment_key(m, n, options);
        keys.push_back(key);
        composition = hash::combine(composition, n.value());
        composition = hash::combine(composition, key);
    }

    if (const auto it = memo_.find(composition); it != memo_.end()) {
        // Steady state: this exact composition was generated before —
        // the canonical tree, its hashes and its module decomposition
        // are reused by reference; zero gates are constructed.
        last_.fragments_reused = ids.size();
        last_.memo_hit = true;
        reused_counter.add(ids.size());
        memo_hits.inc();
        return it->second;
    }

    // Dirty fragments only: regenerate where the key drifted, keep the
    // rest by reference.
    for (std::size_t i = 0; i < ids.size(); ++i) {
        ComponentFragment& slot = fragments_[ids[i].value()];
        if (slot.key == keys[i] && keys[i] != 0) {
            ++last_.fragments_reused;
        } else {
            slot = build_fragment(m, ids[i], options);
            ++last_.fragments_built;
        }
    }
    built_counter.add(last_.fragments_built);
    reused_counter.add(last_.fragments_reused);

    FtBuildResult built = assemble_fault_tree(m, options, [this](NodeId n) {
        const auto it = fragments_.find(n.value());
        return it == fragments_.end() ? nullptr : &it->second;
    });

    Prepared p;
    p.stats = built.tree.stats();
    p.warnings = std::move(built.warnings);
    p.approximated_blocks = built.approximated_blocks;
    p.cycles_cut = built.cycles_cut;
    p.canonical = std::make_shared<const FaultTree>(canonical_form(built.tree));
    p.structural_hash = p.canonical->structural_hash();
    p.modules = std::make_shared<const ModuleDecomposition>(find_modules(*p.canonical));

    if (options_.memo_capacity > 0) {
        while (memo_.size() >= options_.memo_capacity && !memo_order_.empty()) {
            memo_.erase(memo_order_.front());
            memo_order_.pop_front();
        }
        memo_.emplace(composition, p);
        memo_order_.push_back(composition);
    }
    return p;
}

}  // namespace asilkit::ftree
