#include "ftree/cft.h"

#include <cstring>
#include <string_view>
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

/// Deterministic string fold (std::hash is implementation-defined, and a
/// fingerprint should not drift across standard libraries).
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
    // Inport wiring: the in-order predecessor list is part of the key,
    // because the node's failure gate ORs its inputs' gates in exactly
    // this order — a connectivity edit moves the sink's key.
    for (const NodeId p : m.app().predecessors(n)) {
        h = hash::combine(h, 0x70726564ull /* "pred" */);
        h = hash::combine(h, p.value());
    }
    // Intrinsic events: resolved rates, not table identity, so a custom
    // rate table or a lambda_override moves exactly the keys of the
    // nodes whose events change.
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

IncrementalTreeBuilder::Prepared IncrementalTreeBuilder::prepare(const ArchitectureModel& m,
                                                                 const FtBuildOptions& options) {
    const obs::ObsSpan span("assemble", "ftree");
    static obs::Counter& memo_hits = obs::Registry::global().counter("ftree.memo_hits");

    // The composition fingerprint folds one fragment key per component
    // in node-id order, so it covers the node set, every component's
    // events and the full edge wiring.
    std::uint64_t composition = hash::combine(0x636F6D70ull /* "comp" */, option_bits(options));
    for (const NodeId n : m.app().node_ids()) {
        composition = hash::combine(composition, n.value());
        composition = hash::combine(composition, fragment_key(m, n, options));
    }

    last_memo_hit_ = false;
    if (const auto it = memo_.find(composition); it != memo_.end()) {
        // Steady state: this exact composition was generated before —
        // the canonical tree, its hashes and its module decomposition
        // are reused by reference; zero gates are constructed.
        last_memo_hit_ = true;
        memo_hits.inc();
        return it->second;
    }

    FtBuildResult built = build_fault_tree(m, options);
    Prepared p;
    p.stats = built.tree.stats();
    p.warnings = std::move(built.warnings);
    p.approximated_blocks = built.approximated_blocks;
    p.cycles_cut = built.cycles_cut;
    p.canonical = std::make_shared<const FaultTree>(canonical_form(built.tree));
    p.structural_hash = p.canonical->structural_hash();
    p.modules = std::make_shared<const ModuleDecomposition>(find_modules(*p.canonical));

    while (memo_.size() >= kMemoCapacity) {
        memo_.erase(memo_order_.front());
        memo_order_.pop_front();
    }
    memo_.emplace(composition, p);
    memo_order_.push_back(composition);
    return p;
}

}  // namespace asilkit::ftree
