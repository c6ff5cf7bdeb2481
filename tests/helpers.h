// Shared test utilities: brute-force fault-tree evaluation (ground truth
// for the BDD engine), plain MOCUS (ground truth for
// analysis::minimal_cut_sets), an exhaustive reference mapping search
// (ground truth for explore::search_mapping), a seeded random fault-tree
// generator for property tests, a seeded text mutator for fuzz tests, a
// setter for every location's rate, seeded synthetic flow finals and a
// seeded injector of common causes into their redundant blocks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "analysis/probability.h"
#include "cost/cost_analysis.h"
#include "explore/driver.h"
#include "explore/mapping_search.h"
#include "explore/pareto.h"
#include "ftree/fault_tree.h"
#include "model/architecture.h"
#include "model/blocks.h"
#include "model/resource.h"
#include "scenarios/synthetic.h"

namespace asilkit::testing {

/// Evaluates the tree under a complete basic-event truth assignment.
/// Empty gates are "no failure mode": false.
inline bool evaluate_fault_tree(const ftree::FaultTree& ft, ftree::FtRef node,
                                const std::vector<bool>& assignment) {
    if (node.kind == ftree::FtRef::Kind::Basic) return assignment[node.index];
    const ftree::Gate& g = ft.gate(node.index);
    if (g.children.empty()) return false;
    if (g.kind == ftree::GateKind::Or) {
        for (const ftree::FtRef& c : g.children) {
            if (evaluate_fault_tree(ft, c, assignment)) return true;
        }
        return false;
    }
    for (const ftree::FtRef& c : g.children) {
        if (!evaluate_fault_tree(ft, c, assignment)) return false;
    }
    return true;
}

/// Exact top-event probability by enumerating all 2^n assignments
/// (n = number of basic events; keep n <= 20).
inline double brute_force_probability(const ftree::FaultTree& ft, double mission_hours = 1.0) {
    const std::size_t n = ft.basic_events().size();
    std::vector<double> p(n);
    for (std::size_t i = 0; i < n; ++i) {
        p[i] = 1.0 - std::exp(-ft.basic_events()[i].lambda * mission_hours);
    }
    double total = 0.0;
    std::vector<bool> assignment(n);
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
        double weight = 1.0;
        for (std::size_t i = 0; i < n; ++i) {
            assignment[i] = (mask >> i) & 1u;
            weight *= assignment[i] ? p[i] : 1.0 - p[i];
        }
        if (weight > 0.0 && evaluate_fault_tree(ft, ft.top(), assignment)) total += weight;
    }
    return total;
}

/// Minimal cut sets of order <= max_order (at least 1) by plain MOCUS,
/// lexicographically sorted.  Gate by gate in index order (children come
/// first): an OR gate's family is its children's families together, an
/// AND gate's the full product of its children's families, one child at
/// a time (every union of a member of each side, dropped above
/// max_order), and every family is minimised by sorting it by order and
/// keeping each set that includes no set kept before it
/// (std::includes).  A gate with no children has no cut set.  Shares no
/// code with analysis::minimal_cut_sets, which factors what both sides
/// of a product share and keeps singletons as bits.
inline std::vector<std::vector<std::uint32_t>> reference_cut_sets(const ftree::FaultTree& ft,
                                                                  std::size_t max_order) {
    using Set = std::vector<std::uint32_t>;
    using Family = std::vector<Set>;
    const auto minimise = [](Family family) {
        std::sort(family.begin(), family.end(), [](const Set& a, const Set& b) {
            return a.size() != b.size() ? a.size() < b.size() : a < b;
        });
        family.erase(std::unique(family.begin(), family.end()), family.end());
        Family kept;
        for (Set& set : family) {
            const bool dominated = std::any_of(kept.begin(), kept.end(), [&](const Set& k) {
                return std::includes(set.begin(), set.end(), k.begin(), k.end());
            });
            if (!dominated) kept.push_back(std::move(set));
        }
        return kept;
    };
    std::vector<Family> families(ft.gates().size());
    const auto family_of = [&](ftree::FtRef c) {
        return c.kind == ftree::FtRef::Kind::Basic ? Family{Set{c.index}} : families[c.index];
    };
    for (std::size_t g = 0; g < ft.gates().size(); ++g) {
        const ftree::Gate& gate = ft.gates()[g];
        Family family;
        if (gate.kind == ftree::GateKind::Or) {
            for (const ftree::FtRef c : gate.children) {
                const Family child = family_of(c);
                family.insert(family.end(), child.begin(), child.end());
            }
        } else if (!gate.children.empty()) {
            family = {Set{}};  // the empty product
            for (const ftree::FtRef c : gate.children) {
                const Family child = family_of(c);
                Family next;
                for (const Set& a : family) {
                    for (const Set& b : child) {
                        Set u;
                        std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                                       std::back_inserter(u));
                        if (u.size() <= max_order) next.push_back(std::move(u));
                    }
                }
                family = minimise(std::move(next));
            }
        }
        families[g] = minimise(std::move(family));
    }
    Family top = family_of(ft.top());
    std::sort(top.begin(), top.end());
    return top;
}

struct ReferenceSearchResult {
    std::size_t merges = 0;
    double probability_before = 0.0;
    double cost_before = 0.0;
    double probability_after = 0.0;
    double cost_after = 0.0;
    std::vector<explore::TradeoffPoint> front;
};

/// The mapping search without any of its machinery: no engine, bound
/// context or in-place trial.  Each iteration scores every move of
/// explore::detail::merge_candidates on a merged copy with the plain
/// analysis and cost, keeps the first strictly better (P, then cost) in
/// index order and applies it, offering each accepted state to a
/// ParetoTracker.  search_mapping must walk the same way, bit for bit.
inline ReferenceSearchResult reference_search(ArchitectureModel& m,
                                              const explore::MappingSearchOptions& options) {
    using Objective = std::pair<double, double>;  // (P, cost), compared lexicographically
    const auto score = [&](const ArchitectureModel& s) {
        return Objective{
            analysis::analyze_failure_probability(s, options.probability).failure_probability,
            cost::total_cost(s, options.metric)};
    };
    explore::ParetoTracker tracker;
    const auto offer = [&](std::string label, const Objective& objective) {
        explore::TradeoffPoint point;
        point.label = std::move(label);
        point.failure_probability = objective.first;
        point.cost = objective.second;
        tracker.insert(std::move(point));
    };

    ReferenceSearchResult result;
    Objective current = score(m);
    result.probability_before = current.first;
    result.cost_before = current.second;
    offer("initial", current);
    for (std::size_t iteration = 0; iteration < options.max_iterations; ++iteration) {
        const auto moves = explore::detail::merge_candidates(m, options);
        std::optional<std::size_t> best_index;
        Objective best = current;
        for (std::size_t i = 0; i < moves.size(); ++i) {
            ArchitectureModel merged = m;
            explore::detail::apply_merge(merged, moves[i].first, moves[i].second);
            const Objective s = score(merged);
            if (s < best) {
                best = s;
                best_index = i;
            }
        }
        if (!best_index) break;
        const auto [into, from] = moves[*best_index];
        std::string label = std::string("merge#")
                                .append(std::to_string(result.merges + 1))
                                .append("(")
                                .append(m.resources().node(into).name)
                                .append("<-")
                                .append(m.resources().node(from).name)
                                .append(")");
        explore::detail::apply_merge(m, into, from);
        ++result.merges;
        current = best;
        offer(std::move(label), current);
    }
    result.probability_after = current.first;
    result.cost_after = current.second;
    result.front = tracker.front();
    return result;
}

/// 1-4 seeded edits of `text`: replace a byte, delete 1-8 bytes, insert
/// a byte, or splice a hostile number over the next number token (or at
/// the position, when none follows).  std::mt19937 and `%` only, so the
/// same seed makes the same text on every platform.
inline std::string mutate(std::string text, std::uint32_t seed) {
    static constexpr const char* kSplices[] = {"-1", "4294967296", "18446744073709551615",
                                               "-5e-4"};
    std::mt19937 rng(seed);
    const std::uint32_t edits = 1 + rng() % 4;
    for (std::uint32_t e = 0; e < edits && !text.empty(); ++e) {
        const std::size_t at = rng() % text.size();
        switch (rng() % 4) {
            case 0:
                text[at] = static_cast<char>(rng() % 256);
                break;
            case 1:
                text.erase(at, 1 + rng() % 8);
                break;
            case 2:
                text.insert(at, 1, static_cast<char>(rng() % 256));
                break;
            default: {
                const char* splice = kSplices[rng() % 4];
                const std::size_t begin = text.find_first_of("-0123456789", at);
                if (begin == std::string::npos) {
                    text.insert(at, splice);
                    break;
                }
                const std::size_t end = text.find_first_not_of("+-.eE0123456789", begin);
                text.replace(begin, (end == std::string::npos ? text.size() : end) - begin, splice);
                break;
            }
        }
    }
    return text;
}

/// A random DAG-shaped fault tree with `events` basic events and `gates`
/// gates, rooted at the last gate.  Same seed, same tree.
inline ftree::FaultTree random_fault_tree(std::uint32_t seed, std::size_t events,
                                          std::size_t gates) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> prob(0.01, 0.4);
    ftree::FaultTree ft;
    std::vector<ftree::FtRef> pool;
    for (std::size_t i = 0; i < events; ++i) {
        // lambda chosen so the 1-hour probability is prob(rng).
        const double p = prob(rng);
        pool.push_back(
            ft.add_basic_event(std::string("e").append(std::to_string(i)), -std::log(1.0 - p)));
    }
    for (std::size_t i = 0; i < gates; ++i) {
        const auto kind = (rng() % 2) ? ftree::GateKind::Or : ftree::GateKind::And;
        const std::size_t arity = 2 + rng() % 3;
        std::vector<ftree::FtRef> children;
        for (std::size_t c = 0; c < arity; ++c) {
            children.push_back(pool[rng() % pool.size()]);
        }
        pool.push_back(
            ft.add_gate(std::string("g").append(std::to_string(i)), kind, std::move(children)));
    }
    ft.set_top(pool.back());
    return ft;
}

/// Gives every location of `m` the rate `lambda`.  At 0 a location
/// event can never occur, so the tree evaluates as if it had none.
inline void set_location_lambdas(ArchitectureModel& m, double lambda) {
    for (const LocationId p : m.physical().node_ids()) m.physical().node(p).lambda = lambda;
}

/// A seeded synthetic model after the expand -> connect/reduce flow:
/// three distinct functional nodes drawn by the seed, expanded with BB,
/// no mapping phase.
inline ArchitectureModel synthetic_flow_final(std::uint32_t seed) {
    scenarios::SyntheticOptions synthetic;
    synthetic.seed = seed;
    std::mt19937 rng(seed);
    std::vector<std::string> nodes;
    while (nodes.size() < 3) {
        const auto layer = rng() % synthetic.layers;
        const auto index = rng() % synthetic.width;
        std::string name = std::string("f")
                               .append(std::to_string(layer))
                               .append("_")
                               .append(std::to_string(index));
        if (std::find(nodes.begin(), nodes.end(), name) == nodes.end()) {
            nodes.push_back(std::move(name));
        }
    }
    explore::ExplorationOptions options;
    options.run_mapping_optimization = false;
    return explore::run_exploration(scenarios::synthetic_model(synthetic), nodes, options)
        .final_model;
}

/// Seeded common causes in `m`'s redundant blocks.  Per block with two
/// or more branches, one branch node is, by the draw, also mapped onto a
/// resource of another branch's node (a shared resource, and with it
/// that resource's locations), or one of its resources is also placed at
/// a location of another branch (a shared location), or left alone.  A
/// pure function of `m` and `seed`.
inline void add_common_causes(ArchitectureModel& m, std::uint32_t seed) {
    std::mt19937 rng(seed);
    for (const RedundantBlock& block : find_redundant_blocks(m)) {
        const std::size_t k = block.branches.size();
        if (k < 2) continue;
        const std::size_t i = rng() % k;
        const std::size_t j = (i + 1 + rng() % (k - 1)) % k;
        const std::vector<NodeId>& from = block.branches[i].nodes;
        const std::vector<NodeId>& to = block.branches[j].nodes;
        const unsigned draw = rng() % 3;
        if (from.empty() || to.empty()) continue;
        const NodeId n = from[rng() % from.size()];
        const std::vector<ResourceId> targets = m.mapped_resources(to[rng() % to.size()]);
        if (targets.empty()) continue;
        const ResourceId target = targets[rng() % targets.size()];
        const bool compatible =
            mapping_compatible(m.app().node(n).kind, m.resources().node(target).kind);
        if (draw == 0 && compatible) {
            m.map_node(n, target);
        } else if (draw == 1 && !m.mapped_resources(n).empty()) {
            for (const LocationId p : m.resource_locations(target)) {
                m.place_resource(m.mapped_resources(n).front(), p);
            }
        }
    }
}

/// Index-wise structural equality ignoring names and failure rates:
/// the same top reference, basic-event count and gates (kinds and child
/// lists) at the same indices.  canonical_form numbers nodes in a
/// structure-determined order, so isomorphic canonical trees compare
/// equal here, not merely hash-equal.
inline bool same_indexed_shape(const ftree::FaultTree& a, const ftree::FaultTree& b) {
    if (a.has_top() != b.has_top()) return false;
    if (a.has_top() && a.top() != b.top()) return false;
    if (a.basic_events().size() != b.basic_events().size()) return false;
    if (a.gates().size() != b.gates().size()) return false;
    for (std::size_t g = 0; g < a.gates().size(); ++g) {
        const ftree::Gate& ga = a.gates()[g];
        const ftree::Gate& gb = b.gates()[g];
        if (ga.kind != gb.kind || ga.children != gb.children) return false;
    }
    return true;
}

}  // namespace asilkit::testing
