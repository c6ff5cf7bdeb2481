#include "obs/profile.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/json_escape.h"

namespace asilkit::obs {
namespace {

/// "1.23 ms"-style rendering for the text table.
std::string human_ns(double ns) {
    char buf[48];
    if (ns >= 1e9) {
        std::snprintf(buf, sizeof(buf), "%.3g s", ns / 1e9);
    } else if (ns >= 1e6) {
        std::snprintf(buf, sizeof(buf), "%.3g ms", ns / 1e6);
    } else if (ns >= 1e3) {
        std::snprintf(buf, sizeof(buf), "%.3g us", ns / 1e3);
    } else {
        std::snprintf(buf, sizeof(buf), "%.3g ns", ns);
    }
    return buf;
}

/// Mutable aggregation cell for one span name.
struct NodeAccum {
    const char* cat = "";
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;
    std::vector<std::uint64_t> buckets;  // latency_bounds_ns().size() + 1

    void observe(std::uint64_t dur_ns, std::uint64_t self, const char* category) {
        cat = category;
        if (count == 0 || dur_ns < min_ns) min_ns = dur_ns;
        if (dur_ns > max_ns) max_ns = dur_ns;
        ++count;
        total_ns += dur_ns;
        self_ns += self;
        const std::span<const double> bounds = latency_bounds_ns();
        if (buckets.empty()) buckets.assign(bounds.size() + 1, 0);
        const auto it = std::lower_bound(bounds.begin(), bounds.end(),
                                         static_cast<double>(dur_ns));
        ++buckets[static_cast<std::size_t>(it - bounds.begin())];
    }
};

/// One open span on a thread's replay stack.
struct Frame {
    const char* name;
    const char* cat;
    std::uint64_t begin_ns;
    std::uint64_t child_ns = 0;
    std::string path;  // "parent;...;name"
};

}  // namespace

std::span<const double> latency_bounds_ns() noexcept {
    static const std::array<double, 24> bounds = [] {
        std::array<double, 24> b{};
        double bound = 1e3;  // 1 µs
        for (double& slot : b) {
            slot = bound;
            bound *= 2.0;
        }
        return b;
    }();
    return bounds;
}

double histogram_quantile(std::span<const double> bounds,
                          std::span<const std::uint64_t> counts, double q) noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts) total += c;
    if (total == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double rank = q * static_cast<double>(total);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0) continue;
        const double lower = i == 0 ? 0.0 : bounds[i - 1];
        const std::uint64_t before = cumulative;
        cumulative += counts[i];
        if (static_cast<double>(cumulative) < rank) continue;
        if (i >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
        const double upper = bounds[i];
        const double into =
            (rank - static_cast<double>(before)) / static_cast<double>(counts[i]);
        return lower + (upper - lower) * (into < 0.0 ? 0.0 : into);
    }
    return bounds.empty() ? 0.0 : bounds.back();  // unreachable with exact counts
}

const SpanProfile::Node* SpanProfile::find(std::string_view name) const noexcept {
    for (const Node& n : nodes) {
        if (n.name == name) return &n;
    }
    return nullptr;
}

SpanProfile build_profile(std::span<const TraceEvent> events) {
    std::map<std::string, NodeAccum> accum;
    std::map<std::pair<std::string, std::string>, SpanProfile::Edge> edges;
    std::map<std::string, std::uint64_t> stacks;
    std::map<std::uint32_t, std::vector<Frame>> threads;
    std::uint64_t unmatched = 0;

    for (const TraceEvent& e : events) {
        if (e.ph == 'I') continue;
        std::vector<Frame>& stack = threads[e.tid];
        if (e.ph == 'B') {
            Frame frame{e.name, e.cat, e.ts_ns, 0, {}};
            frame.path = stack.empty() ? std::string(e.name)
                                       : stack.back().path + ";" + e.name;
            stack.push_back(std::move(frame));
            continue;
        }
        // 'E': must close the innermost open span.  RAII guarantees LIFO
        // per thread, so a mismatch means the matching B fell to the
        // buffer cap — drop the E rather than corrupt the stack.
        if (stack.empty() || std::string_view(stack.back().name) != e.name) {
            ++unmatched;
            continue;
        }
        Frame frame = std::move(stack.back());
        stack.pop_back();
        const std::uint64_t dur =
            e.ts_ns >= frame.begin_ns ? e.ts_ns - frame.begin_ns : 0;
        const std::uint64_t self = dur >= frame.child_ns ? dur - frame.child_ns : 0;
        accum[frame.name].observe(dur, self, frame.cat);
        stacks[frame.path] += self;
        if (!stack.empty()) {
            stack.back().child_ns += dur;
            SpanProfile::Edge& edge = edges[{stack.back().name, frame.name}];
            edge.parent = stack.back().name;
            edge.child = frame.name;
            ++edge.count;
            edge.total_ns += dur;
        }
    }
    for (const auto& entry : threads) unmatched += entry.second.size();

    SpanProfile profile;
    profile.unmatched = unmatched;
    profile.nodes.reserve(accum.size());
    for (const auto& [name, a] : accum) {
        SpanProfile::Node node;
        node.name = name;
        node.cat = a.cat;
        node.count = a.count;
        node.total_ns = a.total_ns;
        node.self_ns = a.self_ns;
        node.min_ns = a.min_ns;
        node.max_ns = a.max_ns;
        // Bucket interpolation can land outside the observed range (one
        // 293 us span reads p50 = 384 us from its bucket's midpoint);
        // the exact min and max bound any quantile.
        const auto observed = [&](double q) {
            return std::clamp(histogram_quantile(latency_bounds_ns(), a.buckets, q),
                              static_cast<double>(a.min_ns), static_cast<double>(a.max_ns));
        };
        node.p50_ns = observed(0.50);
        node.p95_ns = observed(0.95);
        profile.nodes.push_back(std::move(node));
    }
    profile.edges.reserve(edges.size());
    for (auto& entry : edges) profile.edges.push_back(std::move(entry.second));
    profile.stacks.reserve(stacks.size());
    for (const auto& [path, self_ns] : stacks) profile.stacks.push_back({path, self_ns});
    return profile;
}

SpanProfile profile_current_trace() {
    const std::vector<TraceEvent> events = snapshot_events();
    return build_profile(events);
}

std::string SpanProfile::to_text() const {
    if (nodes.empty()) return "(no spans recorded)\n";
    // Hottest self-time first; ties broken by name for determinism.
    std::vector<const Node*> by_self;
    by_self.reserve(nodes.size());
    for (const Node& n : nodes) by_self.push_back(&n);
    std::sort(by_self.begin(), by_self.end(), [](const Node* a, const Node* b) {
        if (a->self_ns != b->self_ns) return a->self_ns > b->self_ns;
        return a->name < b->name;
    });

    std::ostringstream os;
    char line[200];
    std::snprintf(line, sizeof(line), "%-26s %-8s %8s %10s %10s %9s %9s %9s %9s\n",
                  "span", "cat", "count", "self", "total", "min", "p50", "p95", "max");
    os << line;
    for (const Node* n : by_self) {
        std::snprintf(line, sizeof(line), "%-26s %-8s %8llu %10s %10s %9s %9s %9s %9s\n",
                      n->name.c_str(), n->cat.c_str(),
                      static_cast<unsigned long long>(n->count),
                      human_ns(static_cast<double>(n->self_ns)).c_str(),
                      human_ns(static_cast<double>(n->total_ns)).c_str(),
                      human_ns(static_cast<double>(n->min_ns)).c_str(),
                      human_ns(n->p50_ns).c_str(), human_ns(n->p95_ns).c_str(),
                      human_ns(static_cast<double>(n->max_ns)).c_str());
        os << line;
    }
    if (!edges.empty()) {
        os << "edges:\n";
        for (const Edge& e : edges) {
            std::snprintf(line, sizeof(line), "  %-24s -> %-24s count=%-8llu total=%s\n",
                          e.parent.c_str(), e.child.c_str(),
                          static_cast<unsigned long long>(e.count),
                          human_ns(static_cast<double>(e.total_ns)).c_str());
            os << line;
        }
    }
    if (unmatched != 0) os << "unmatched spans: " << unmatched << "\n";
    return os.str();
}

std::string SpanProfile::to_json() const {
    std::ostringstream os;
    os << "{\"spans\":[";
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const Node& n = nodes[i];
        if (i != 0) os << ",";
        os << "{\"name\":\"" << json_escape(n.name) << "\",\"cat\":\"" << json_escape(n.cat)
           << "\",\"count\":" << n.count << ",\"total_ns\":" << n.total_ns
           << ",\"self_ns\":" << n.self_ns << ",\"min_ns\":" << n.min_ns
           << ",\"max_ns\":" << n.max_ns;
        char buf[96];
        std::snprintf(buf, sizeof(buf), ",\"p50_ns\":%.17g,\"p95_ns\":%.17g", n.p50_ns,
                      n.p95_ns);
        os << buf << "}";
    }
    os << "],\"edges\":[";
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const Edge& e = edges[i];
        if (i != 0) os << ",";
        os << "{\"parent\":\"" << json_escape(e.parent) << "\",\"child\":\""
           << json_escape(e.child) << "\",\"count\":" << e.count
           << ",\"total_ns\":" << e.total_ns << "}";
    }
    os << "],\"stacks\":[";
    for (std::size_t i = 0; i < stacks.size(); ++i) {
        if (i != 0) os << ",";
        os << "{\"path\":\"" << json_escape(stacks[i].path)
           << "\",\"self_ns\":" << stacks[i].self_ns << "}";
    }
    os << "],\"unmatched\":" << unmatched << "}";
    return os.str();
}

std::string SpanProfile::to_collapsed() const {
    std::string out;
    for (const Stack& s : stacks) {
        if (s.self_ns == 0) continue;  // flamegraph.pl ignores zero rows anyway
        out += s.path;
        out += ' ';
        out += std::to_string(s.self_ns);
        out += '\n';
    }
    return out;
}

}  // namespace asilkit::obs
