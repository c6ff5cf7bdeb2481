#include "obs/metrics.h"

#include <cstdio>
#include <sstream>

namespace asilkit::obs {
namespace {

/// JSON string escaping for metric ids (conservative: ids are dotted
/// ASCII by convention, but a malformed id must not corrupt the file).
std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

/// Shortest round-trip double rendering (%.17g trims trailing noise for
/// representable values; integral values print without exponent).
std::string number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    double parsed = 0.0;
    for (int precision = 6; precision < 17; ++precision) {
        char trial[40];
        std::snprintf(trial, sizeof(trial), "%.*g", precision, v);
        std::sscanf(trial, "%lf", &parsed);
        if (parsed == v) return trial;
    }
    return buf;
}

}  // namespace

Registry& Registry::global() {
    static Registry* instance = new Registry();  // leaked: see header
    return *instance;
}

Counter& Registry::counter(std::string_view id) {
    const core::MutexLock lock(mutex_);
    auto it = counters_.find(id);
    if (it == counters_.end()) {
        it = counters_.emplace(std::string(id), std::unique_ptr<Counter>(new Counter())).first;
    }
    return *it->second;
}

Gauge& Registry::gauge(std::string_view id) {
    const core::MutexLock lock(mutex_);
    auto it = gauges_.find(id);
    if (it == gauges_.end()) {
        it = gauges_.emplace(std::string(id), std::unique_ptr<Gauge>(new Gauge())).first;
    }
    return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
    const core::MutexLock lock(mutex_);
    MetricsSnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto& [id, c] : counters_) snap.counters.push_back({id, c->value()});
    snap.gauges.reserve(gauges_.size());
    for (const auto& [id, g] : gauges_) snap.gauges.push_back({id, g->value()});
    return snap;
}

std::uint64_t MetricsSnapshot::counter_or(std::string_view id,
                                          std::uint64_t fallback) const noexcept {
    for (const CounterSample& c : counters) {
        if (c.id == id) return c.value;
    }
    return fallback;
}

double MetricsSnapshot::gauge_or(std::string_view id, double fallback) const noexcept {
    for (const GaugeSample& g : gauges) {
        if (g.id == id) return g.value;
    }
    return fallback;
}

std::string MetricsSnapshot::to_json() const {
    std::ostringstream os;
    os << "{\"counters\":{";
    for (std::size_t i = 0; i < counters.size(); ++i) {
        if (i != 0) os << ",";
        os << "\"" << json_escape(counters[i].id) << "\":" << counters[i].value;
    }
    os << "},\"gauges\":{";
    for (std::size_t i = 0; i < gauges.size(); ++i) {
        if (i != 0) os << ",";
        os << "\"" << json_escape(gauges[i].id) << "\":" << number(gauges[i].value);
    }
    os << "}}";
    return os.str();
}

}  // namespace asilkit::obs
