#include "obs/metrics.h"

#include <cstdio>
#include <sstream>

#include "obs/json_escape.h"

namespace asilkit::obs {
namespace {

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
