#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <vector>

#include "core/sync.h"
#include "obs/json_escape.h"

namespace asilkit::obs {
namespace {

using Clock = std::chrono::steady_clock;

/// Hard per-thread cap: ~1M events * 48 B keeps a runaway trace under
/// ~50 MB per thread; beyond it events are counted as dropped.
constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 20;

struct Event {
    const char* name;
    const char* cat;
    const char* arg_key;  // nullptr = no argument
    double arg_value;
    std::uint64_t ts_ns;  // since session epoch
    std::uint32_t tid;
    char ph;  // 'B', 'E', 'I'
};

struct ThreadBuffer;

/// Global tracer state.  Leaked (never destroyed) so thread-local
/// buffer destructors may flush into it during shutdown regardless of
/// static destruction order.
struct TraceState {
    std::atomic<std::uint64_t> dropped{0};
    /// Session epoch as Clock ticks since the clock's own epoch.
    /// Atomic, not mutex-guarded: record() reads it on every event while
    /// start_tracing() may rewrite it from another thread — as a plain
    /// time_point that was a data race the thread-safety audit flushed
    /// (TSan never saw it because sessions usually start before workers
    /// trace).
    std::atomic<Clock::rep> epoch{Clock::now().time_since_epoch().count()};
    core::Mutex mutex;
    std::vector<ThreadBuffer*> buffers GUARDED_BY(mutex);
    /// Events of exited threads.
    std::vector<Event> orphans GUARDED_BY(mutex);
    std::uint32_t next_tid GUARDED_BY(mutex) = 0;
};

TraceState& state() {
    static TraceState* instance = new TraceState();
    return *instance;
}

/// Per-thread event buffer.  Its mutex is uncontended on the record
/// path (only the owning thread pushes); a drain locks it briefly to
/// move the events out.
struct ThreadBuffer {
    core::Mutex mutex;
    std::vector<Event> events GUARDED_BY(mutex);
    // `tid` and `registered` are owner-thread-confined: written once by
    // the owning thread (under the global mutex, which orders them for
    // the drain path) and thereafter read only by that thread, so they
    // carry no GUARDED_BY contract.
    std::uint32_t tid = 0;
    bool registered = false;

    ~ThreadBuffer() {
        TraceState& s = state();
        const core::MutexLock global(s.mutex);
        if (registered) {
            std::erase(s.buffers, this);
            const core::MutexLock local(mutex);
            s.orphans.insert(s.orphans.end(), events.begin(), events.end());
        }
    }
};

thread_local ThreadBuffer t_buffer;

/// Collects (and consumes) every buffered event, sorted by timestamp.
/// Stable sort: same-timestamp events of one thread keep record order,
/// so a zero-duration span still exports B before E.
std::vector<Event> drain_events() {
    TraceState& s = state();
    std::vector<Event> all;
    {
        const core::MutexLock global(s.mutex);
        all = std::move(s.orphans);
        s.orphans.clear();
        for (ThreadBuffer* b : s.buffers) {
            const core::MutexLock local(b->mutex);
            all.insert(all.end(), b->events.begin(), b->events.end());
            b->events.clear();
        }
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const Event& a, const Event& b) { return a.ts_ns < b.ts_ns; });
    return all;
}

void clear_events() {
    TraceState& s = state();
    const core::MutexLock global(s.mutex);
    s.orphans.clear();
    for (ThreadBuffer* b : s.buffers) {
        const core::MutexLock local(b->mutex);
        b->events.clear();
    }
    s.dropped.store(0, std::memory_order_relaxed);
}

}  // namespace

namespace detail {

std::atomic<bool> g_tracing{false};

void record(char ph, const char* name, const char* cat, const char* arg_key,
            double arg_value) noexcept {
    TraceState& s = state();
    ThreadBuffer& b = t_buffer;
    if (!b.registered) {
        // Register before taking the local mutex: the drain path locks
        // global-then-local, so the record path must never hold the
        // local mutex while waiting on the global one.
        const core::MutexLock global(s.mutex);
        b.tid = s.next_tid++;
        s.buffers.push_back(&b);
        b.registered = true;
    }
    const auto since = Clock::now().time_since_epoch() -
                       Clock::duration(s.epoch.load(std::memory_order_relaxed));
    // Clamp: an event racing a session restart may observe the new epoch
    // after its own clock read; it belongs to the cleared session anyway.
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(since).count();
    const auto ts = static_cast<std::uint64_t>(ns < 0 ? 0 : ns);
    const core::MutexLock local(b.mutex);
    if (b.events.size() >= kMaxEventsPerThread) {
        s.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    if (b.events.capacity() == 0) b.events.reserve(4096);
    b.events.push_back(Event{name, cat, arg_key, arg_value, ts, b.tid, ph});
}

}  // namespace detail

void start_tracing() {
    clear_events();
    state().epoch.store(Clock::now().time_since_epoch().count(), std::memory_order_relaxed);
    detail::g_tracing.store(true, std::memory_order_relaxed);
}

void stop_tracing() { detail::g_tracing.store(false, std::memory_order_relaxed); }

std::uint64_t trace_event_count() {
    TraceState& s = state();
    const core::MutexLock global(s.mutex);
    std::uint64_t n = s.orphans.size();
    for (ThreadBuffer* b : s.buffers) {
        const core::MutexLock local(b->mutex);
        n += b->events.size();
    }
    return n;
}

std::vector<TraceEvent> snapshot_events() {
    TraceState& s = state();
    std::vector<TraceEvent> all;
    {
        const core::MutexLock global(s.mutex);
        all.reserve(s.orphans.size());
        for (const Event& e : s.orphans) {
            all.push_back(TraceEvent{e.name, e.cat, e.ts_ns, e.tid, e.ph});
        }
        for (ThreadBuffer* b : s.buffers) {
            const core::MutexLock local(b->mutex);
            for (const Event& e : b->events) {
                all.push_back(TraceEvent{e.name, e.cat, e.ts_ns, e.tid, e.ph});
            }
        }
    }
    std::stable_sort(all.begin(), all.end(), [](const TraceEvent& a, const TraceEvent& b) {
        return a.ts_ns < b.ts_ns;
    });
    return all;
}

std::string trace_to_json() {
    const std::vector<Event> events = drain_events();
    std::ostringstream os;
    os << "{\"traceEvents\":[";
    bool first = true;
    char buf[64];
    for (const Event& e : events) {
        if (!first) os << ",";
        first = false;
        os << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\"" << json_escape(e.cat)
           << "\",\"ph\":\"" << e.ph << "\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":";
        // Trace-event timestamps are microseconds; keep ns resolution
        // via the fractional part.
        std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(e.ts_ns) / 1000.0);
        os << buf;
        if (e.arg_key != nullptr) {
            std::snprintf(buf, sizeof(buf), "%.17g", e.arg_value);
            os << ",\"args\":{\"" << json_escape(e.arg_key) << "\":" << buf << "}";
        }
        os << "}";
    }
    os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":"
       << state().dropped.load(std::memory_order_relaxed) << "}}";
    return os.str();
}

}  // namespace asilkit::obs
