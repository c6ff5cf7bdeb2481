// Span tracer: RAII spans recorded into thread-local buffers, drained
// to Chrome trace-event JSON (loadable in ui.perfetto.dev and
// chrome://tracing).
//
// Contract with the hot paths it instruments:
//   * disabled cost is ONE branch — ObsSpan's constructor reads a
//     process-global atomic flag and returns; no clock, no allocation,
//     no stores (the null sink);
//   * enabled cost is lock-cheap — events append to a per-thread buffer
//     whose mutex is uncontended except during a drain (the tracer
//     never shares a buffer between threads), so threads tracing at
//     the same time do not serialise on each other;
//   * tracing NEVER changes results — spans only read the clock and
//     write side buffers, so DSE output is bitwise identical with
//     tracing on or off at any thread count (tested).
//
// Each span emits a "B" (begin) and "E" (end) event with the thread's
// stable tid, so spans nest per thread and the exported JSON is
// balance-checkable.  Buffers are bounded (kMaxEventsPerThread); events
// beyond the cap are counted as dropped and reported in the export's
// "otherData" rather than silently truncated.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace asilkit::obs {

namespace detail {
extern std::atomic<bool> g_tracing;
void record(char ph, const char* name, const char* cat, const char* arg_key,
            double arg_value) noexcept;
}  // namespace detail

/// True while a trace session is active.  Relaxed: instrumentation
/// sites tolerate seeing the flag flip a few events late.
[[nodiscard]] inline bool tracing_enabled() noexcept {
    return detail::g_tracing.load(std::memory_order_relaxed);
}

/// Starts a session: clears previously buffered events, re-anchors the
/// timestamp epoch, enables span recording.
void start_tracing();

/// Stops recording.  Buffered events stay available for export.
void stop_tracing();

/// Drains every thread's buffer into one Chrome trace-event JSON
/// document ({"traceEvents":[...]}).  Draining consumes the events;
/// close all spans before exporting or "B" events will outnumber "E"s.
[[nodiscard]] std::string trace_to_json();

/// Events recorded this session (approximate while threads are still
/// tracing).
[[nodiscard]] std::uint64_t trace_event_count();

/// One buffered span event, exposed for in-process aggregation (the
/// span profiler, obs/profile.h).  `name` and `cat` point at the string
/// literals the instrumentation sites recorded — valid for the process
/// lifetime, never owned.
struct TraceEvent {
    const char* name;
    const char* cat;
    std::uint64_t ts_ns;  ///< nanoseconds since the session epoch
    std::uint32_t tid;    ///< stable per-thread id (0, 1, ...)
    char ph;              ///< 'B', 'E' or 'I'
};

/// Copies every buffered event, sorted by timestamp, WITHOUT consuming
/// the buffers (unlike trace_to_json's drain) — so a profile can be
/// aggregated and the full trace still exported afterwards.  The sort
/// is stable, so each thread's events keep record order and per-thread
/// B/E nesting survives for stack replay.
[[nodiscard]] std::vector<TraceEvent> snapshot_events();

/// A zero-duration instant event ("I"), for marking discrete
/// occurrences such as a BDD unique-table resize.
inline void trace_instant(const char* name, const char* category) noexcept {
    if (!tracing_enabled()) return;
    detail::record('I', name, category, nullptr, 0.0);
}
inline void trace_instant(const char* name, const char* category, const char* arg_key,
                          double arg_value) noexcept {
    if (!tracing_enabled()) return;
    detail::record('I', name, category, arg_key, arg_value);
}

/// RAII span.  `name` and `category` must be string literals (or
/// otherwise outlive the trace session): events store the pointers, not
/// copies, to keep the record path allocation-free.
class ObsSpan {
public:
    ObsSpan(const char* name, const char* category) noexcept {
        if (!tracing_enabled()) return;  // the one disabled-mode branch
        open(name, category, nullptr, 0.0);
    }
    /// Span with one numeric argument attached to its begin event
    /// (shown in the Perfetto details pane).
    ObsSpan(const char* name, const char* category, const char* arg_key,
            double arg_value) noexcept {
        if (!tracing_enabled()) return;
        open(name, category, arg_key, arg_value);
    }
    ~ObsSpan() {
        // A span that began records its end even if tracing stopped
        // meanwhile, keeping B/E balanced within a session.
        if (name_ != nullptr) detail::record('E', name_, cat_, nullptr, 0.0);
    }

    ObsSpan(const ObsSpan&) = delete;
    ObsSpan& operator=(const ObsSpan&) = delete;

private:
    void open(const char* name, const char* category, const char* arg_key,
              double arg_value) noexcept {
        name_ = name;
        cat_ = category;
        detail::record('B', name, category, arg_key, arg_value);
    }

    const char* name_ = nullptr;
    const char* cat_ = nullptr;
};

}  // namespace asilkit::obs
