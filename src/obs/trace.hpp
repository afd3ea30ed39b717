/// \file trace.hpp
/// \brief RAII scoped-span tracer with per-thread ring buffers.
///
/// A span is a named wall-clock interval on one thread, with nesting depth,
/// thread attribution and the CPU time the thread consumed inside it.
/// Completed spans are appended to a fixed-capacity per-thread ring buffer
/// (oldest events are overwritten once full, so a long run keeps its most
/// recent window); trace_events() merges the rings, write_chrome_trace()
/// exports Chrome `chrome://tracing` / Perfetto-compatible JSON, and
/// profile_table() renders a hierarchical plain-text profile.
///
/// Determinism contract: spans only read clocks and append telemetry — they
/// never branch on data values and never feed results back into the
/// computation, so a traced and an untraced run produce bitwise-identical
/// numerics (tests/test_obs.cpp proves this for a full training step).
///
/// Overhead: with tracing stopped (the default) a ScopedSpan costs one
/// relaxed atomic load; AMRET_OBS_SPAN compiles to nothing entirely under
/// AMRET_OBS_DISABLED. With tracing running, a span costs four clock reads
/// plus one uncontended mutex-protected ring append.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace amret::obs {

/// One completed span. \p name must point at storage that outlives the
/// trace (string literals in instrumented code). Times are monotonic
/// nanoseconds relative to the trace_start() epoch.
struct SpanEvent {
    const char* name = nullptr;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t cpu_ns = 0; ///< thread CPU time consumed inside the span
    std::uint32_t tid = 0;    ///< sequential trace-thread id (not OS tid)
    std::uint16_t depth = 0;  ///< nesting depth on the owning thread
};

/// Tracing configuration (trace_start argument).
struct TraceConfig {
    /// Completed-span capacity of each thread's ring buffer.
    std::size_t ring_capacity = std::size_t{1} << 17;
};

namespace detail {
extern std::atomic<bool> g_trace_enabled;
} // namespace detail

/// True between trace_start() and trace_stop().
inline bool trace_enabled() noexcept {
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// A process-lifetime copy of \p name, the same pointer for equal names: a
/// span label built at run time (one per engine op, say) is interned once,
/// off the hot path, and a span then passes the pointer like a literal.
/// Thread-safe.
const char* intern_label(std::string_view name);

/// Clears all ring buffers, re-arms the epoch and enables span recording.
void trace_start(const TraceConfig& config = {});

/// Disables span recording. Spans still open when the trace stops (or that
/// were opened before it started) are dropped, not truncated.
void trace_stop();

/// Completed spans of the current/most recent trace, merged across threads
/// and sorted by (tid, start, depth). Safe to call while tracing.
std::vector<SpanEvent> trace_events();

/// Spans overwritten because a ring buffer filled (0 in healthy traces).
std::uint64_t trace_dropped();

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps)
/// for the current buffers. Loadable by chrome://tracing and Perfetto.
std::string chrome_trace_json();

/// Writes chrome_trace_json() to \p path; false on I/O failure.
bool write_chrome_trace(const std::string& path);

/// Hierarchical profile of the current buffers: spans aggregated by call
/// path (joined span names), with count, total/self wall time, CPU time and
/// share of total self time. Empty string when no spans were recorded.
std::string profile_table();

/// RAII tracing span. Inert (one relaxed load) when tracing is stopped.
/// Use via AMRET_OBS_SPAN so release builds can compile instrumentation out.
class ScopedSpan {
public:
    explicit ScopedSpan(const char* name) noexcept {
        if (trace_enabled()) begin(name);
    }
    ~ScopedSpan() {
        if (active_) end();
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    friend class TimedSpan;
    void begin(const char* name) noexcept;
    void end() noexcept;

    const char* name_ = nullptr;
    std::uint64_t start_ns_ = 0;
    std::uint64_t cpu_start_ns_ = 0;
    std::uint32_t generation_ = 0;
    std::uint16_t depth_ = 0;
    bool active_ = false;
};

/// A span that always measures wall time (whether or not tracing runs) and
/// exposes it to the caller — the library's one timer: benches and progress
/// logs read seconds() while the same interval lands in the trace when one
/// is being recorded.
class TimedSpan {
public:
    explicit TimedSpan(const char* name) noexcept;
    ~TimedSpan();
    TimedSpan(const TimedSpan&) = delete;
    TimedSpan& operator=(const TimedSpan&) = delete;

    /// Ends the span now (records it if tracing) and freezes the elapsed
    /// time; idempotent. The destructor calls it implicitly.
    void stop() noexcept;

    /// Elapsed wall seconds since construction (frozen once stopped).
    [[nodiscard]] double seconds() const noexcept;
    [[nodiscard]] double millis() const noexcept { return seconds() * 1e3; }

private:
    std::uint64_t start_ns_ = 0;
    std::uint64_t frozen_ns_ = 0;
    bool stopped_ = false;
    ScopedSpan span_;
};

} // namespace amret::obs

#if !defined(AMRET_OBS_DISABLED)

#define AMRET_OBS_CONCAT_IMPL(a, b) a##b
#define AMRET_OBS_CONCAT(a, b) AMRET_OBS_CONCAT_IMPL(a, b)

/// Opens a ScopedSpan named by the string literal \p name_literal for the
/// rest of the enclosing scope.
#define AMRET_OBS_SPAN(name_literal)                                           \
    ::amret::obs::ScopedSpan AMRET_OBS_CONCAT(amret_obs_span_,                 \
                                              __LINE__)(name_literal)

#else

#define AMRET_OBS_SPAN(name_literal) static_cast<void>(0)

#endif // AMRET_OBS_DISABLED
