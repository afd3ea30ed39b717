/// \file obs.hpp
/// \brief Low-overhead observability: monotonic counters and gauges.
///
/// Counters are per-thread sharded (relaxed atomic adds into a cache-line
/// padded shard selected by a thread-local slot) and merged on read, so hot
/// paths never contend on a shared cache line. Handles returned by counter()
/// and gauge() are stable for the process lifetime; the idiomatic hot-path
/// form caches the lookup in a function-local static via the macros below:
///
///     AMRET_OBS_COUNT("kernels.gemm.rows", rows);
///
/// The whole facility compiles out when the build defines
/// AMRET_OBS_DISABLED (CMake option AMRET_OBS=OFF): the macros expand to
/// nothing and instrumented code carries zero runtime cost. The functions
/// below still exist in that configuration — readers simply observe empty
/// registries — so exporters and the CLI link unchanged.
///
/// Counters and gauges must never feed back into computation: they are
/// write-mostly telemetry, and the determinism contract of DESIGN.md §12
/// forbids branching on their values in instrumented code.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace amret::obs {

/// Shard count of every Counter. A power of two comfortably above the
/// useful thread count here (kMaxThreads is 256, but concurrent hot threads
/// are bounded by the machine); colliding slots only cost an occasionally
/// shared cache line, never a wrong total.
inline constexpr std::size_t kCounterShards = 32;

/// Slot of the calling thread into counter shards: a small sequential
/// thread id taken modulo kCounterShards. Stable for the thread's lifetime.
std::size_t thread_shard();

/// Monotonic counter. add() is wait-free (one relaxed fetch_add on the
/// caller's shard); value() sums the shards and may miss in-flight adds —
/// fine for telemetry, exact once the writing threads have quiesced.
class Counter {
public:
    explicit Counter(std::string name) : name_(std::move(name)) {}
    Counter(const Counter&) = delete;
    Counter& operator=(const Counter&) = delete;

    void add(std::int64_t delta) noexcept {
        shards_[thread_shard()].v.fetch_add(delta, std::memory_order_relaxed);
    }

    [[nodiscard]] std::int64_t value() const noexcept {
        std::int64_t sum = 0;
        for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
        return sum;
    }

    /// Zeroes every shard (tests / between profiled sections).
    void reset() noexcept {
        for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
    }

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

private:
    struct alignas(64) Shard {
        std::atomic<std::int64_t> v{0};
    };
    std::string name_;
    Shard shards_[kCounterShards];
};

/// Last-writer-wins instantaneous value (thread counts, ring occupancy...).
class Gauge {
public:
    explicit Gauge(std::string name) : name_(std::move(name)) {}
    Gauge(const Gauge&) = delete;
    Gauge& operator=(const Gauge&) = delete;

    void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
    [[nodiscard]] std::int64_t value() const noexcept {
        return v_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

private:
    std::string name_;
    std::atomic<std::int64_t> v_{0};
};

/// Finds or creates the counter registered under \p name. The reference is
/// valid for the process lifetime. Thread-safe; the lookup takes a mutex,
/// so hot paths should cache the handle (see AMRET_OBS_COUNT).
Counter& counter(std::string_view name);

/// Finds or creates the gauge registered under \p name (same contract).
Gauge& gauge(std::string_view name);

/// Snapshot of every registered counter, sorted by name.
std::vector<std::pair<std::string, std::int64_t>> counters_snapshot();

/// Snapshot of every registered gauge, sorted by name.
std::vector<std::pair<std::string, std::int64_t>> gauges_snapshot();

/// Zeroes every registered counter and gauge. Handles stay valid.
void reset_counters();

/// Renders all non-zero counters and gauges as a util::table (empty string
/// when nothing was recorded).
std::string counters_table();

/// Typed warning: logs \p message (util::log_warn) the first time each
/// distinct \p code fires in the process, and always bumps the counter
/// `warn.<code>` so tests and exporters can observe the condition without
/// scraping stderr. Codes are short dotted identifiers
/// ("simd.env_unsupported", "runtime.threads_env_invalid", ...).
/// Thread-safe.
void warn_once(std::string_view code, std::string_view message);

} // namespace amret::obs

// Hot-path instrumentation macros. They (and only they) compile out under
// AMRET_OBS_DISABLED; the obs API itself stays linkable in every build.
#if !defined(AMRET_OBS_DISABLED)

/// Adds \p delta to the counter named by the string literal \p name_literal,
/// resolving the registry lookup once per call site.
#define AMRET_OBS_COUNT(name_literal, delta)                                   \
    do {                                                                       \
        static ::amret::obs::Counter& amret_obs_count_handle =                 \
            ::amret::obs::counter(name_literal);                               \
        amret_obs_count_handle.add(static_cast<std::int64_t>(delta));          \
    } while (0)

/// Sets the gauge named by \p name_literal to \p v (one cached lookup).
#define AMRET_OBS_GAUGE_SET(name_literal, v)                                   \
    do {                                                                       \
        static ::amret::obs::Gauge& amret_obs_gauge_handle =                   \
            ::amret::obs::gauge(name_literal);                                 \
        amret_obs_gauge_handle.set(static_cast<std::int64_t>(v));              \
    } while (0)

#else

#define AMRET_OBS_COUNT(name_literal, delta) static_cast<void>(0)
#define AMRET_OBS_GAUGE_SET(name_literal, v) static_cast<void>(0)

#endif // AMRET_OBS_DISABLED
