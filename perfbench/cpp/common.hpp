/// \file common.hpp
/// \brief Shared pieces of the end-to-end benchmark runner: options, the
///        result record every workload fills, clocks, a small JSON writer
///        and the span folder that turns a trace into per-layer times.
///
/// The runner only measures and checks; all statistics over the raw samples
/// (percentiles, due-time latency, the serve ladder knee) are computed by
/// perfbench/metrics.py so that one tested implementation exists.
#pragma once

#include "obs/trace.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <time.h>
#include <vector>

namespace perfbench {

/// Command-line options of one workload run.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false; ///< stop after set-up, before the first timed op
    std::string out_path;    ///< where the result JSON goes ("" = stdout)
};

/// Monotonic nanoseconds since an arbitrary process-wide epoch.
std::int64_t now_ns();

/// CPU time consumed by all threads of this process, in nanoseconds. The
/// gated timings use CPU time: on a shared VM, stolen and descheduled time
/// swings wall time far more than any change under test would.
std::int64_t process_cpu_ns();

/// CPU time consumed by the calling thread, in nanoseconds.
std::int64_t thread_cpu_ns();

/// Per-thread CPU time over a set of timed operations. The pool, coalescer
/// and worker threads are long-lived, so they are listed once, after set-up.
/// busiest_ms() is the largest total any one thread used over the intervals
/// between mark() and add(): what the operations would take on an idle host
/// if no thread ever waited. It grows when work moves onto fewer threads (a
/// serialised parallel_for, fewer microbatches), which summed CPU time
/// cannot show, and unlike wall time it leaves out time the host gave to
/// other guests. Totals over many operations even out which thread happened
/// to take more chunks of one operation.
class ThreadClocks {
public:
    /// Lists every thread of the process (the calling thread only when
    /// \p include_caller) and marks.
    explicit ThreadClocks(bool include_caller);
    /// Starts an interval.
    void mark();
    /// Adds each thread's CPU time since mark() to its total.
    void add();
    [[nodiscard]] double busiest_ms() const;

private:
    [[nodiscard]] std::vector<std::int64_t> read() const;

    std::vector<clockid_t> clocks_;
    std::vector<std::int64_t> base_;
    std::vector<std::int64_t> used_;
};

/// now_ns() when main() entered (recorded by mark_process_start).
void mark_process_start();
std::int64_t process_start_ns();

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// FNV-1a over raw bytes, continuing from \p h; hex64 renders 16 digits.
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h = kFnvBasis);
std::string hex64(std::uint64_t v);

/// One named output check; a failed check makes the run fail.
struct Check {
    std::string name;
    bool ok = true;
    std::string detail;
};

/// Everything a workload run reports. Raw samples go out unreduced.
struct Report {
    double setup_s = 0.0;     ///< wall, process start to the first timed op
    double setup_cpu_s = 0.0; ///< CPU of all threads over the same span
    std::map<std::string, double> setup_ms; ///< wall per set-up component
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<Check> checks;
    std::string digest; ///< output digest compared between traced/untraced
    std::map<std::string, std::vector<double>> series; ///< raw samples
    std::map<std::string, double> scalars;             ///< raw scalars
    std::map<std::string, double> layers;              ///< per-layer metrics
    std::vector<std::map<std::string, std::string>> rows; ///< layer table
    std::map<std::string, std::string> info;           ///< machine fingerprint
    int threads = 0;

    void check(const std::string& name, bool ok, const std::string& detail = {});
};

/// Writes \p report as one JSON document.
std::string to_json(const Options& opt, const Report& report);

/// Times one call in milliseconds.
template <typename F>
double time_ms(F&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    return static_cast<double>(now_ns() - t0) * 1e-6;
}

/// Per-name aggregate of folded spans.
struct SpanTotals {
    std::int64_t count = 0;
    double total_ms = 0.0; ///< sum of span durations
    double self_ms = 0.0;  ///< minus every nested span
    double excl_ms = 0.0;  ///< minus the nearest non-runtime spans nested in
                           ///< it, looking through runtime.* spans
};

/// Collects spans in segments so the per-thread rings stay small: harvest()
/// folds what has been recorded and restarts the trace. Call harvest() only
/// when no span is open on any thread (between operations).
class TraceFolder {
public:
    void start();
    void harvest();
    void stop();

    /// Keep every duration (ms) of spans with this exact name.
    void keep_durations(const char* name) { kept_[name]; }

    [[nodiscard]] const std::map<std::string, SpanTotals>& totals() const {
        return totals_;
    }
    [[nodiscard]] const std::vector<double>& durations(const std::string& name) const;
    [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
    [[nodiscard]] double get(const std::string& name, double SpanTotals::*field) const;
    /// Sum of \p field over every span whose name starts with \p prefix and
    /// ends with \p suffix.
    [[nodiscard]] double sum(const std::string& prefix, const std::string& suffix,
                             double SpanTotals::*field) const;

private:
    void fold(const std::vector<amret::obs::SpanEvent>& events);

    std::map<std::string, SpanTotals> totals_;
    std::map<std::string, std::vector<double>> kept_;
    std::uint64_t dropped_ = 0;
    bool running_ = false;
};

/// Interns \p s for the lifetime of the process (span names must outlive
/// the trace).
const char* intern(const std::string& s);

/// Counter value by exact name (0 when never registered).
std::int64_t counter_value(const std::string& name);

/// Sum of every counter whose name starts with \p prefix.
std::int64_t counter_sum(const std::string& prefix);

/// Per-layer metrics every traced workload shares, normalised per timed
/// operation: kernel span times, kernel and runtime counters, parallel_for
/// dispatch time, pool busy share and the trace-quality figures.
/// \p root_ms is the traced operations' wall time on their own threads and
/// \p glue_ms the part of it no layer span claims.
void fill_shared_layers(const TraceFolder& folder, double ops, double wall_s,
                        int threads, double root_ms, double glue_ms,
                        Report& report);

/// Runs \p fn, the workload's set-up, and records the wall and CPU time from
/// process start to its end, so one-time costs (loading, static
/// initialisation, thread pool start, registries, tuning) count too.
template <typename F>
void timed_setup(Report& report, F&& fn) {
    fn();
    report.setup_s = static_cast<double>(now_ns() - process_start_ns()) * 1e-9;
    report.setup_cpu_s = static_cast<double>(process_cpu_ns()) * 1e-9;
}

// Workloads.
void run_retrain(const Options& opt, Report& report);
void run_infer(const Options& opt, Report& report);
void run_serve(const Options& opt, Report& report);

} // namespace perfbench
