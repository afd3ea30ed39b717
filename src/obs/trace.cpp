#include "obs/trace.hpp"

#include "util/table.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#if defined(__linux__)
#include <ctime>
#endif

namespace amret::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
} // namespace detail

namespace {

std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t cpu_now_ns() noexcept {
#if defined(__linux__)
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
        return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
               static_cast<std::uint64_t>(ts.tv_nsec);
    }
#endif
    return 0;
}

/// Per-thread completed-span ring. Owned jointly by the thread (thread_local
/// shared_ptr) and the global registry, so merging stays safe after the
/// thread exits. The per-buffer mutex is only ever contended by readers —
/// the owning thread is the sole writer.
struct ThreadBuf {
    std::mutex mutex;
    std::vector<SpanEvent> ring;
    std::size_t capacity = 0;
    std::uint64_t pushed = 0; ///< total events ever pushed this trace
    std::uint32_t tid = 0;
};

struct TraceState {
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadBuf>> bufs;
    std::size_t ring_capacity = TraceConfig{}.ring_capacity;
    std::uint32_t next_tid = 0;
};

TraceState& state() {
    static TraceState* s = new TraceState(); // leaked: safe in static dtors
    return *s;
}

std::atomic<std::uint64_t> g_epoch_ns{0};
std::atomic<std::uint32_t> g_generation{0};

thread_local std::uint32_t t_depth = 0;
thread_local std::shared_ptr<ThreadBuf> t_buf;

ThreadBuf& thread_buf() {
    if (!t_buf) {
        TraceState& s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        auto buf = std::make_shared<ThreadBuf>();
        buf->capacity = s.ring_capacity;
        buf->tid = s.next_tid++;
        s.bufs.push_back(buf);
        t_buf = std::move(buf);
    }
    return *t_buf;
}

void push_event(const SpanEvent& ev) {
    ThreadBuf& buf = thread_buf();
    std::lock_guard<std::mutex> lock(buf.mutex);
    if (buf.capacity == 0) return;
    if (buf.ring.size() < buf.capacity) {
        buf.ring.push_back(ev);
    } else {
        buf.ring[buf.pushed % buf.capacity] = ev; // overwrite oldest
    }
    ++buf.pushed;
}

} // namespace

const char* intern_label(std::string_view name) {
    static std::mutex mutex;
    // Leaked, like the counter registry, so labels outlive static dtors;
    // set nodes never move, so the pointers stay valid.
    static auto* labels = new std::set<std::string, std::less<>>();
    const std::lock_guard<std::mutex> lock(mutex);
    auto it = labels->find(name);
    if (it == labels->end()) it = labels->emplace(name).first;
    return it->c_str();
}

void trace_start(const TraceConfig& config) {
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.ring_capacity = std::max<std::size_t>(1, config.ring_capacity);
    for (const auto& buf : s.bufs) {
        std::lock_guard<std::mutex> buf_lock(buf->mutex);
        buf->ring.clear();
        buf->pushed = 0;
        buf->capacity = s.ring_capacity;
    }
    g_generation.fetch_add(1, std::memory_order_relaxed);
    g_epoch_ns.store(now_ns(), std::memory_order_relaxed);
    detail::g_trace_enabled.store(true, std::memory_order_release);
}

void trace_stop() {
    detail::g_trace_enabled.store(false, std::memory_order_release);
}

std::vector<SpanEvent> trace_events() {
    std::vector<std::shared_ptr<ThreadBuf>> bufs;
    {
        TraceState& s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        bufs = s.bufs;
    }
    std::vector<SpanEvent> events;
    for (const auto& buf : bufs) {
        std::lock_guard<std::mutex> lock(buf->mutex);
        if (buf->pushed <= buf->ring.size()) {
            events.insert(events.end(), buf->ring.begin(), buf->ring.end());
        } else {
            // Ring wrapped: replay in chronological order from the oldest
            // surviving slot.
            const std::size_t cap = buf->ring.size();
            const std::size_t head = static_cast<std::size_t>(buf->pushed % cap);
            events.insert(events.end(), buf->ring.begin() + head, buf->ring.end());
            events.insert(events.end(), buf->ring.begin(), buf->ring.begin() + head);
        }
    }
    std::sort(events.begin(), events.end(),
              [](const SpanEvent& a, const SpanEvent& b) {
                  if (a.tid != b.tid) return a.tid < b.tid;
                  if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                  return a.depth < b.depth;
              });
    return events;
}

std::uint64_t trace_dropped() {
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    std::uint64_t dropped = 0;
    for (const auto& buf : s.bufs) {
        std::lock_guard<std::mutex> buf_lock(buf->mutex);
        if (buf->pushed > buf->ring.size()) dropped += buf->pushed - buf->ring.size();
    }
    return dropped;
}

void ScopedSpan::begin(const char* name) noexcept {
    name_ = name;
    generation_ = g_generation.load(std::memory_order_relaxed);
    depth_ = static_cast<std::uint16_t>(
        std::min<std::uint32_t>(t_depth, 0xffffu));
    ++t_depth;
    cpu_start_ns_ = cpu_now_ns();
    start_ns_ = now_ns();
    active_ = true;
}

void ScopedSpan::end() noexcept {
    const std::uint64_t end_ns = now_ns();
    const std::uint64_t cpu_end_ns = cpu_now_ns();
    --t_depth;
    active_ = false;
    if (!trace_enabled()) return; // stopped mid-span: drop, never truncate
    if (generation_ != g_generation.load(std::memory_order_relaxed)) return;
    const std::uint64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);
    SpanEvent ev;
    ev.name = name_;
    ev.start_ns = start_ns_ - epoch;
    ev.end_ns = end_ns - epoch;
    ev.cpu_ns = cpu_end_ns >= cpu_start_ns_ ? cpu_end_ns - cpu_start_ns_ : 0;
    ev.tid = thread_buf().tid;
    ev.depth = depth_;
    push_event(ev);
}

TimedSpan::TimedSpan(const char* name) noexcept
    : start_ns_(now_ns()), span_(name) {}

TimedSpan::~TimedSpan() { stop(); }

void TimedSpan::stop() noexcept {
    if (stopped_) return;
    stopped_ = true;
    frozen_ns_ = now_ns() - start_ns_;
    if (span_.active_) span_.end();
}

double TimedSpan::seconds() const noexcept {
    const std::uint64_t ns = stopped_ ? frozen_ns_ : now_ns() - start_ns_;
    return static_cast<double>(ns) * 1e-9;
}

namespace {

void append_json_escaped(std::string& out, const char* text) {
    for (const char* p = text; *p != '\0'; ++p) {
        const char c = *p;
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char hex[8];
            std::snprintf(hex, sizeof(hex), "\\u%04x", c);
            out += hex;
        } else {
            out.push_back(c);
        }
    }
}

} // namespace

std::string chrome_trace_json() {
    const auto events = trace_events();
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;

    // Thread-name metadata rows so Perfetto labels the tracks.
    std::vector<std::uint32_t> tids;
    for (const SpanEvent& ev : events) tids.push_back(ev.tid);
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
    for (const std::uint32_t tid : tids) {
        char row[160];
        std::snprintf(row, sizeof(row),
                      "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                      "\"tid\":%u,\"args\":{\"name\":\"amret-%u\"}}",
                      first ? "" : ",", tid, tid);
        out += row;
        first = false;
    }

    for (const SpanEvent& ev : events) {
        char row[192];
        std::snprintf(row, sizeof(row),
                      "%s{\"name\":\"", first ? "" : ",");
        out += row;
        append_json_escaped(out, ev.name == nullptr ? "?" : ev.name);
        std::snprintf(
            row, sizeof(row),
            "\",\"cat\":\"amret\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
            "\"pid\":1,\"tid\":%u,\"args\":{\"cpu_ms\":%.3f,\"depth\":%u}}",
            static_cast<double>(ev.start_ns) * 1e-3,
            static_cast<double>(ev.end_ns - ev.start_ns) * 1e-3, ev.tid,
            static_cast<double>(ev.cpu_ns) * 1e-6, ev.depth);
        out += row;
        first = false;
    }
    out += "]}";
    return out;
}

bool write_chrome_trace(const std::string& path) {
    std::ofstream f(path, std::ios::binary);
    if (!f) return false;
    f << chrome_trace_json();
    return static_cast<bool>(f);
}

std::string profile_table() {
    const auto events = trace_events();
    if (events.empty()) return std::string();

    struct Agg {
        std::uint64_t count = 0;
        double wall_ms = 0.0;
        double cpu_ms = 0.0;
        double child_ms = 0.0;
    };
    // Keyed by call path ("train.run/train.epoch/train.step"): the map's
    // lexicographic order doubles as a depth-first render order.
    std::map<std::string, Agg> aggs;

    std::vector<std::pair<std::uint64_t, std::string>> stack; // (end_ns, path)
    std::uint32_t current_tid = 0xffffffffu;
    for (const SpanEvent& ev : events) {
        if (ev.tid != current_tid) {
            stack.clear();
            current_tid = ev.tid;
        }
        while (!stack.empty() && stack.back().first <= ev.start_ns)
            stack.pop_back();
        const char* name = ev.name == nullptr ? "?" : ev.name;
        std::string path =
            stack.empty() ? std::string(name) : stack.back().second + "/" + name;
        const double dur_ms =
            static_cast<double>(ev.end_ns - ev.start_ns) * 1e-6;
        Agg& agg = aggs[path];
        ++agg.count;
        agg.wall_ms += dur_ms;
        agg.cpu_ms += static_cast<double>(ev.cpu_ns) * 1e-6;
        if (!stack.empty()) aggs[stack.back().second].child_ms += dur_ms;
        stack.emplace_back(ev.end_ns, std::move(path));
    }

    double total_self_ms = 0.0;
    for (const auto& [path, agg] : aggs)
        total_self_ms += std::max(0.0, agg.wall_ms - agg.child_ms);

    util::TablePrinter table(
        {"Span", "Count", "Total/ms", "Self/ms", "CPU/ms", "Self%"});
    for (const auto& [path, agg] : aggs) {
        std::size_t depth = 0;
        std::size_t last_sep = 0;
        for (std::size_t i = 0; i < path.size(); ++i) {
            if (path[i] == '/') {
                ++depth;
                last_sep = i + 1;
            }
        }
        const double self_ms = std::max(0.0, agg.wall_ms - agg.child_ms);
        table.add_row({std::string(2 * depth, ' ') + path.substr(last_sep),
                       std::to_string(agg.count),
                       util::TablePrinter::num(agg.wall_ms, 3),
                       util::TablePrinter::num(self_ms, 3),
                       util::TablePrinter::num(agg.cpu_ms, 3),
                       util::TablePrinter::num(
                           total_self_ms > 0.0 ? 100.0 * self_ms / total_self_ms
                                               : 0.0,
                           1)});
    }
    std::string out = table.str();
    if (const std::uint64_t dropped = trace_dropped(); dropped > 0) {
        out += "(ring buffers overflowed: " + std::to_string(dropped) +
               " oldest spans overwritten)\n";
    }
    return out;
}

} // namespace amret::obs
