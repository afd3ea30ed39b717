#include "common.hpp"

#include "obs/obs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <dirent.h>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <sys/syscall.h>
#include <unistd.h>

namespace perfbench {

namespace {

std::int64_t g_process_start_ns = 0;

void put_string(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void put_number(std::string& out, double v) {
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

void put_numbers(std::string& out, const std::vector<double>& v) {
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i) out += ',';
        put_number(out, v[i]);
    }
    out += ']';
}

template <typename Map, typename Put>
void put_map(std::string& out, const Map& m, Put put) {
    out += '{';
    bool first = true;
    for (const auto& [k, v] : m) {
        if (!first) out += ',';
        first = false;
        put_string(out, k);
        out += ':';
        put(out, v);
    }
    out += '}';
}

} // namespace

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t process_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::int64_t thread_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

ThreadClocks::ThreadClocks(bool include_caller) {
    const long self = syscall(SYS_gettid);
    DIR* dir = opendir("/proc/self/task");
    if (dir == nullptr) return;
    while (const dirent* entry = readdir(dir)) {
        if (entry->d_name[0] == '.') continue;
        const long tid = std::stol(entry->d_name);
        if (tid == self && !include_caller) continue;
        // The CPU clock of thread `tid`, encoded as pthread_getcpuclockid()
        // does (per-thread, scheduler clock); readable by any thread of the
        // same process.
        clocks_.push_back(static_cast<clockid_t>(
            (~static_cast<unsigned>(tid) << 3) | 6U));
    }
    closedir(dir);
    used_.assign(clocks_.size(), 0);
    mark();
}

std::vector<std::int64_t> ThreadClocks::read() const {
    std::vector<std::int64_t> out(clocks_.size(), 0);
    for (std::size_t i = 0; i < clocks_.size(); ++i) {
        timespec ts{};
        // A thread that has exited reads as an error: it used no more CPU.
        if (clock_gettime(clocks_[i], &ts) == 0)
            out[i] = static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
        else if (i < base_.size())
            out[i] = base_[i];
    }
    return out;
}

void ThreadClocks::mark() { base_ = read(); }

void ThreadClocks::add() {
    const std::vector<std::int64_t> now = read();
    for (std::size_t i = 0; i < now.size(); ++i) used_[i] += now[i] - base_[i];
    base_ = now;
}

double ThreadClocks::busiest_ms() const {
    const auto most = std::max_element(used_.begin(), used_.end());
    return most == used_.end() ? 0.0 : static_cast<double>(*most) * 1e-6;
}

void mark_process_start() { g_process_start_ns = now_ns(); }

std::int64_t process_start_ns() { return g_process_start_ns; }

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

std::string hex64(std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back(Check{name, ok, detail});
}

std::string to_json(const Options& opt, const Report& r) {
    std::string out = "{";
    out += "\"workload\":";
    put_string(out, opt.workload);
    out += ",\"seed\":" + std::to_string(opt.seed);
    out += ",\"seconds\":";
    put_number(out, opt.seconds);
    out += ",\"trace\":";
    out += opt.trace ? "true" : "false";
    out += ",\"threads\":" + std::to_string(r.threads);
    out += ",\"setup_s\":";
    put_number(out, r.setup_s);
    out += ",\"setup_cpu_s\":";
    put_number(out, r.setup_cpu_s);
    out += ",\"setup_ms\":";
    put_map(out, r.setup_ms, put_number);
    out += ",\"peak_rss_mb\":";
    put_number(out, peak_rss_mb());
    out += ",\"attempted\":" + std::to_string(r.attempted);
    out += ",\"failed\":" + std::to_string(r.failed);
    out += ",\"checks\":[";
    for (std::size_t i = 0; i < r.checks.size(); ++i) {
        if (i) out += ',';
        out += "{\"name\":";
        put_string(out, r.checks[i].name);
        out += ",\"ok\":";
        out += r.checks[i].ok ? "true" : "false";
        out += ",\"detail\":";
        put_string(out, r.checks[i].detail);
        out += '}';
    }
    out += "],\"digest\":";
    put_string(out, r.digest);
    out += ",\"series\":";
    put_map(out, r.series, put_numbers);
    out += ",\"scalars\":";
    put_map(out, r.scalars, put_number);
    out += ",\"layers\":";
    put_map(out, r.layers, put_number);
    out += ",\"rows\":[";
    for (std::size_t i = 0; i < r.rows.size(); ++i) {
        if (i) out += ',';
        put_map(out, r.rows[i], put_string);
    }
    out += "],\"info\":";
    put_map(out, r.info, put_string);
    out += "}\n";
    return out;
}

const char* intern(const std::string& s) {
    static std::mutex mutex;
    static std::deque<std::string> pool;
    const std::lock_guard<std::mutex> lock(mutex);
    for (const std::string& have : pool)
        if (have == s) return have.c_str();
    pool.push_back(s);
    return pool.back().c_str();
}

std::int64_t counter_value(const std::string& name) {
    for (const auto& [n, v] : amret::obs::counters_snapshot())
        if (n == name) return v;
    return 0;
}

std::int64_t counter_sum(const std::string& prefix) {
    std::int64_t sum = 0;
    for (const auto& [n, v] : amret::obs::counters_snapshot())
        if (n.rfind(prefix, 0) == 0) sum += v;
    return sum;
}

} // namespace perfbench
