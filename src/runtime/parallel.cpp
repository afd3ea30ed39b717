#include "runtime/parallel.hpp"

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace amret::runtime {

namespace {

/// Hard ceiling on the configurable thread count; a safety valve against
/// runaway AMRET_THREADS values, far above any useful CPU parallelism here.
constexpr unsigned kMaxThreads = 256;

thread_local int t_serial_depth = 0; ///< SerialGuard nesting on this thread

struct Context {
    std::mutex mutex;
    unsigned threads = 0; ///< 0 = not yet resolved
    std::unique_ptr<ThreadPool> pool;
};

Context& context() {
    static Context ctx;
    return ctx;
}

/// AMRET_THREADS when it is a whole positive integer (capped at
/// kMaxThreads), else the hardware thread count. A set but malformed value
/// ("8x", "abc", "0", "-3") falls back too, with a typed warning.
unsigned resolve_auto() {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const char* env = std::getenv("AMRET_THREADS");
    if (env == nullptr || env[0] == '\0') return hw;
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && errno == 0 && v > 0)
        return static_cast<unsigned>(std::min<long>(v, kMaxThreads));
    obs::warn_once("runtime.threads_env_invalid",
                   std::string("AMRET_THREADS=") + env +
                       " is not a positive integer; using the " +
                       std::to_string(hw) + " hardware threads");
    return hw;
}

/// Applies a resolved thread count to \p ctx; caller holds ctx.mutex.
void reconfigure(Context& ctx, unsigned threads) {
    ctx.threads = threads;
    ctx.pool.reset();
    if (threads > 1) ctx.pool = std::make_unique<ThreadPool>(threads - 1);
}

/// The pool to dispatch on (nullptr = serial), resolving the configuration
/// on first use.
ThreadPool* acquire_pool() {
    Context& ctx = context();
    std::lock_guard<std::mutex> lock(ctx.mutex);
    if (ctx.threads == 0) reconfigure(ctx, resolve_auto());
    return ctx.pool.get();
}

} // namespace

unsigned num_threads() {
    Context& ctx = context();
    std::lock_guard<std::mutex> lock(ctx.mutex);
    if (ctx.threads == 0) reconfigure(ctx, resolve_auto());
    return ctx.threads;
}

void set_num_threads(unsigned n) {
    Context& ctx = context();
    std::lock_guard<std::mutex> lock(ctx.mutex);
    reconfigure(ctx, n == 0 ? resolve_auto() : std::min(n, kMaxThreads));
}

SerialGuard::SerialGuard() { ++t_serial_depth; }
SerialGuard::~SerialGuard() { --t_serial_depth; }

bool in_serial_region() {
    if (t_serial_depth > 0) return true;
    Context& ctx = context();
    std::lock_guard<std::mutex> lock(ctx.mutex);
    return ctx.pool != nullptr && ctx.pool->active_on_this_thread();
}

std::int64_t chunk_count(std::int64_t begin, std::int64_t end, std::int64_t grain) {
    if (end <= begin) return 0;
    const std::int64_t g = std::max<std::int64_t>(1, grain);
    return (end - begin + g - 1) / g;
}

std::int64_t grain_for(std::int64_t n, std::int64_t min_grain) {
    const std::int64_t balanced = (n + kMaxChunks - 1) / kMaxChunks;
    return std::max<std::int64_t>(std::max<std::int64_t>(1, min_grain), balanced);
}

void parallel_for_chunks(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t, std::size_t)>& fn) {
    const std::int64_t chunks = chunk_count(begin, end, grain);
    if (chunks == 0) return;
    AMRET_OBS_COUNT("runtime.parallel_for.calls", 1);
    AMRET_OBS_COUNT("runtime.parallel_for.chunks", chunks);
    // Region span on the calling thread; per-chunk spans land on whichever
    // worker ran the chunk, giving the trace its thread attribution. Spans
    // read clocks only — chunk decomposition and execution order never
    // depend on them (determinism contract, DESIGN.md §12).
    AMRET_OBS_SPAN("runtime.parallel_for");
    const std::int64_t g = std::max<std::int64_t>(1, grain);
    auto run_chunk = [&](std::size_t c) {
        AMRET_OBS_SPAN("runtime.chunk");
        const std::int64_t b = begin + static_cast<std::int64_t>(c) * g;
        fn(b, std::min(end, b + g), c);
    };

    ThreadPool* pool = acquire_pool();
    const bool serial = pool == nullptr || chunks == 1 || t_serial_depth > 0 ||
                        pool->active_on_this_thread();
    if (serial) {
        // Identical decomposition, ascending order: bitwise-equal to the
        // threaded path under the determinism contract.
        for (std::int64_t c = 0; c < chunks; ++c)
            run_chunk(static_cast<std::size_t>(c));
        return;
    }
    pool->run(static_cast<std::size_t>(chunks), run_chunk);
}

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn) {
    parallel_for_chunks(begin, end, grain,
                        [&fn](std::int64_t b, std::int64_t e, std::size_t) {
                            fn(b, e);
                        });
}

void parallel_accumulate(std::int64_t begin, std::int64_t end, std::int64_t grain,
                         std::size_t width,
                         const std::function<void(std::int64_t, float*)>& fn,
                         float* out) {
    const std::int64_t chunks = chunk_count(begin, end, grain);
    if (chunks == 0 || width == 0) return;
    std::vector<float> scratch(static_cast<std::size_t>(chunks) * width, 0.0f);
    parallel_for_chunks(begin, end, grain,
                        [&](std::int64_t b, std::int64_t e, std::size_t c) {
                            float* acc = scratch.data() + c * width;
                            for (std::int64_t i = b; i < e; ++i) fn(i, acc);
                        });
    const float* acc = scratch.data();
    for (std::int64_t c = 0; c < chunks; ++c, acc += width)
        for (std::size_t j = 0; j < width; ++j) out[j] += acc[j];
}

} // namespace amret::runtime
