/// \file parallel.hpp
/// \brief Deterministic data-parallel primitives for the hot paths.
///
/// The determinism contract: a parallel loop is decomposed into chunks whose
/// boundaries depend only on (begin, end, grain) — never on the thread
/// count — and every chunk either writes disjoint outputs or accumulates
/// into its own buffer that is reduced in ascending chunk order. Under this
/// contract forward, backward and the HWS sweep produce bitwise-identical
/// results for any AMRET_THREADS, including 1 (the serial path runs the same
/// chunks in ascending order).
///
/// Configuration: the global thread count comes from set_num_threads(), the
/// AMRET_THREADS environment variable, or std::thread::hardware_concurrency,
/// in that priority order. Nested parallel regions are serialized (the inner
/// loop runs its chunks inline), so coarse-grained parallelism — e.g. the
/// candidate-parallel HWS sweep — composes with the kernel-level loops.
#pragma once

#include <cstdint>
#include <functional>

namespace amret::runtime {

/// Upper bound on chunks produced by grain_for(); bounds per-chunk scratch
/// memory in parallel_accumulate while leaving enough slack over any sane
/// thread count for load balancing.
inline constexpr std::int64_t kMaxChunks = 64;

/// Effective thread count (>= 1). Resolved on first use from AMRET_THREADS,
/// falling back to hardware concurrency. A set value that is not a whole
/// positive integer ("8x", "0") falls back too and raises the typed warning
/// `runtime.threads_env_invalid`.
unsigned num_threads();

/// Reconfigures the pool. n == 0 re-resolves from the environment/hardware.
/// Not safe to call while a parallel_for is in flight on another thread;
/// intended for startup (CLI --threads) and tests.
void set_num_threads(unsigned n);

/// True when parallel_for would run serially on the current thread — inside
/// a chunk body (nested region) or under a SerialGuard.
bool in_serial_region();

/// Scoped override forcing every parallel_for on the current thread to run
/// its chunks inline, in ascending order. Results are unchanged by the
/// determinism contract; useful for tests and debugging.
class SerialGuard {
public:
    SerialGuard();
    ~SerialGuard();
    SerialGuard(const SerialGuard&) = delete;
    SerialGuard& operator=(const SerialGuard&) = delete;
};

/// Number of chunks [begin, end) decomposes into at the given grain
/// (grain < 1 is treated as 1). Depends only on its arguments.
std::int64_t chunk_count(std::int64_t begin, std::int64_t end, std::int64_t grain);

/// A grain that yields at most kMaxChunks chunks for n items while keeping
/// every chunk at least min_grain wide. A pure function of (n, min_grain),
/// so chunking stays independent of the thread count.
std::int64_t grain_for(std::int64_t n, std::int64_t min_grain);

/// Runs fn(chunk_begin, chunk_end) for every chunk of [begin, end). The
/// caller guarantees chunks write disjoint data. Exceptions from any chunk
/// are rethrown in the caller after the loop drains.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn);

/// Like parallel_for but also hands fn the chunk index, for indexing
/// per-chunk scratch (e.g. accumulation buffers).
void parallel_for_chunks(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t, std::size_t)>& fn);

/// Deterministic parallel sum-reduction: each chunk of [begin, end) calls
/// fn(i, acc) with its own zero-initialized accumulator of \p width floats,
/// and the per-chunk accumulators are added into \p out in ascending chunk
/// order. The result is a pure function of (begin, end, grain, fn) — the
/// thread count never changes the association order.
void parallel_accumulate(std::int64_t begin, std::int64_t end, std::int64_t grain,
                         std::size_t width,
                         const std::function<void(std::int64_t, float*)>& fn,
                         float* out);

} // namespace amret::runtime
