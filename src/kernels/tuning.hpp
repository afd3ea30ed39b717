/// \file tuning.hpp
/// \brief Named tuning constants for the LUT-kernel layer.
///
/// Every grain and tile dimension used by the hot paths lives here, so
/// tuning happens in one place instead of as magic numbers scattered over
/// the consumers. Two rules keep the determinism contract intact:
///   - parallel_for grains over *disjoint-write* loops may change freely
///     (chunking never changes what a chunk computes);
///   - grains feeding parallel_accumulate (kGrainBiasRows) change the
///     chunk-reduction association order and therefore the float results —
///     treat them as part of the numerical contract, not free tuning knobs.
/// Tile dimensions (kTileP/kTileO/kTileK) only re-block integer-accumulated
/// or order-preserving loops, so they are always safe to tune (see
/// lut_kernels.hpp).
#pragma once

#include <cstdint>

namespace amret::kernels::tune {

/// Per-channel / per-filter loops (one channel is already a big work item).
inline constexpr std::int64_t kGrainChannel = 1;

/// Position-row loops of a LUT GEMM (forward rows, gx rows).
inline constexpr std::int64_t kGrainGemmRows = 4;

/// Row-sum / LUT-table-row scans.
inline constexpr std::int64_t kGrainSumRows = 8;

/// Gradient-LUT row fills and per-row LUT invariant checks (each row is a
/// 2^B-entry scan plus a difference-gradient pass).
inline constexpr std::int64_t kGrainLutRows = 4;

/// Bias-gradient accumulation rows. Feeds parallel_accumulate: changing it
/// changes the reduction association order and thus float results.
inline constexpr std::int64_t kGrainBiasRows = 16;

/// Position-row layout transforms (scatter/gather, bias add).
inline constexpr std::int64_t kGrainCopyRows = 64;

/// Elementwise mask / scale loops.
inline constexpr std::int64_t kGrainElementwise = 256;

/// Wide elementwise loops (quantization, input conversion).
inline constexpr std::int64_t kGrainElementwiseWide = 1024;

/// Work (LUT lookups or multiply-adds) below which a parallel chunk of a
/// GEMM costs more to dispatch than it saves: a call with less than this
/// much work, e.g. a batch-1 head, runs on the caller (chunk_grain).
inline constexpr std::int64_t kMinChunkWork = std::int64_t{1} << 18;

/// LUT-GEMM tile block dims; the int64 accumulator tile is kTileP x kTileO.
/// Tuned from bench_micro --tile-sweep (results/kernel_tile_sweep.csv): the
/// random product-LUT lookups dominate, so wide K blocks win (K splitting
/// only adds accumulator-tile traffic) and large P/O tiles amortize the
/// epilogue. kTileK still bounds the operand rows touched per accumulator
/// pass for very deep reductions (patch > 1024).
///
/// These are the COMPILED FALLBACKS only: TileConfig now defaults to
/// kernels::Tuning::current(), which resolves AMRET_TILES, then the
/// persistent auto-tuner output (results/kernel_tuning.json, written by
/// bench_micro --tile-sweep), and only then these constants.
inline constexpr std::int64_t kTileP = 16;
inline constexpr std::int64_t kTileO = 64;
inline constexpr std::int64_t kTileK = 1024;

} // namespace amret::kernels::tune

namespace amret::kernels {

/// Items per parallel chunk for \p count items of \p item_work units of
/// work each: at least tune::kMinChunkWork / item_work items (rounded down,
/// at least 1), so every chunk but the last covers more than half of
/// tune::kMinChunkWork; at most runtime::kMaxChunks chunks; a multiple of
/// \p align. Work below tune::kMinChunkWork gives one chunk. A pure
/// function of the shape, as the runtime's determinism contract asks; the
/// float GEMM and the engine's LUT-GEMM size their chunks with it.
std::int64_t chunk_grain(std::int64_t count, std::int64_t item_work,
                         std::int64_t align = 1);

/// Runtime tile/layout picks for the LUT-GEMM family. Resolution order:
///   1. AMRET_TILES=PxOxK (e.g. "16x64x1024") — explicit override;
///   2. the persistent auto-tuner file written by bench_micro --tile-sweep
///      (results/kernel_tuning.json, or the path in AMRET_TUNING_FILE);
///      when the file carries a per-ISA block matching the active SIMD
///      dispatch level (kernels::simd::select()), that block's tiles win;
///   3. the compiled tune::kTile* defaults.
/// A tuner file that exists but is malformed or out-of-range is rejected
/// whole with a typed warning (obs::warn_once) and the defaults stand.
/// Tile dimensions only re-block integer-accumulated or order-preserving
/// loops (see lut_kernels.hpp), so any resolved pick is numerically safe.
struct Tuning {
    std::int64_t tp = tune::kTileP;
    std::int64_t to = tune::kTileO;
    std::int64_t tk = tune::kTileK;

    /// The process-wide picks (resolved once, cached; thread-safe).
    static const Tuning& current();
    /// Uncached resolution (env + file + defaults) — what current() caches.
    static Tuning resolve();
    /// Test/tool hook: overrides current() process-wide. Call only while no
    /// kernels are running (tests and bench set it between measurements).
    static void set_for_test(const Tuning& t);
    /// Removes a set_for_test override.
    static void clear_test_override();
};

/// Which kernel data layout the quantized layers and the inference engine
/// run. The scalar row-major path is retained as the bitwise oracle; the
/// blocked paths are memcmp-identical to it by construction (int64 forward,
/// order-preserving float backward).
enum class LayoutMode {
    kScalar,      ///< PR-3 row-major codes (the oracle)
    kBlocked,     ///< panelized codes, NCHW activations between engine ops
    kBlockedNhwc, ///< panelized codes + NHWC-interleaved engine activations
};

/// Process-wide layout mode: AMRET_LAYOUT=scalar|blocked|blocked-nhwc
/// (default blocked), resolved once; set_layout_mode overrides (tests/bench,
/// call only between kernel invocations). The sibling knob
/// AMRET_SIMD=scalar|ssse3|avx2|avx512 caps which vector kernels run on the
/// blocked layouts (kernels/simd/simd.hpp); both are bitwise-neutral.
LayoutMode layout_mode();
void set_layout_mode(LayoutMode mode);
void clear_layout_mode_override();

} // namespace amret::kernels
