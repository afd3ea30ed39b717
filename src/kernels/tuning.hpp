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
/// or order-preserving loops, so changing them never changes a result (see
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

/// LUT-GEMM panel dims: rows per activation panel (kTileP), rows per weight
/// panel (kTileO) and depth per panel (kTileK); one block's int64
/// accumulator tile is kTileP x kTileO. The random product-LUT lookups
/// dominate, so wide depth panels win (splitting K only adds accumulator
/// traffic) and large row tiles amortize the epilogue; kTileK still bounds
/// the operand rows one pass touches for very deep reductions (patch >
/// 1024). Compiled constants: tiles swept per machine measured no better end
/// to end (DESIGN.md §15.3).
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

// ----------------------------------------------------------------------
// Run fingerprint of perfbench/cpp/main.cpp, which names the tiles and the
// kernel layout of every benchmark run. There is one layout and the tiles
// are compiled, so both answers are constants; this block goes once the
// benchmark stops recording them.
// ----------------------------------------------------------------------

/// The compiled tiles (tune::kTile*).
struct Tuning {
    std::int64_t tp = tune::kTileP;
    std::int64_t to = tune::kTileO;
    std::int64_t tk = tune::kTileK;

    static const Tuning& current();
};

/// The layout names a run fingerprint knows; every run is kBlocked.
enum class LayoutMode { kScalar, kBlocked, kBlockedNhwc };

/// Always LayoutMode::kBlocked.
LayoutMode layout_mode();

} // namespace amret::kernels
