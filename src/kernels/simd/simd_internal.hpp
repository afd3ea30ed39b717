/// \file simd_internal.hpp
/// \brief Per-ISA leaf kernel declarations, private to src/kernels/simd/.
///
/// Each leaf lives in its own translation unit compiled with that ISA's
/// -m flags (see src/kernels/CMakeLists.txt), so the binary carries every
/// level and dispatch.cpp picks at runtime. On targets where a level is not
/// compiled (non-x86, or a toolchain without the intrinsics), the TU still
/// provides the symbols: compiled_*() returns false and the leaves are
/// unreachable stubs.
#pragma once

#include "kernels/simd/simd.hpp"

#include <cstdint>

namespace amret::kernels::simd::detail {

bool compiled_ssse3();
bool compiled_avx2();
bool compiled_avx512();

// Forward accumulation leaves. Contract of simd::accumulate_panel: fully
// own the real rows of the acc tile for block (rb, ob) — each holds the
// sum over the depth of `runs` afterwards. Every leaf walks the same runs:
// per depth block, each run clipped to the block, innermost over its
// contiguous depth indices. Pad row lanes may accumulate LUT[w, 0] or keep
// stale values (callers never read pad lanes).

/// The scalar block loop: the scalar level's leaf, and the fallback of
/// every level for operands its vector leaves do not take; every vector
/// leaf must match it bit for bit. For a fixed depth index it walks the
/// activation panel column and the accumulator row at unit stride, and
/// each pre-shifted weight code pins one product-LUT row (`lut + wcode`)
/// that consecutive activation codes index directly — the panel layout's
/// cache contract. Pad rows are left zero. Defined in dispatch.cpp.
void acc_panel_scalar(const LutGemmArgs& a, std::int64_t rb, std::int64_t ob,
                      const DepthRuns& runs, std::int64_t* acc);

/// pshufb 16-entry in-register LUT path (bits <= 4). Requires
/// a.x.packed4 != nullptr, a.x.plan.tr % 16 == 0, and every product-LUT
/// entry in [0, 255] (lut_fits_u8, checked by the dispatcher).
void acc_panel_nibble_ssse3(const LutGemmArgs& a, std::int64_t rb,
                            std::int64_t ob, const DepthRuns& runs,
                            std::int64_t* acc);
/// Same algorithm compiled VEX-encoded for AVX2-selected processes.
void acc_panel_nibble_avx2(const LutGemmArgs& a, std::int64_t rb,
                           std::int64_t ob, const DepthRuns& runs,
                           std::int64_t* acc);

/// Vector-gather path for wide (e.g. 8x8) multipliers: 8 activation codes
/// are widened, OR'd with the pre-shifted weight code and gathered from the
/// product LUT, accumulating into 4+4 independent int64 lanes. Walks the
/// block's real rows in whole vectors (pad lanes up to the next multiple of
/// 8 inside the panel) and the rest one by one.
void acc_panel_gather_avx2(const LutGemmArgs& a, std::int64_t rb,
                           std::int64_t ob, const DepthRuns& runs,
                           std::int64_t* acc);
/// 16-lane AVX-512 variant (8+8 int64 accumulator lanes).
void acc_panel_gather_avx512(const LutGemmArgs& a, std::int64_t rb,
                             std::int64_t ob, const DepthRuns& runs,
                             std::int64_t* acc);

/// In-register product-plane path (lut_planes.hpp): per filter and depth
/// index, the weight's two byte planes sit in eight zmm registers, and two
/// vpermi2b per plane and a blend on bit 7 look up the block's 64 lanes
/// at once. Each lookup's low and high bytes unpack into 16-bit products
/// that add into int32 row sums, one depth block's worth, and those into
/// the int64 tile. Requires a.lut_planes != nullptr and, as
/// lut_gemm_blocked does, a.x.plan.tr <= 64 (tune::kTileP) and
/// a.x.plan.tk <= tune::kTileK, so no row sum overflows; lanes past
/// a.x.plan.tr load as 0 and are never stored.
void acc_panel_planes_avx512(const LutGemmArgs& a, std::int64_t rb,
                             std::int64_t ob, const DepthRuns& runs,
                             std::int64_t* acc);

/// Output-channel-lane gather path for position blocks narrower than the
/// vector (fewer than 8 rows, e.g. a batch-1 conv at 2x2 or 1x1): lanes run
/// across 8 consecutive output channels, whose pre-shifted weight codes are
/// contiguous at each depth index of the k-major weight panel. Each is OR'd
/// with the broadcast code of one real activation row and gathered; the
/// channel tail runs masked. Writes the real rows of the tile only and
/// leaves pad rows untouched. The AVX-512 level runs it too.
void acc_panel_olanes_avx2(const LutGemmArgs& a, std::int64_t rb,
                           std::int64_t ob, const DepthRuns& runs,
                           std::int64_t* acc);

// Backward row walk (contract of simd::GradRowArgs): vectorize across 8
// (AVX2) or 16 (AVX-512) independent depth lanes while replaying the
// compacted nonzero gradients serially per lane. The AVX-512 leaf hands
// its last k % 16 lanes to grad_row_avx2, which walks lanes [kk0, k) and
// hands its last k % 8 to grad_row_scalar. Every gx/gw element performs the
// scalar oracle's float ops in the oracle's order, so results are
// bitwise-identical. Each leaf applies the in_taps skip to whole lane
// groups of its width (a scalar lane is a group of one), computes each
// group's constant d with the same lookup and subtraction, and returns the
// lanes it skipped.
std::int64_t grad_row_avx2(const GradRowArgs& a, std::int64_t kk0);
std::int64_t grad_row_avx512(const GradRowArgs& a);

/// Lanes [kk0, k) of the row walk, one at a time: the vector leaves' tail
/// and, below AVX2, the whole row. Defined in dispatch.cpp, which builds for
/// the baseline target, so the multiply-then-add is never contracted into
/// an FMA.
std::int64_t grad_row_scalar(const GradRowArgs& a, std::int64_t kk0);

// Float GEMM row walks (contract of simd::gemm_f32_rows), one copy of
// gemm_f32.inl per level: 4-row blocks in the AVX TUs, 2-row blocks in the
// baseline copy, which kernels/gemm.cpp defines.
void gemm_f32_rows_avx512(const GemmF32Args& g, std::int64_t r0, std::int64_t r1);
void gemm_f32_rows_avx2(const GemmF32Args& g, std::int64_t r0, std::int64_t r1);
void gemm_f32_rows_baseline(const GemmF32Args& g, std::int64_t r0, std::int64_t r1);

} // namespace amret::kernels::simd::detail
