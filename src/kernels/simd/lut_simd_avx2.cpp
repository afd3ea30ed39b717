/// \file lut_simd_avx2.cpp
/// \brief AVX2 leaf kernels (compiled with -mavx2 -ffp-contract=off).
///
/// Three capabilities arrive at this level:
///   - the nibble path re-compiles VEX-encoded (acc_panel_nibble.inl);
///   - vector gathers unlock the wide-operand forward: 8 activation codes
///     are widened, OR'd with the pre-shifted weight code and gathered from
///     the product LUT, accumulating in 4+4 independent int64 lanes;
///   - the backward row walk vectorizes across 8 depth lanes while the
///     compacted nonzero-gradient replay stays serial per lane;
///   - the float GEMM's 4x16 register blocks (gemm_f32.inl) compile to
///     two ymm vectors per block row.
///
/// -ffp-contract=off is part of the numerical contract, not an
/// optimization knob: the backward walk's and the float GEMM's
/// multiply-then-add must round like the oracles', so they may never be
/// fused into an FMA. The walk's scalar tail lives in dispatch.cpp, which
/// builds for the baseline target.

#include "kernels/simd/simd_internal.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

#include "kernels/simd/acc_panel_nibble.inl"
#include "kernels/simd/gemm_f32.inl"

namespace amret::kernels::simd::detail {

bool compiled_avx2() { return true; }

void acc_panel_nibble_avx2(const LutGemmArgs& a, std::int64_t rb,
                           std::int64_t ob, const DepthRuns& runs,
                           std::int64_t* acc) {
    acc_panel_nibble_impl(a, rb, ob, runs, acc);
}

void acc_panel_gather_avx2(const LutGemmArgs& a, std::int64_t rb,
                           std::int64_t ob, const DepthRuns& runs,
                           std::int64_t* acc) {
    const PanelPlan& xp = a.x.plan;
    const PanelPlan& wp = a.w.plan;
    const std::int64_t tp = xp.tr, to = wp.tr;
    const std::int64_t pr = xp.block_rows(rb);
    const std::int64_t orr = wp.block_rows(ob);
    const std::int64_t kblocks = xp.depth_blocks();
    // The block's rows in 8-lane groups, pad lanes up to the next multiple
    // of 8 that the panel holds, then single rows.
    const std::int64_t pvec =
        std::min(tp, (pr + 7) & ~std::int64_t{7}) & ~std::int64_t{7};
    std::fill(acc, acc + orr * tp, std::int64_t{0});
    for (std::int64_t kb = 0; kb < kblocks; ++kb) {
        const std::int64_t kr = xp.block_depth(kb), kbase = kb * xp.tk;
        const std::uint16_t* xpan = a.x.codes + xp.panel_offset(rb, kb);
        const std::uint32_t* wpan = a.w.codes + wp.panel_offset(ob, kb);
        for (std::int64_t oo = 0; oo < orr; ++oo) {
            std::int64_t* arow = acc + oo * tp;
            for (std::int64_t pp0 = 0; pp0 < pvec; pp0 += 8) {
                __m256i acc_lo = _mm256_setzero_si256();
                __m256i acc_hi = _mm256_setzero_si256();
                for (std::int64_t j = 0; j < runs.count; ++j) {
                    const std::int64_t hi = runs.hi(j, kbase, kr);
                    for (std::int64_t kk = runs.lo(j, kbase); kk < hi; ++kk) {
                        const std::uint32_t wcode = wpan[kk * to + oo];
                        const __m128i x16 =
                            _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                xpan + kk * tp + pp0));
                        const __m256i idx = _mm256_or_si256(
                            _mm256_set1_epi32(static_cast<int>(wcode)),
                            _mm256_cvtepu16_epi32(x16));
                        const __m256i v = _mm256_i32gather_epi32(
                            reinterpret_cast<const int*>(a.lut), idx, 4);
                        acc_lo = _mm256_add_epi64(
                            acc_lo,
                            _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)));
                        acc_hi = _mm256_add_epi64(
                            acc_hi, _mm256_cvtepi32_epi64(
                                        _mm256_extracti128_si256(v, 1)));
                    }
                }
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i*>(arow + pp0),
                    _mm256_add_epi64(_mm256_loadu_si256(
                                         reinterpret_cast<const __m256i*>(
                                             arow + pp0)),
                                     acc_lo));
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i*>(arow + pp0 + 4),
                    _mm256_add_epi64(_mm256_loadu_si256(
                                         reinterpret_cast<const __m256i*>(
                                             arow + pp0 + 4)),
                                     acc_hi));
            }
            // Remaining rows (pr % 8 where the panel ends first): scalar,
            // still exact.
            for (std::int64_t j = 0; j < runs.count && pvec < pr; ++j) {
                const std::int64_t hi = runs.hi(j, kbase, kr);
                for (std::int64_t kk = runs.lo(j, kbase); kk < hi; ++kk) {
                    const std::int32_t* lrow = a.lut + wpan[kk * to + oo];
                    const std::uint16_t* xv = xpan + kk * tp;
                    for (std::int64_t pp = pvec; pp < pr; ++pp)
                        arow[pp] += lrow[xv[pp]];
                }
            }
        }
    }
}

void acc_panel_olanes_avx2(const LutGemmArgs& a, std::int64_t rb,
                           std::int64_t ob, const DepthRuns& runs,
                           std::int64_t* acc) {
    const PanelPlan& xp = a.x.plan;
    const PanelPlan& wp = a.w.plan;
    const std::int64_t tp = xp.tr, to = wp.tr;
    const std::int64_t pr = xp.block_rows(rb);
    const std::int64_t orr = wp.block_rows(ob);
    const std::int64_t kblocks = xp.depth_blocks();
    for (std::int64_t o0 = 0; o0 < orr; o0 += 8) {
        const std::int64_t lanes = std::min<std::int64_t>(8, orr - o0);
        const __m256i live =
            _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                               _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        for (std::int64_t pp = 0; pp < pr; ++pp) {
            __m256i acc_lo = _mm256_setzero_si256();
            __m256i acc_hi = _mm256_setzero_si256();
            for (std::int64_t kb = 0; kb < kblocks; ++kb) {
                const std::int64_t kr = xp.block_depth(kb), kbase = kb * xp.tk;
                const std::uint16_t* xcol =
                    a.x.codes + xp.panel_offset(rb, kb) + pp;
                const std::uint32_t* wrow =
                    a.w.codes + wp.panel_offset(ob, kb) + o0;
                for (std::int64_t j = 0; j < runs.count; ++j) {
                    const std::int64_t hi = runs.hi(j, kbase, kr);
                    for (std::int64_t kk = runs.lo(j, kbase); kk < hi; ++kk) {
                        // 8 pre-shifted weight codes are contiguous at fixed
                        // kk; one activation code picks the column of each
                        // row.
                        const __m256i idx = _mm256_or_si256(
                            _mm256_maskload_epi32(
                                reinterpret_cast<const int*>(wrow + kk * to),
                                live),
                            _mm256_set1_epi32(xcol[kk * tp]));
                        const __m256i v = _mm256_mask_i32gather_epi32(
                            _mm256_setzero_si256(),
                            reinterpret_cast<const int*>(a.lut), idx, live, 4);
                        acc_lo = _mm256_add_epi64(
                            acc_lo,
                            _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)));
                        acc_hi = _mm256_add_epi64(
                            acc_hi, _mm256_cvtepi32_epi64(
                                        _mm256_extracti128_si256(v, 1)));
                    }
                }
            }
            alignas(32) std::int64_t sums[8];
            _mm256_store_si256(reinterpret_cast<__m256i*>(sums), acc_lo);
            _mm256_store_si256(reinterpret_cast<__m256i*>(sums + 4), acc_hi);
            for (std::int64_t j = 0; j < lanes; ++j)
                acc[(o0 + j) * tp + pp] = sums[j];
        }
    }
}

std::int64_t grad_row_avx2(const GradRowArgs& a, std::int64_t kk0) {
    const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(a.bits));
    std::int64_t skipped = 0;
    for (; kk0 + 8 <= a.k; kk0 += 8) {
        // One widening load of the fixed row's codes, shifted to table-row
        // bases once; per j one widening load of the operand row and a
        // gather that stays inside each lane's table row.
        const __m256i rows = _mm256_sll_epi32(
            _mm256_cvtepu16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i*>(a.fixed + kk0))),
            shift);
        const std::uint32_t taps = a.in_taps && a.cnt > 0 ? a.taps_of(kk0, 8) : 0;
        __m256 d = _mm256_setzero_ps();
        if (taps != 0)
            d = _mm256_sub_ps(
                _mm256_i32gather_ps(
                    a.lut, _mm256_or_si256(rows, _mm256_set1_epi32(a.pad_code)), 4),
                _mm256_set1_ps(a.z[0]));
        __m256 acc = _mm256_setzero_ps();
        for (std::int64_t j = 0; j < a.cnt; ++j) {
            // Oracle order per lane: m * (lut - z), then add — explicit
            // mul/add intrinsics, never FMA-contracted.
            if (taps != 0 && (a.in_taps[j] & taps) == 0) {
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(a.m[j]), d));
                skipped += 8;
                continue;
            }
            const __m256i op = _mm256_cvtepu16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i*>(a.ops + a.off[j] + kk0)));
            const __m256 lut =
                _mm256_i32gather_ps(a.lut, _mm256_or_si256(rows, op), 4);
            acc = _mm256_add_ps(
                acc, _mm256_mul_ps(_mm256_set1_ps(a.m[j]),
                                   _mm256_sub_ps(lut, _mm256_set1_ps(a.z[j]))));
        }
        if (a.mask) {
            // Lanes whose mask byte is 0 store +0.0f.
            const __m256i stop = _mm256_cmpeq_epi32(
                _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i*>(a.mask + kk0))),
                _mm256_setzero_si256());
            acc = _mm256_andnot_ps(_mm256_castsi256_ps(stop), acc);
        }
        _mm256_storeu_ps(a.out + kk0, acc);
    }
    return skipped + grad_row_scalar(a, kk0);
}

void gemm_f32_rows_avx2(const GemmF32Args& g, std::int64_t r0, std::int64_t r1) {
    gemm_f32_rows_impl<4, 8>(g, r0, r1);
}

} // namespace amret::kernels::simd::detail

#else // !defined(__AVX2__)

namespace amret::kernels::simd::detail {

bool compiled_avx2() { return false; }

// Unreachable: dispatch.cpp never routes to a level compiled() rejects.
void acc_panel_nibble_avx2(const LutGemmArgs&, std::int64_t, std::int64_t,
                           const DepthRuns&, std::int64_t*) {}
void acc_panel_gather_avx2(const LutGemmArgs&, std::int64_t, std::int64_t,
                           const DepthRuns&, std::int64_t*) {}
void acc_panel_olanes_avx2(const LutGemmArgs&, std::int64_t, std::int64_t,
                           const DepthRuns&, std::int64_t*) {}
std::int64_t grad_row_avx2(const GradRowArgs&, std::int64_t) { return 0; }

void gemm_f32_rows_avx2(const GemmF32Args&, std::int64_t, std::int64_t) {}

} // namespace amret::kernels::simd::detail

#endif // __AVX2__
