/// \file lut_simd_avx512.cpp
/// \brief AVX-512F leaf kernels (compiled with -mavx512f -ffp-contract=off).
///
/// The wide-operand forward and the backward row walk widen here: 16
/// activation codes per forward gather into 8+8 int64 accumulator lanes,
/// and 16 depth lanes per backward gather. The float GEMM's 4x16 register
/// blocks (gemm_f32.inl) compile to one zmm vector per block row. The
/// nibble path stays on the AVX2 byte-table copy (pshufb beats gathers for
/// <=4-bit operands even at 512-bit width), routed by dispatch.cpp.

#include "kernels/simd/simd_internal.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>

#include "kernels/simd/gemm_f32.inl"

namespace amret::kernels::simd::detail {

bool compiled_avx512() { return true; }

void acc_panel_gather_avx512(const LutGemmArgs& a, std::int64_t rb,
                             std::int64_t ob, const DepthRuns& runs,
                             std::int64_t* acc) {
    const PanelPlan& xp = a.x.plan;
    const PanelPlan& wp = a.w.plan;
    const std::int64_t tp = xp.tr, to = wp.tr;
    const std::int64_t orr = wp.block_rows(ob);
    const std::int64_t kblocks = xp.depth_blocks();
    const std::int64_t p16 = tp & ~std::int64_t{15};
    const std::int64_t p8 = tp & ~std::int64_t{7};
    std::fill(acc, acc + orr * tp, std::int64_t{0});
    for (std::int64_t kb = 0; kb < kblocks; ++kb) {
        const std::int64_t kr = xp.block_depth(kb), kbase = kb * xp.tk;
        const std::uint16_t* xpan = a.x.codes + xp.panel_offset(rb, kb);
        const std::uint32_t* wpan = a.w.codes + wp.panel_offset(ob, kb);
        for (std::int64_t oo = 0; oo < orr; ++oo) {
            std::int64_t* arow = acc + oo * tp;
            for (std::int64_t pp0 = 0; pp0 < p16; pp0 += 16) {
                __m512i acc_lo = _mm512_setzero_si512();
                __m512i acc_hi = _mm512_setzero_si512();
                for (std::int64_t j = 0; j < runs.count; ++j) {
                    const std::int64_t hi = runs.hi(j, kbase, kr);
                    for (std::int64_t kk = runs.lo(j, kbase); kk < hi; ++kk) {
                        const std::uint32_t wcode = wpan[kk * to + oo];
                        const __m256i x16 =
                            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                                xpan + kk * tp + pp0));
                        const __m512i idx = _mm512_or_si512(
                            _mm512_set1_epi32(static_cast<int>(wcode)),
                            _mm512_cvtepu16_epi32(x16));
                        const __m512i v = _mm512_i32gather_epi32(idx, a.lut, 4);
                        acc_lo = _mm512_add_epi64(
                            acc_lo,
                            _mm512_cvtepi32_epi64(_mm512_castsi512_si256(v)));
                        acc_hi = _mm512_add_epi64(
                            acc_hi, _mm512_cvtepi32_epi64(
                                        _mm512_extracti64x4_epi64(v, 1)));
                    }
                }
                _mm512_storeu_si512(
                    arow + pp0,
                    _mm512_add_epi64(_mm512_loadu_si512(arow + pp0), acc_lo));
                _mm512_storeu_si512(
                    arow + pp0 + 8,
                    _mm512_add_epi64(_mm512_loadu_si512(arow + pp0 + 8),
                                     acc_hi));
            }
            // One 8-lane group when tp % 16 >= 8 (-mavx512f implies AVX2).
            for (std::int64_t pp0 = p16; pp0 < p8; pp0 += 8) {
                __m256i acc_lo = _mm256_setzero_si256();
                __m256i acc_hi = _mm256_setzero_si256();
                for (std::int64_t j = 0; j < runs.count; ++j) {
                    const std::int64_t hi = runs.hi(j, kbase, kr);
                    for (std::int64_t kk = runs.lo(j, kbase); kk < hi; ++kk) {
                        const std::uint32_t wcode = wpan[kk * to + oo];
                        const __m128i x8 =
                            _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                xpan + kk * tp + pp0));
                        const __m256i idx = _mm256_or_si256(
                            _mm256_set1_epi32(static_cast<int>(wcode)),
                            _mm256_cvtepu16_epi32(x8));
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
            // Remaining lanes (tp % 8, incl. pads): scalar, still exact.
            for (std::int64_t j = 0; j < runs.count && p8 < tp; ++j) {
                const std::int64_t hi = runs.hi(j, kbase, kr);
                for (std::int64_t kk = runs.lo(j, kbase); kk < hi; ++kk) {
                    const std::int32_t* lrow = a.lut + wpan[kk * to + oo];
                    const std::uint16_t* xv = xpan + kk * tp;
                    for (std::int64_t pp = p8; pp < tp; ++pp)
                        arow[pp] += lrow[xv[pp]];
                }
            }
        }
    }
}

std::int64_t grad_row_avx512(const GradRowArgs& a) {
    const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(a.bits));
    std::int64_t skipped = 0;
    std::int64_t kk0 = 0;
    for (; kk0 + 16 <= a.k; kk0 += 16) {
        const __m512i rows = _mm512_sll_epi32(
            _mm512_cvtepu16_epi32(_mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(a.fixed + kk0))),
            shift);
        const std::uint32_t taps = a.in_taps && a.cnt > 0 ? a.taps_of(kk0, 16) : 0;
        __m512 d = _mm512_setzero_ps();
        if (taps != 0)
            d = _mm512_sub_ps(
                _mm512_i32gather_ps(
                    _mm512_or_si512(rows, _mm512_set1_epi32(a.pad_code)), a.lut, 4),
                _mm512_set1_ps(a.z[0]));
        __m512 acc = _mm512_setzero_ps();
        for (std::int64_t j = 0; j < a.cnt; ++j) {
            // Oracle order per lane: m * (lut - z), then add.
            if (taps != 0 && (a.in_taps[j] & taps) == 0) {
                acc = _mm512_add_ps(acc, _mm512_mul_ps(_mm512_set1_ps(a.m[j]), d));
                skipped += 16;
                continue;
            }
            const __m512i op = _mm512_cvtepu16_epi32(_mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(a.ops + a.off[j] + kk0)));
            const __m512 lut =
                _mm512_i32gather_ps(_mm512_or_si512(rows, op), a.lut, 4);
            acc = _mm512_add_ps(
                acc, _mm512_mul_ps(_mm512_set1_ps(a.m[j]),
                                   _mm512_sub_ps(lut, _mm512_set1_ps(a.z[j]))));
        }
        if (a.mask) {
            // Lanes whose mask byte is 0 store +0.0f.
            const __m512i mk = _mm512_cvtepu8_epi32(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(a.mask + kk0)));
            acc = _mm512_maskz_mov_ps(_mm512_test_epi32_mask(mk, mk), acc);
        }
        _mm512_storeu_ps(a.out + kk0, acc);
    }
    // At most one 8-lane step, then the scalar tail.
    return skipped + grad_row_avx2(a, kk0);
}

void gemm_f32_rows_avx512(const GemmF32Args& g, std::int64_t r0, std::int64_t r1) {
    gemm_f32_rows_impl<4, 16>(g, r0, r1);
}

} // namespace amret::kernels::simd::detail

#else // !defined(__AVX512F__)

namespace amret::kernels::simd::detail {

bool compiled_avx512() { return false; }

// Unreachable: dispatch.cpp never routes to a level compiled() rejects.
void acc_panel_gather_avx512(const LutGemmArgs&, std::int64_t,
                             std::int64_t, const DepthRuns&, std::int64_t*) {}
std::int64_t grad_row_avx512(const GradRowArgs&) { return 0; }

void gemm_f32_rows_avx512(const GemmF32Args&, std::int64_t, std::int64_t) {}

} // namespace amret::kernels::simd::detail

#endif // __AVX512F__
