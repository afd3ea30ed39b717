/// \file lut_simd_avx512.cpp
/// \brief AVX-512 leaf kernels (compiled with -mavx512f -mavx512bw
///        -mavx512vbmi -ffp-contract=off).
///
/// The wide-operand forward and the backward row walk widen here. A
/// position block of 32 rows or more whose table has product planes
/// (lut_planes.hpp) looks its products up in registers: per (filter, depth
/// index) it loads the weight's two byte planes into eight zmm registers
/// and looks up 64 activation codes with two vpermi2b per plane and a blend
/// on bit 7. Narrower blocks, and tables without planes, gather 16
/// activation codes at a time into 8+8 int64 accumulator lanes. The
/// backward walks 16 depth lanes per gather. The float GEMM's 4x16 register
/// blocks (gemm_f32.inl) compile to one zmm vector per block row. The
/// nibble path stays on the AVX2 byte-table copy (pshufb beats gathers for
/// <=4-bit operands even at 512-bit width), routed by dispatch.cpp.

#include "kernels/simd/simd_internal.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VBMI__)

#include <immintrin.h>

#include <algorithm>

#include "kernels/simd/gemm_f32.inl"

namespace amret::kernels::simd::detail {

bool compiled_avx512() { return true; }

// The plane leaf sums one depth block's products in int32 lanes: at most
// kTileK products below 2^16 each.
static_assert(tune::kTileK * 0xffff < (std::int64_t{1} << 31),
              "a depth block's 16-bit products must fit an int32 lane sum");

void acc_panel_planes_avx512(const LutGemmArgs& a, std::int64_t rb,
                             std::int64_t ob, const DepthRuns& runs,
                             std::int64_t* acc) {
    const PanelPlan& xp = a.x.plan;
    const PanelPlan& wp = a.w.plan;
    const std::int64_t tp = xp.tr, to = wp.tr;
    const std::int64_t orr = wp.block_rows(ob);
    const std::int64_t kblocks = xp.depth_blocks();
    // A panel holds tp <= 64 codes per depth index; lanes past tp would read
    // the next index's codes, so they load as 0 and are never stored.
    const auto lanes = [tp](std::int64_t first) -> __mmask32 {
        const std::int64_t n = std::clamp<std::int64_t>(tp - first, 0, 32);
        return n == 32 ? ~__mmask32{0} : (__mmask32{1} << n) - 1;
    };
    const __mmask32 lanes_lo = lanes(0), lanes_hi = lanes(32);
    // Byte 2i of the pair (v0, v1): the low bytes of 64 16-bit codes < 256.
    alignas(64) std::uint8_t even[64];
    for (int i = 0; i < 64; ++i) even[i] = static_cast<std::uint8_t>(2 * i);
    const __m512i narrow = _mm512_load_si512(even);
    const __m512i low16 = _mm512_set1_epi32(0xffff);
    alignas(64) std::int32_t sums[64];
    std::fill(acc, acc + orr * tp, std::int64_t{0});
    for (std::int64_t kb = 0; kb < kblocks; ++kb) {
        const std::int64_t kr = xp.block_depth(kb), kbase = kb * xp.tk;
        const std::uint16_t* xpan = a.x.codes + xp.panel_offset(rb, kb);
        const std::uint32_t* wpan = a.w.codes + wp.panel_offset(ob, kb);
        for (std::int64_t oo = 0; oo < orr; ++oo) {
            // Row sums in unpack order: int32 lane 4L + j of s0 holds row
            // 16L + 2j, of s1 row 16L + 2j + 1, of s2 row 16L + 8 + 2j and
            // of s3 row 16L + 9 + 2j.
            __m512i s0 = _mm512_setzero_si512(), s1 = s0, s2 = s0, s3 = s0;
            for (std::int64_t j = 0; j < runs.count; ++j) {
                const std::int64_t hi = runs.hi(j, kbase, kr);
                for (std::int64_t kk = runs.lo(j, kbase); kk < hi; ++kk) {
                    const LutPlaneRow& row = a.lut_planes[wpan[kk * to + oo] >> a.bits];
                    const std::uint16_t* xv = xpan + kk * tp;
                    const __m512i x = _mm512_permutex2var_epi8(
                        _mm512_maskz_loadu_epi16(lanes_lo, xv), narrow,
                        _mm512_maskz_loadu_epi16(lanes_hi, xv + 32));
                    const __mmask64 top = _mm512_movepi8_mask(x);
                    // Bits 0-6 of a code pick a byte of two registers,
                    // bit 7 the pair.
                    const auto look_up = [&](const std::uint8_t* plane) {
                        const __m512i* p = reinterpret_cast<const __m512i*>(plane);
                        return _mm512_mask_blend_epi8(
                            top,
                            _mm512_permutex2var_epi8(_mm512_load_si512(p), x,
                                                     _mm512_load_si512(p + 1)),
                            _mm512_permutex2var_epi8(_mm512_load_si512(p + 2), x,
                                                     _mm512_load_si512(p + 3)));
                    };
                    const __m512i plo = look_up(row.lo);
                    const __m512i phi = look_up(row.hi);
                    // Per 128-bit lane L, the words of the low unpack are
                    // the products of rows 16L..16L+7 and those of the high
                    // unpack of rows 16L+8..16L+15; each int32 lane holds
                    // two of them.
                    const __m512i w_lo = _mm512_unpacklo_epi8(plo, phi);
                    const __m512i w_hi = _mm512_unpackhi_epi8(plo, phi);
                    s0 = _mm512_add_epi32(s0, _mm512_and_si512(w_lo, low16));
                    s1 = _mm512_add_epi32(s1, _mm512_srli_epi32(w_lo, 16));
                    s2 = _mm512_add_epi32(s2, _mm512_and_si512(w_hi, low16));
                    s3 = _mm512_add_epi32(s3, _mm512_srli_epi32(w_hi, 16));
                }
            }
            // Back to row order: unpacking the 32-bit lanes gives rows
            // 16L + 4q..16L + 4q + 3 in 128-bit lane L of t_q, and a
            // transpose of the 128-bit lanes gathers rows 16L..16L+15.
            const __m512i t0 = _mm512_unpacklo_epi32(s0, s1);
            const __m512i t1 = _mm512_unpackhi_epi32(s0, s1);
            const __m512i t2 = _mm512_unpacklo_epi32(s2, s3);
            const __m512i t3 = _mm512_unpackhi_epi32(s2, s3);
            const __m512i u0 = _mm512_shuffle_i32x4(t0, t1, 0x44);
            const __m512i u1 = _mm512_shuffle_i32x4(t2, t3, 0x44);
            const __m512i u2 = _mm512_shuffle_i32x4(t0, t1, 0xee);
            const __m512i u3 = _mm512_shuffle_i32x4(t2, t3, 0xee);
            _mm512_store_si512(sums, _mm512_shuffle_i32x4(u0, u1, 0x88));
            _mm512_store_si512(sums + 16, _mm512_shuffle_i32x4(u0, u1, 0xdd));
            _mm512_store_si512(sums + 32, _mm512_shuffle_i32x4(u2, u3, 0x88));
            _mm512_store_si512(sums + 48, _mm512_shuffle_i32x4(u2, u3, 0xdd));
            std::int64_t* arow = acc + oo * tp;
            for (std::int64_t pp = 0; pp < tp; ++pp) arow[pp] += sums[pp];
        }
    }
}

void acc_panel_gather_avx512(const LutGemmArgs& a, std::int64_t rb,
                             std::int64_t ob, const DepthRuns& runs,
                             std::int64_t* acc) {
    const PanelPlan& xp = a.x.plan;
    const PanelPlan& wp = a.w.plan;
    const std::int64_t tp = xp.tr, to = wp.tr;
    const std::int64_t pr = xp.block_rows(rb);
    const std::int64_t orr = wp.block_rows(ob);
    const std::int64_t kblocks = xp.depth_blocks();
    // The block's rows in 16- and 8-lane groups, pad lanes up to the next
    // multiple of 8 that the panel holds, then single rows.
    const std::int64_t lanes = std::min(tp, (pr + 7) & ~std::int64_t{7});
    const std::int64_t p16 = lanes & ~std::int64_t{15};
    const std::int64_t p8 = lanes & ~std::int64_t{7};
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
            // Remaining rows (pr % 8 where the panel ends first): scalar,
            // still exact.
            for (std::int64_t j = 0; j < runs.count && p8 < pr; ++j) {
                const std::int64_t hi = runs.hi(j, kbase, kr);
                for (std::int64_t kk = runs.lo(j, kbase); kk < hi; ++kk) {
                    const std::int32_t* lrow = a.lut + wpan[kk * to + oo];
                    const std::uint16_t* xv = xpan + kk * tp;
                    for (std::int64_t pp = p8; pp < pr; ++pp)
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

#else // AVX-512 F, BW and VBMI not all available

namespace amret::kernels::simd::detail {

bool compiled_avx512() { return false; }

// Unreachable: dispatch.cpp never routes to a level compiled() rejects.
void acc_panel_planes_avx512(const LutGemmArgs&, std::int64_t,
                             std::int64_t, const DepthRuns&, std::int64_t*) {}
void acc_panel_gather_avx512(const LutGemmArgs&, std::int64_t,
                             std::int64_t, const DepthRuns&, std::int64_t*) {}
std::int64_t grad_row_avx512(const GradRowArgs&) { return 0; }

void gemm_f32_rows_avx512(const GemmF32Args&, std::int64_t, std::int64_t) {}

} // namespace amret::kernels::simd::detail

#endif // __AVX512F__ && __AVX512BW__ && __AVX512VBMI__
