/// \file lut_kernels.hpp
/// \brief The LUT-GEMM kernels: the blocked forward and the row-major
///        backward (grad-X, grad-W).
///
/// These are the CPU equivalents of the paper's CUDA kernels and the single
/// implementation of the Fig. 4 dataflow: the forward replaces every
/// multiply-accumulate with a product-LUT lookup and applies the Eq. (8)
/// zero-point correction; the backward replaces the multiplier derivative
/// with gradient-LUT lookups (Eq. 9). ApproxConv2d (after the fused im2col
/// packer), ApproxLinear and the integer inference engine run on them;
/// DepthwiseConv2d, whose per-channel GEMM would have O = 1 and a K^2 depth,
/// runs on the direct padded-plane kernel (depthwise.hpp).
///
/// The forward's products come from the product LUT, or, on the AVX-512
/// level for 5- to 8-bit tables whose products fit 16 bits, from the same
/// table's byte planes held in registers (lut_planes.hpp).
///
/// Blocking and vectorization never change results:
///   - the forward accumulator is int64 — integer addition is associative,
///     so any block order (and any split of the depth loop) is exact;
///   - the backward float accumulations keep their defining orders:
///     gx[p, k] sums over output channels in ascending o, gw[o, k] over
///     positions in ascending p.
/// The naive loops in those orders are the reference (tests/lut_oracle.hpp)
/// that every kernel here is memcmp'd against. Combined with the runtime
/// determinism contract (chunks depend only on shape and grain), outputs are
/// bitwise-identical for any AMRET_THREADS and any panel tiles.
#pragma once

#include "kernels/layout.hpp"
#include "kernels/lut_planes.hpp"
#include "kernels/tuning.hpp"
#include "kernels/workspace.hpp"
#include "runtime/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace amret::kernels {

/// One LUT GEMM from packing to backward: its quantization constants, its
/// conv geometry, the forward's panels and the backward's row-major codes.
/// The rows are the geometry's positions, P = geom.positions(), im2col
/// order (n, oy, ox) for the codes and location-major for the panels; the
/// depth is its patch, K = geom.patch(), tap-major, (ky, kx, c)
/// (layout.hpp, "Conv order"). A plain matrix is matrix_geom(p, k). The
/// LUT index is (w << bits) | x.
struct LutGemmArgs {
    unsigned bits = 8;
    const std::int32_t* lut = nullptr; ///< product LUT, 2^(2*bits) entries
    /// The planes of that same table (fill_lut_planes), or null: where set,
    /// the AVX-512 forward looks its products up in registers
    /// (lut_planes.hpp). Set it from the table's owner, e.g.
    /// appmult::AppMultLut::planes(), never from a cache keyed by address.
    const LutPlaneRow* lut_planes = nullptr;
    std::int64_t o = 0;                ///< output rows (channels)
    tensor::ConvGeom geom = matrix_geom(0, 0);
    float scale_w = 1.0f, scale_x = 1.0f;
    std::int32_t zero_w = 0, zero_x = 0;
    /// Optional per-output-channel weight quantization: when non-null these
    /// arrays (length O) override scale_w / zero_w row-wise.
    const float* scale_w_per_o = nullptr;
    const std::int32_t* zero_w_per_o = nullptr;
    /// Forward operands (lut_gemm_blocked), sharing one depth blocking.
    WeightPanels w; ///< plan.rows = O, pre-shifted codes
    ActPanels x;    ///< plan.rows = P
    /// Backward operands (lut_backward_rows) with their clamp masks, 1 where
    /// the STE gradient passes. The weights keep the (O, C, K, K) order of
    /// the weight gradient; the activations take the tap-major depth and
    /// hold zero_x at every out-of-image tap, the code 0.0f quantizes to
    /// (quantize_conv_panels writes it there).
    const std::uint16_t* wq = nullptr; ///< quantized weights (O, K)
    const std::uint16_t* xq = nullptr; ///< quantized activations (P, K)
    const std::uint8_t* w_in_range = nullptr; ///< as wq
    const std::uint8_t* x_in_range = nullptr; ///< as xq

    [[nodiscard]] std::int64_t p() const { return geom.positions(); }
    [[nodiscard]] std::int64_t k() const { return geom.patch(); }
    [[nodiscard]] float row_scale_w(std::int64_t oo) const {
        return scale_w_per_o ? scale_w_per_o[oo] : scale_w;
    }
    [[nodiscard]] std::int32_t row_zero_w(std::int64_t oo) const {
        return zero_w_per_o ? zero_w_per_o[oo] : zero_w;
    }
};

/// Column sums of a (P, O) position-major output gradient into \p bias_grad
/// (accumulated, not overwritten) via the deterministic per-chunk reduction.
/// The grain (tune::kGrainBiasRows) is part of the numerical contract: it
/// fixes the float association order of the reduction.
void accumulate_bias_grad(const float* gyp, std::int64_t p, std::int64_t o,
                          float* bias_grad);

/// Backward, Eq. (9): from the multiplier-gradient sums
///   gw_raw[o, k] = sum_p gyp[p, o] * (gradW[w,x] - Z_x)
///   gx_raw[p, k] = sum_o gyp[p, o] * s_w[o] * (gradX[w,x] - Z_w)
/// over the row-major codes of \p args in the tap-major depth k, gx in
/// ascending o and gw in ascending p, it finishes both gradients:
///   - grad_w[o, c, ky, kx] += s_x * gw_raw[o, (ky, kx, c)] where
///     args.w_in_range passes: \p grad_w is the (O, C, K, K) weight
///     gradient, accumulated;
///   - gx[p, k] = gx_raw[p, k], or +0.0f where args.x_in_range stops it, for
///     every in-image tap k of row p: \p gx is the (P, K) tap-major input
///     gradient columns, whose out-of-image elements are never touched
///     (col2im_tap_major reads none).
/// The ∂AM/∂X table is taken transposed, indexed (x << bits) | w
/// (core::GradLut::dx_t_table()). Both walks put depth indices in the
/// vector lanes: grad-X fixes each lane's activation code, and so its row
/// of the transposed table, and replays the row's nonzero output gradients
/// in ascending o; grad-W fixes each lane's weight code and replays the
/// column's nonzero gradients in ascending p. Every LUT index is built from
/// contiguous loads of both code matrices.
///
/// Neither walk looks up a padding tap. Grad-X computes only the depth runs
/// of each row's TapBox, one per kernel row or one for a full box, and
/// stores each sum through the row's mask. Grad-W keeps every term, since
/// at the pad code Z_x, ∂AM/∂W - Z_x is not zero under the difference
/// gradient; but where a lane group's taps are all out of the image in row
/// p, xq holds Z_x there, so its term is m * d with the per-lane constant
/// d = ∂AM/∂W[w, Z_x] - Z_x, computed once per filter and group
/// (simd::GradRowArgs::in_taps). Every computed element does the oracle's
/// float ops in the oracle's order, so no bit moves. The skipped lookups
/// count in kernels.gemm.grad_x_pad_skipped and
/// kernels.gemm.grad_w_pad_skipped. Parallel over chunk_grain chunks of
/// filters, then of gx rows; each chunk finishes the rows it owns, a
/// filter in its own scratch from \p ws, where it also writes the
/// filter's codes in the tap-major depth for grad-X (a 1x1 kernel's order
/// already is).
void lut_backward_rows(const LutGemmArgs& args, const float* gyp,
                       const float* grad_w_lut, const float* grad_x_lut_t,
                       float* grad_w, float* gx, Workspace& ws);

// ----------------------------------------------------------------------
// Forward. Operands come pre-tiled as panels (layout.hpp) with the Eq. (8)
// row sums hoisted into the panel headers. The forward accumulates in int64,
// so the panel loop order is exact. The backward needs no panels:
// lut_backward_rows reads the row-major codes.
// ----------------------------------------------------------------------

/// True when \p bits <= 4 and every entry of the 2^(2*bits) product LUT fits
/// uint8, the precondition of the SIMD pshufb path, whose in-register tables
/// hold byte products. Scans at most 256 entries; wider tables return false
/// without a scan. lut_gemm_blocked reads it from the table once per call,
/// so no verdict outlives the table it describes.
bool lut_fits_u8(const std::int32_t* lut, unsigned bits);

/// Adds \p n to the kernels.gemm.pad_skipped counter: lookups the blocked
/// forward did not make because their tap was padding in every row of the
/// block. Out of line so the header stays free of obs.
void count_pad_skipped(std::int64_t n);

namespace simd {

/// The forward's SIMD dispatch seam (simd.hpp), defined in
/// simd/dispatch.cpp: fills the int64 accumulator tile of block (rb, ob),
/// acc[oo * a.x.plan.tr + pp] = sum LUT[w, x] over the depth of \p runs
/// (the block's tap box), for every real row, with the widest leaf the
/// selected level has for the operands; the scalar block loop is the
/// scalar level's leaf and every other level's fallback. Pad rows/lanes
/// hold unspecified values (epilogues never read them). \p acc must hold
/// a.x.plan.tr * a.w.plan.tr int64s; \p lut_u8 is lut_fits_u8(a.lut,
/// a.bits), the pshufb path's condition on the table.
void accumulate_panel(const LutGemmArgs& a, bool lut_u8, std::int64_t rb,
                      std::int64_t ob, const DepthRuns& runs, std::int64_t* acc);

} // namespace simd

/// Sum of pad_sum over the taps of filter \p o outside \p box: what the
/// lookups the box walk skipped would have added, since each of them reads
/// the pad code. 0 when the box covers every tap.
inline std::int64_t pad_outside(const WeightPanels& w, std::int64_t k,
                                std::int64_t o, const TapBox& box) {
    if (box.full(k)) return 0;
    assert(w.pad_sum != nullptr && "a padded conv needs WeightPanels::pad_sum");
    const std::int64_t* z = w.pad_sum + o * k * k;
    std::int64_t s = 0;
    for (std::int64_t ky = 0; ky < k; ++ky) {
        const bool row_in = ky >= box.ky0 && ky < box.ky1;
        for (std::int64_t kx = 0; kx < k; ++kx)
            if (!row_in || kx < box.kx0 || kx >= box.kx1) s += z[ky * k + kx];
    }
    return s;
}

/// Chunk grain of a blocked forward over the position row blocks of \p x
/// against \p o output rows: chunk_grain over blocks of x.tr * o * x.depth
/// lookups each. The forward (lut_gemm_blocked) and the packer of its
/// activation panels share these chunks, so a GEMM with less than
/// tune::kMinChunkWork lookups packs and runs on the caller.
inline std::int64_t forward_grain(const PanelPlan& x, std::int64_t o) {
    return chunk_grain(x.row_blocks(), x.tr * o * x.depth);
}

/// The blocked integer GEMM, parallel over chunks of forward_grain position
/// row blocks; blocks write disjoint rows and each chunk owns an int64
/// accumulator tile on its stack. Requires panel tiles no larger than the
/// compiled ones (tune::kTileP x tune::kTileO x tune::kTileK), as every
/// plan built from them is: the stack tile and the AVX-512 plane leaf's
/// lanes and int32 lane sums are sized by them.
///
/// Each row block reads only the depth runs of its tap box (TapBox): the
/// taps outside it are padding in every row of the block, so their lookups
/// all read the pad code and sum, per filter, to the precomputed
/// pad_outside(). The epilogue adds that constant to the int64 accumulator
/// before the Eq. (8) correction, whose headers still sum the full depth,
/// so the corrected value equals the full-depth sum exactly. The
/// accumulation of each (rb, ob) tile runs through the SIMD dispatch seam
/// (simd::accumulate_panel). \p epi(row, o, corrected) receives the im2col
/// row (n, oy, ox) of each panel row, so the location-major panel order
/// (layout.hpp) stays inside the kernels. The training forward
/// (lut_forward_blocked) and the engine's requantizing conv are its two
/// epilogues.
template <class Epilogue>
void lut_gemm_blocked(const LutGemmArgs& a, Epilogue&& epi) {
    const PanelPlan& xp = a.x.plan;
    const PanelPlan& wp = a.w.plan;
    assert(xp.depth == wp.depth && xp.tk == wp.tk && "mismatched depth blocking");
    const tensor::ConvGeom& geom = a.geom;
    assert(xp.rows == geom.positions() && xp.depth == geom.patch());
    const std::int64_t k = xp.depth;
    const std::int64_t spatial = geom.out_h() * geom.out_w();
    const std::int64_t tp = xp.tr, to = wp.tr;
    assert(tp <= tune::kTileP && to <= tune::kTileO && xp.tk <= tune::kTileK &&
           "tiles larger than the compiled ones");
    const std::int64_t nblocks = xp.row_blocks(), oblocks = wp.row_blocks();
    const bool lut_u8 = lut_fits_u8(a.lut, a.bits);
    runtime::parallel_for_chunks(0, nblocks, forward_grain(xp, a.o),
                                 [&](std::int64_t rb0, std::int64_t rb1, std::size_t) {
        alignas(64) std::int64_t acc[tune::kTileP * tune::kTileO];
        std::int64_t skipped = 0;
        for (std::int64_t rb = rb0; rb < rb1; ++rb) {
            const std::int64_t pr = xp.block_rows(rb);
            const std::int64_t pbase = rb * tp;
            const TapBox box = TapBox::of_rows(geom, pbase, pbase + pr);
            const DepthRuns runs = box.runs(geom);
            skipped += (k - runs.depth()) * pr * a.o;
            for (std::int64_t ob = 0; ob < oblocks; ++ob) {
                const std::int64_t orr = wp.block_rows(ob);
                const std::int64_t obase = ob * to;
                simd::accumulate_panel(a, lut_u8, rb, ob, runs, acc);
                for (std::int64_t oo = 0; oo < orr; ++oo) {
                    const std::int64_t pad =
                        pad_outside(a.w, geom.kernel, obase + oo, box);
                    if (pad == 0) continue;
                    for (std::int64_t pp = 0; pp < pr; ++pp) acc[oo * tp + pp] += pad;
                }
                for (std::int64_t pp = 0; pp < pr; ++pp) {
                    // Panel row (oy * OW + ox) * N + n is im2col row
                    // n * OH * OW + oy * OW + ox.
                    const std::int64_t r = pbase + pp;
                    const std::int64_t row =
                        (r % geom.batch) * spatial + r / geom.batch;
                    const std::int64_t sx = a.x.sum_x[r];
                    for (std::int64_t oo = 0; oo < orr; ++oo) {
                        const std::int32_t zw = a.row_zero_w(obase + oo);
                        const std::int64_t corrected =
                            acc[oo * tp + pp] -
                            static_cast<std::int64_t>(a.zero_x) * a.w.sum_w[obase + oo] -
                            static_cast<std::int64_t>(zw) * sx +
                            k * static_cast<std::int64_t>(zw) * a.zero_x;
                        epi(row, obase + oo, corrected);
                    }
                }
            }
        }
        count_pad_skipped(skipped);
    });
}

/// Forward into a (P, O) float matrix: y[p, o] = s_w*s_x*(sum_k LUT[w,x]
/// - Z_x*sumW[o] - Z_w*sumX[p] + K*Z_w*Z_x) + bias[o], \p bias may be null.
/// lut_gemm_blocked with that epilogue.
void lut_forward_blocked(const LutGemmArgs& args, const float* bias, float* y);

} // namespace amret::kernels
