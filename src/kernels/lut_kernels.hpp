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
#include "kernels/tuning.hpp"
#include "kernels/workspace.hpp"
#include "runtime/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace amret::kernels {

/// Operand matrices and quantization constants of one LUT GEMM.
/// Layout: wq is (rows_o, depth_k), xq is (rows_p, depth_k), both row-major;
/// LUT index is (w << bits) | x. A conv's rows are im2col rows (n, oy, ox)
/// and its depth is tap-major, (ky, kx, c) (layout.hpp, "Conv order").
struct LutGemmArgs {
    unsigned bits = 8;
    const std::int32_t* lut = nullptr;  ///< product LUT, 2^(2*bits) entries
    const std::uint16_t* wq = nullptr;  ///< quantized weights (O, K)
    const std::uint16_t* xq = nullptr;  ///< quantized activations (P, K)
    std::int64_t o = 0;                 ///< output rows (channels)
    std::int64_t p = 0;                 ///< positions (batch x spatial)
    std::int64_t k = 0;                 ///< reduction depth
    /// Conv geometry of the rows and depth, as in ActPanels; a plain matrix
    /// is matrix_geom(p, k). The backward reads it (lut_backward_rows).
    tensor::ConvGeom geom = matrix_geom(0, 0);
    float scale_w = 1.0f, scale_x = 1.0f;
    std::int32_t zero_w = 0, zero_x = 0;
    /// Optional per-output-channel weight quantization: when non-null these
    /// arrays (length O) override scale_w / zero_w row-wise.
    const float* scale_w_per_o = nullptr;
    const std::int32_t* zero_w_per_o = nullptr;

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

/// Backward: accumulates the multiplier-gradient sums
///   gw_raw[o, k] += sum_p gyp[p, o] * (gradW[w,x] - Z_x)
///   gx_raw[p, k] += sum_o gyp[p, o] * s_w[o] * (gradX[w,x] - Z_w)
/// over the row-major codes of \p args, gx in ascending o and gw in
/// ascending p. The weight scale is folded into gx_raw (it varies per row in
/// per-channel mode); the remaining factors — s_x for gw, and the clamp
/// masks — are applied by the caller (see ApproxConv2d::backward_quant).
/// Buffers must be zero-initialized. The ∂AM/∂X table is taken transposed,
/// indexed (x << bits) | w (core::GradLut::dx_t_table()). Both walks put
/// depth indices in the vector lanes: grad-X fixes each lane's activation
/// code, and so its row of the transposed table, and replays the row's
/// nonzero output gradients in ascending o; grad-W fixes each lane's weight
/// code and replays the column's nonzero gradients in ascending p. Every
/// LUT index is built from contiguous loads of both code matrices.
///
/// Grad-X computes only the in-image taps of each row of args.geom: the
/// depth runs of the row's TapBox, one per kernel row, or one for a full
/// box. A padding tap's gx element stays as the caller left it (zero), and
/// col2im_tap_major drops it; each computed element does the oracle's float
/// ops in the oracle's order, so no bit moves. The skipped elements count
/// in kernels.gemm.grad_x_pad_skipped. Grad-W keeps every tap: at the pad
/// code Z_x, ∂AM/∂W - Z_x is not zero under the difference gradient, so
/// padding taps feed gw. Parallel over chunk_grain chunks of gx rows, then
/// of gw rows, each row in one chunk; scratch for the nonzero-gradient
/// compaction comes from \p ws.
void lut_backward_rows(const LutGemmArgs& args, const float* gyp,
                       const float* grad_w_lut, const float* grad_x_lut_t,
                       float* gw_raw, float* gx_raw, Workspace& ws);

// ----------------------------------------------------------------------
// Forward. Operands come pre-tiled as panels (layout.hpp) with the Eq. (8)
// row sums hoisted into the panel headers. The forward accumulates in int64,
// so the panel loop order is exact. The backward needs no panels:
// lut_backward_rows reads the row-major codes.
// ----------------------------------------------------------------------

/// One LUT GEMM over blocked operands. Both panels must share the same
/// depth blocking (same tk and logical depth k).
struct BlockedGemmArgs {
    unsigned bits = 8;
    const std::int32_t* lut = nullptr; ///< product LUT, 2^(2*bits) entries
    WeightPanels w;                    ///< plan.rows = o, pre-shifted codes
    ActPanels x;                       ///< plan.rows = p
    std::int64_t o = 0;
    std::int64_t p = 0;
    std::int64_t k = 0;
    float scale_w = 1.0f, scale_x = 1.0f;
    std::int32_t zero_w = 0, zero_x = 0;
    const float* scale_w_per_o = nullptr;
    const std::int32_t* zero_w_per_o = nullptr;

    [[nodiscard]] float row_scale_w(std::int64_t oo) const {
        return scale_w_per_o ? scale_w_per_o[oo] : scale_w;
    }
    [[nodiscard]] std::int32_t row_zero_w(std::int64_t oo) const {
        return zero_w_per_o ? zero_w_per_o[oo] : zero_w;
    }
};

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

/// Fills the int64 accumulator tile of block (rb, ob) with the scalar panel
/// loop: acc[oo * a.x.plan.tr + pp] = sum LUT[w, x] over the real rows of
/// the block and the depth of \p runs, the block's tap box (pad rows are
/// left zero). It is the scalar dispatch level, which every SIMD kernel
/// must match bit for bit. \p acc must hold a.x.plan.tr * a.w.plan.tr
/// int64s.
///
/// Inner loop: for a fixed depth index the activation panel column and the
/// accumulator row are walked at unit stride, and each pre-shifted weight
/// code pins one product-LUT row (`lut + wcode`) that consecutive activation
/// codes index directly — the layout refactor's cache contract.
void accumulate_panel_block_scalar(const BlockedGemmArgs& a, std::int64_t rb,
                                   std::int64_t ob, const DepthRuns& runs,
                                   std::int64_t* acc);

/// Same contract, routed through the runtime SIMD dispatch
/// (kernels::simd::select()): the fastest eligible vector kernel fills the
/// tile, falling back to accumulate_panel_block_scalar when none applies.
/// \p lut_u8 is lut_fits_u8(a.lut, a.bits). The forward accumulator is
/// int64, so the result is bitwise-identical either way on the real rows;
/// SIMD kernels may leave other values in pad rows/lanes (callers'
/// epilogues never read them).
void accumulate_panel_block(const BlockedGemmArgs& a, bool lut_u8,
                            std::int64_t rb, std::int64_t ob,
                            const DepthRuns& runs, std::int64_t* acc);

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
/// accumulator tile from \p ws.
///
/// Each row block reads only the depth runs of its tap box (TapBox): the
/// taps outside it are padding in every row of the block, so their lookups
/// all read the pad code and sum, per filter, to the precomputed
/// pad_outside(). The epilogue adds that constant to the int64 accumulator
/// before the Eq. (8) correction, whose headers still sum the full depth,
/// so the corrected value equals the full-depth sum exactly. The
/// accumulation of each (rb, ob) tile runs through the SIMD dispatch seam
/// (accumulate_panel_block). \p epi(row, o, corrected) receives the im2col
/// row (n, oy, ox) of each panel row, so the location-major panel order
/// (layout.hpp) stays inside the kernels. The training forward
/// (lut_forward_blocked) and the engine's requantizing conv are its two
/// epilogues.
template <class Epilogue>
void lut_gemm_blocked(const BlockedGemmArgs& a, Workspace& ws, Epilogue&& epi) {
    const PanelPlan& xp = a.x.plan;
    const PanelPlan& wp = a.w.plan;
    assert(xp.depth == wp.depth && xp.tk == wp.tk && "mismatched depth blocking");
    const tensor::ConvGeom& geom = a.x.geom;
    const std::int64_t spatial = geom.out_h() * geom.out_w();
    const std::int64_t tp = xp.tr, to = wp.tr;
    const std::int64_t nblocks = xp.row_blocks(), oblocks = wp.row_blocks();
    const std::int64_t grain = forward_grain(xp, a.o);
    std::int64_t* tiles =
        ws.alloc<std::int64_t>(runtime::chunk_count(0, nblocks, grain) * tp * to);
    const bool lut_u8 = lut_fits_u8(a.lut, a.bits);
    runtime::parallel_for_chunks(0, nblocks, grain,
                                 [&](std::int64_t rb0, std::int64_t rb1,
                                     std::size_t chunk) {
        std::int64_t* acc = tiles + static_cast<std::int64_t>(chunk) * tp * to;
        std::int64_t skipped = 0;
        for (std::int64_t rb = rb0; rb < rb1; ++rb) {
            const std::int64_t pr = xp.block_rows(rb);
            const std::int64_t pbase = rb * tp;
            const TapBox box = TapBox::of_rows(geom, pbase, pbase + pr);
            const DepthRuns runs = box.runs(geom);
            skipped += (a.k - runs.depth()) * pr * a.o;
            for (std::int64_t ob = 0; ob < oblocks; ++ob) {
                const std::int64_t orr = wp.block_rows(ob);
                const std::int64_t obase = ob * to;
                accumulate_panel_block(a, lut_u8, rb, ob, runs, acc);
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
                            a.k * static_cast<std::int64_t>(zw) * a.zero_x;
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
/// lut_gemm_blocked with that epilogue; scratch comes from \p ws.
void lut_forward_blocked(const BlockedGemmArgs& args, const float* bias,
                         float* y, Workspace& ws);

} // namespace amret::kernels
