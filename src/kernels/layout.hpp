/// \file layout.hpp
/// \brief Blocked (panelized) code layouts for the LUT-GEMM kernel family.
///
/// Row-major code matrices make the forward inner loop walk one weight row
/// per output channel, so every (p, o) pair re-streams K codes from a
/// different cache line set, and the product-LUT row is chosen per element.
/// This file defines the cache-conscious layout the blocked kernels
/// (lut_kernels.hpp) consume instead:
///
///   Panel format. A logical (rows, depth) code matrix is cut into
///   (tr x tk) panels, stored panel-row-major:
///
///     buffer[(rb * depth_blocks + kb) * tr * tk        // panel base
///            + kk * tr + rr]                           // k-major interleave
///
///   Within a panel the depth index kk is the slow axis and the row index rr
///   the fast axis, so the innermost kernel loop (over rows at fixed kk)
///   strides unit-distance through both operand panels and — because weight
///   codes are stored pre-shifted as (w << bits) — through one hot row of
///   the product LUT (`lut + wcode` is the row base; consecutive activation
///   codes index neighbouring entries).
///
///   Ragged edges. The last row block and the last depth block may be
///   partial. Rows are padded physically (full tr x tk panels are always
///   allocated; pad slots hold code 0) but kernels iterate only the real
///   extent, so pad codes never enter an accumulator — this is what keeps
///   blocked results bitwise-identical to the naive loop over the row-major
///   codes (a padded depth tap would add a real LUT value, since LUT[0 | x]
///   is generally nonzero).
///
///   Panel header. The Eq. (8) zero-point correction needs per-row code
///   sums (sum_w[o], sum_x[p]). They are computed once during packing and
///   carried next to the panels ("hoisted into the panel header") so neither
///   forward nor backward re-reduces the codes. Both sums run over the full
///   depth, padding taps included.
///
///   Conv order. Conv panels number their depth tap-major, (ky, kx, c), so
///   each kernel tap is one contiguous run of C depth indices, and their
///   rows location-major, r = (oy * OW + ox) * N + n, so a 16-row block of a
///   batch of 16 or more holds one output location (or the tail of one and
///   the head of the next). The row-major codes the backward reads keep the
///   im2col order: rows (n, oy, ox), depth (c, ky, kx). A plain matrix is the
///   1x1 conv of its rows and depth, for which both orders are the identity.
///   The tap table of the fused packers and the weight packer are the only
///   code that knows the tap-major order; the blocked kernels see it through
///   TapBox, and lut_gemm_blocked_tile hands its epilogue the im2col row, so
///   no code outside the kernels sees either order.
///
/// The planner also fuses im2col into panel production: the im2col packers
/// walk the convolution taps directly from the NCHW feature map into panel
/// slots (zero-point padding applied on the fly), so no (positions x patch)
/// im2col buffer is materialized.
///
/// Raw indexing into panel buffers outside src/kernels is rejected by
/// scripts/check_invariants.py (rule panel-indexing); consumers go through
/// the kernels in lut_kernels.hpp, and tests and benches build and read
/// panels with pack_activation_panels and the unpack_* helpers below.
#pragma once

#include "kernels/workspace.hpp"
#include "quant/quant.hpp"
#include "tensor/tensor.hpp"

#include <algorithm>
#include <cstdint>

namespace amret::kernels {

/// Blocked layout of one logical (rows, depth) code matrix.
struct PanelPlan {
    std::int64_t rows = 0;  ///< logical rows (O for weights, P for activations)
    std::int64_t depth = 0; ///< logical reduction depth (K)
    std::int64_t tr = 1;    ///< rows per panel
    std::int64_t tk = 1;    ///< depth per panel

    [[nodiscard]] std::int64_t row_blocks() const { return (rows + tr - 1) / tr; }
    [[nodiscard]] std::int64_t depth_blocks() const {
        return (depth + tk - 1) / tk;
    }
    [[nodiscard]] std::int64_t panel_elems() const { return tr * tk; }
    /// Total code elements of the blocked buffer (rag padded to full panels).
    [[nodiscard]] std::int64_t elems() const {
        return row_blocks() * depth_blocks() * panel_elems();
    }
    /// Element offset of panel (rb, kb).
    [[nodiscard]] std::int64_t panel_offset(std::int64_t rb, std::int64_t kb) const {
        return (rb * depth_blocks() + kb) * panel_elems();
    }
    /// Real (un-padded) rows of row block \p rb.
    [[nodiscard]] std::int64_t block_rows(std::int64_t rb) const {
        const std::int64_t base = rb * tr;
        return base + tr <= rows ? tr : rows - base;
    }
    /// Real (un-padded) depth of depth block \p kb.
    [[nodiscard]] std::int64_t block_depth(std::int64_t kb) const {
        const std::int64_t base = kb * tk;
        return base + tk <= depth ? tk : depth - base;
    }
    /// Content key of the layout (FNV-1a over the plan fields) — used to key
    /// workspace-arena high-water tracking per layout plan.
    [[nodiscard]] std::uint64_t key() const;
};

PanelPlan make_panel_plan(std::int64_t rows, std::int64_t depth, std::int64_t tr,
                          std::int64_t tk);

/// Plan of a conv's activation panels: make_panel_plan, except that a conv
/// with fewer than 8 positions (a batch-1 conv at 2x2 or 1x1) gets one-row
/// blocks, so each row walks its own tap box (TapBox). The rule reads the
/// shape, not \p tr: a tile below 8 rows keeps its blocks.
PanelPlan make_conv_act_plan(std::int64_t positions, std::int64_t patch,
                             std::int64_t tr, std::int64_t tk);

/// The 1x1 conv geometry of a plain (rows, depth) matrix: no padding, and
/// location-major rows and tap-major depth are the identity.
inline tensor::ConvGeom matrix_geom(std::int64_t rows, std::int64_t depth) {
    return tensor::ConvGeom{rows, depth, 1, 1, 1, 1, 0};
}

/// Depth a row block of conv panels reads: `count` runs of `len` tap-major
/// depth indices, run j starting at start + j * stride. Each kernel row of
/// the block's tap box is one run; a box spanning whole kernel rows is one
/// run, so an unpadded conv or a plain matrix reads its full depth in one.
struct DepthRuns {
    std::int64_t start = 0, len = 0, stride = 0, count = 0;

    /// Run j clipped to depth block [base, base + kr), as offsets into the
    /// block; the run misses the block when lo >= hi.
    [[nodiscard]] std::int64_t lo(std::int64_t j, std::int64_t base) const {
        return std::max(start + j * stride, base) - base;
    }
    [[nodiscard]] std::int64_t hi(std::int64_t j, std::int64_t base,
                                  std::int64_t kr) const {
        return std::min(start + j * stride + len, base + kr) - base;
    }
    /// Depth indices read, over all runs.
    [[nodiscard]] std::int64_t depth() const { return len * count; }
};

/// Bounding box [ky0, ky1) x [kx0, kx1) of the kernel taps that fall inside
/// the image for at least one row of a block of conv panel rows. Validity
/// is separable in y and x, so one row's in-image taps form a rectangle and
/// a block's taps lie in the box of its rows' rectangles. A tap outside the
/// box reads the pad code in every row of the block; a tap inside it may
/// still be padding for some rows, whose panels hold the pad code there.
struct TapBox {
    std::int64_t ky0 = 0, ky1 = 0, kx0 = 0, kx1 = 0;

    /// Box of panel rows [r0, r1) of \p g (location-major), in O(1) from the
    /// first and last location: a block within one output row spans the
    /// columns between them, a block across rows spans every column; the
    /// box edges are monotone in the location, so the extremes bound it.
    static TapBox of_rows(const tensor::ConvGeom& g, std::int64_t r0,
                          std::int64_t r1) {
        const std::int64_t k = g.kernel;
        if (g.pad == 0) return TapBox{0, k, 0, k};
        const std::int64_t ow = g.out_w();
        const std::int64_t s0 = r0 / g.batch, s1 = (r1 - 1) / g.batch;
        const std::int64_t oy0 = s0 / ow, oy1 = s1 / ow;
        const std::int64_t ox0 = oy0 == oy1 ? s0 % ow : 0;
        const std::int64_t ox1 = oy0 == oy1 ? s1 % ow : ow - 1;
        // Tap ky is in the image at output row oy when
        // 0 <= oy * stride - pad + ky < in_h.
        TapBox b;
        b.ky0 = std::max<std::int64_t>(0, g.pad - oy1 * g.stride);
        b.ky1 = std::max(b.ky0, std::min(k, g.in_h + g.pad - oy0 * g.stride));
        b.kx0 = std::max<std::int64_t>(0, g.pad - ox1 * g.stride);
        b.kx1 = std::max(b.kx0, std::min(k, g.in_w + g.pad - ox0 * g.stride));
        return b;
    }

    [[nodiscard]] bool full(std::int64_t k) const {
        return ky0 == 0 && kx0 == 0 && ky1 == k && kx1 == k;
    }

    /// The box's tap-major depth runs for \p g (channels g.in_ch per tap).
    [[nodiscard]] DepthRuns runs(const tensor::ConvGeom& g) const {
        const std::int64_t c = g.in_ch, k = g.kernel;
        DepthRuns r;
        r.start = (ky0 * k + kx0) * c;
        r.stride = k * c;
        if (kx1 - kx0 == k) { // whole kernel rows: one contiguous run
            r.len = (ky1 - ky0) * k * c;
            r.count = 1;
        } else {
            r.len = (kx1 - kx0) * c;
            r.count = ky1 - ky0;
        }
        return r;
    }
};

/// Blocked weight operand: codes are stored PRE-SHIFTED as (w << bits) in
/// uint32 so the kernel forms a LUT index with a single OR, and `lut + code`
/// is directly the base of the weight's LUT row. sum_w is the hoisted Eq. (8)
/// header (length plan.rows).
struct WeightPanels {
    PanelPlan plan;
    const std::uint32_t* codes = nullptr;
    const std::int64_t* sum_w = nullptr;
    /// Padding constant of a conv, (plan.rows, kernel^2) row-major:
    /// pad_sum[o * kernel^2 + t] = sum_c LUT[(w[o, c, t] << bits) | z_pad],
    /// what the lookups of tap t add in a window where the tap is padding
    /// (pad_sums_into). The blocked forward adds it back for the taps outside
    /// a block's box. Every conv carries it (pack_conv_weight_panels); null
    /// for a plain matrix, whose blocks never skip a tap.
    const std::int64_t* pad_sum = nullptr;
};

/// Blocked activation operand with its hoisted row-sum header (length
/// plan.rows, indexed by panel row).
struct ActPanels {
    PanelPlan plan;
    const std::uint16_t* codes = nullptr;
    const std::int64_t* sum_x = nullptr;
    /// Conv geometry of the rows and depth (the "Conv order" above); a plain
    /// matrix is matrix_geom(rows, depth).
    tensor::ConvGeom geom = matrix_geom(0, 0);
    /// Optional nibble-packed mirror of `codes` for the SIMD pshufb path
    /// (bits <= 4): two codes per byte, plan.elems()/2 bytes, panel layout
    /// matching `codes` at half scale. Within each 16-lane row group, byte j
    /// holds lane g0+j in its low nibble and lane g0+8+j in its high nibble
    /// — exactly the order one pshufb nibble-unpack restores. Attached by
    /// the quantizing packers when the operand is <= 4-bit (or explicitly
    /// via attach_packed4); null otherwise.
    const std::uint8_t* packed4 = nullptr;
};

/// Builds the nibble-packed mirror of \p x when eligible (bits <= 4 and
/// plan.tr a multiple of 16; every code must already be < 2^bits) and
/// attaches it as x.packed4. No-op — packed4 stays null — when ineligible.
/// Parallel over chunks of \p grain row blocks, the chunks its packer used.
void attach_packed4(ActPanels& x, unsigned bits, Workspace& ws,
                    std::int64_t grain);

/// Packs row-major weight codes (rows = o, depth = k of \p plan) into
/// caller storage: \p codes holds plan.elems() pre-shifted uint32 codes,
/// \p sum_w the plan.rows row sums. A conv's codes are (o, c, ky, kx) with
/// \p taps = kernel^2 taps per channel, and their panels take the depth
/// tap-major, (ky, kx, c); \p taps = 1 keeps the depth order. Parallel over
/// row blocks.
void pack_weight_panels_into(const std::uint16_t* wq, unsigned bits,
                             const PanelPlan& plan, std::int64_t taps,
                             std::uint32_t* codes, std::int64_t* sum_w);

/// Workspace-backed pack_weight_panels_into of a plain matrix (taps = 1,
/// depth order kept, no padding constant). Conv weights go through
/// pack_conv_weight_panels.
WeightPanels pack_weight_panels(const std::uint16_t* wq, unsigned bits,
                                const PanelPlan& plan, Workspace& ws);

/// The padding constant of WeightPanels::pad_sum for \p rows filters of
/// \p depth row-major (c, ky, kx) codes with \p taps taps each, against
/// the pad code \p z_pad: rows * depth product-LUT lookups, the work of one
/// position row of the forward. Parallel over rows.
void pad_sums_into(const std::uint16_t* wq, unsigned bits, std::int64_t rows,
                   std::int64_t depth, std::int64_t taps,
                   const std::int32_t* lut, std::uint16_t z_pad,
                   std::int64_t* pad_sum);

/// Packs row-major activation codes into workspace-backed panels + header,
/// as a plain matrix (matrix_geom). The layers pack through the fused
/// quantizing packers; tests and benches build operands with this one.
ActPanels pack_activation_panels(const std::uint16_t* xq, const PanelPlan& plan,
                                 Workspace& ws);

/// Conv weights, workspace-backed: pack_weight_panels_into with \p taps
/// taps per channel, plus the padding constant against the pad code
/// \p z_pad (pad_sums_into), attached as pad_sum.
WeightPanels pack_conv_weight_panels(const std::uint16_t* wq, unsigned bits,
                                     const PanelPlan& plan, std::int64_t taps,
                                     const std::int32_t* lut,
                                     std::uint16_t z_pad, Workspace& ws);

/// Inverse of pack_weight_panels: recovers the row-major uint16 codes
/// (un-shifted). For round-trip tests.
void unpack_weight_panels(const WeightPanels& w, unsigned bits,
                          std::uint16_t* wq_out);

/// Inverse of pack_activation_panels: the panel codes as a (rows, depth)
/// row-major matrix in panel order.
void unpack_activation_panels(const ActPanels& x, std::uint16_t* xq_out);

/// Fused im2col + pack for the integer inference path: unfolds the NCHW
/// uint8 feature map \p x under \p geom straight into
/// zero-point-padded uint16 panels (plan rows = positions, location-major;
/// depth = patch, tap-major), computing the row-sum header on the fly. No
/// intermediate (positions x patch) column buffer is materialized. Parallel over chunks
/// of \p grain position blocks; the engine passes its GEMM's chunks, so a
/// conv too small to split packs on the caller. \p bits is the operand
/// width: <= 4-bit operands also get the nibble-packed mirror for the SIMD
/// pshufb path (attach_packed4), on the same chunks.
ActPanels pack_im2col_panels_u8(const std::uint8_t* x,
                                const tensor::ConvGeom& geom,
                                std::uint16_t zero_point, const PanelPlan& plan,
                                Workspace& ws, unsigned bits,
                                std::int64_t grain);

/// Fused im2col + quantize + pack for the training path: gathers each float
/// tap of the NCHW input (zero padding), quantizes it under \p params and
/// writes the code straight into its panel slot (location-major rows,
/// tap-major depth). \p in_range and \p row_codes (caller-owned, positions
/// x patch row-major in im2col order) receive the clamp-STE mask and a
/// row-major copy of the codes, which the backward pass consumes. Parallel
/// over position blocks.
ActPanels quantize_im2col_panels(const float* x, const tensor::ConvGeom& geom,
                                 const quant::QuantParams& params,
                                 const PanelPlan& plan, std::uint8_t* in_range,
                                 std::uint16_t* row_codes, Workspace& ws);

/// Fused quantize + pack of a row-major float matrix (the ApproxLinear
/// activation path). \p in_range and \p row_codes are row-major
/// (plan.rows x plan.depth).
ActPanels quantize_into_panels(const float* src, const quant::QuantParams& params,
                               const PanelPlan& plan, std::uint8_t* in_range,
                               std::uint16_t* row_codes, Workspace& ws);

} // namespace amret::kernels
