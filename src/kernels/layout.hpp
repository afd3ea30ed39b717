/// \file layout.hpp
/// \brief Blocked (panelized) code layouts for the LUT-GEMM kernel family.
///
/// PR 3's kernels read row-major code matrices: the forward inner loop walks
/// one weight row per output channel, so every (p, o) pair re-streams K
/// codes from a different cache line set, and the product-LUT row is chosen
/// per element. This file defines the cache-conscious layout the blocked
/// kernels (lut_kernels.hpp) consume instead:
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
///   blocked results bitwise-identical to the scalar oracle (a padded depth
///   tap would add a real LUT value, since LUT[0 | x] is generally nonzero).
///
///   Panel header. The Eq. (8) zero-point correction needs per-row code
///   sums (sum_w[o], sum_x[p]). They are computed once during packing and
///   carried next to the panels ("hoisted into the panel header") so neither
///   forward nor backward re-reduces the codes.
///
/// The planner also fuses im2col into panel production: pack_im2col_* walk
/// the convolution taps directly from the NCHW/NHWC feature map into panel
/// slots (zero-point padding applied on the fly), eliminating the full
/// (positions x patch) intermediate im2col buffer of the unfused path.
///
/// Raw indexing into panel buffers outside src/kernels is rejected by
/// scripts/check_invariants.py (rule panel-indexing); consumers go through
/// the kernels in lut_kernels.hpp or the unpack_* helpers below.
#pragma once

#include "kernels/workspace.hpp"
#include "quant/quant.hpp"
#include "tensor/tensor.hpp"

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

/// Blocked weight operand: codes are stored PRE-SHIFTED as (w << bits) in
/// uint32 so the kernel forms a LUT index with a single OR, and `lut + code`
/// is directly the base of the weight's LUT row. sum_w is the hoisted Eq. (8)
/// header (length plan.rows).
struct WeightPanels {
    PanelPlan plan;
    const std::uint32_t* codes = nullptr;
    const std::int64_t* sum_w = nullptr;
};

/// Blocked activation operand with its hoisted row-sum header (length
/// plan.rows, indexed by absolute position row).
struct ActPanels {
    PanelPlan plan;
    const std::uint16_t* codes = nullptr;
    const std::int64_t* sum_x = nullptr;
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
/// \p sum_w the plan.rows row sums. Parallel over row blocks.
void pack_weight_panels_into(const std::uint16_t* wq, unsigned bits,
                             const PanelPlan& plan, std::uint32_t* codes,
                             std::int64_t* sum_w);

/// Workspace-backed variant of pack_weight_panels_into.
WeightPanels pack_weight_panels(const std::uint16_t* wq, unsigned bits,
                                const PanelPlan& plan, Workspace& ws);

/// Packs row-major activation codes into workspace-backed panels + header.
ActPanels pack_activation_panels(const std::uint16_t* xq, const PanelPlan& plan,
                                 Workspace& ws);

/// Inverse of pack_weight_panels: recovers the row-major uint16 codes
/// (un-shifted). For round-trip tests and analyzer cross-checks.
void unpack_weight_panels(const WeightPanels& w, unsigned bits,
                          std::uint16_t* wq_out);

/// Inverse of pack_activation_panels.
void unpack_activation_panels(const ActPanels& x, std::uint16_t* xq_out);

/// Memory layout of a uint8 activation feature map.
enum class ActivationLayout {
    kNCHW, ///< planar: ((n*C + c)*H + y)*W + x
    kNHWC, ///< channel-interleaved: ((n*H + y)*W + x)*C + c
};

/// Fused im2col + pack for the integer inference path: unfolds the uint8
/// feature map \p x (layout \p layout) under \p geom straight into
/// zero-point-padded uint16 panels (plan rows = positions, depth = patch),
/// computing the row-sum header on the fly. No intermediate
/// (positions x patch) column buffer is materialized. Parallel over chunks
/// of \p grain position blocks; the engine passes its GEMM's chunks, so a
/// conv too small to split packs on the caller. \p bits is the operand
/// width: <= 4-bit operands also get the nibble-packed mirror for the SIMD
/// pshufb path (attach_packed4), on the same chunks.
ActPanels pack_im2col_panels_u8(const std::uint8_t* x,
                                const tensor::ConvGeom& geom,
                                ActivationLayout layout,
                                std::uint16_t zero_point, const PanelPlan& plan,
                                Workspace& ws, unsigned bits,
                                std::int64_t grain);

/// Fused im2col + quantize + pack for the training path: gathers each float
/// tap of the NCHW input (zero padding), quantizes it under \p params and
/// writes the code straight into its panel slot. \p in_range and
/// \p row_codes (caller-owned, positions x patch row-major) receive the
/// clamp-STE mask and a row-major copy of the codes, which the backward
/// pass consumes. Parallel over position blocks.
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
