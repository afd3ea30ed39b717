/// \file quantize.hpp
/// \brief Quantization kernels writing into a Workspace.
///
/// Parallel quant::QuantParams (Eq. 7) for the layer hot paths: each
/// element's code and clamp mask come inline from one quotient, equal to
/// QuantParams::quantize and in_range for every finite and infinite value.
/// Codes and masks are bump-allocated from the layer's Workspace and stay
/// valid from forward through the matching backward (see workspace.hpp
/// lifetime rules).
#pragma once

#include "kernels/layout.hpp"
#include "kernels/workspace.hpp"
#include "quant/quant.hpp"

#include <cstdint>
#include <utility>

namespace amret::kernels {

/// Quantized buffer view into a Workspace: unsigned codes (uint16 covers
/// bits <= 10) plus the in-range mask the clamp-aware STE backward needs.
struct QuantView {
    std::uint16_t* codes = nullptr;
    std::uint8_t* in_range = nullptr; ///< 1 where the STE gradient passes
    quant::QuantParams params;
    std::int64_t size = 0;
};

/// quant::QuantParams::quantize and in_range of \p n values at \p src, into
/// \p codes and \p in_range, inline and from one quotient v / s + Z per
/// value: the serial element loop of every quantizer here, for callers
/// that lay codes out themselves (the depthwise kernel's padded planes).
void quantize_values(const float* src, std::int64_t n,
                     const quant::QuantParams& params, std::uint16_t* codes,
                     std::uint8_t* in_range);

/// Quantizes \p n floats under \p params into workspace-backed codes and
/// masks (elementwise; parallel).
QuantView quantize_into(const float* src, std::int64_t n,
                        const quant::QuantParams& params, Workspace& ws);

/// The first minimum and the first maximum of \p n > 0 floats, the
/// elements std::min_element and std::max_element return, so a zero keeps
/// its sign: one parallel pass, whose per-chunk extremes reduce in
/// ascending chunk order. Chunk scratch comes from \p ws.
std::pair<float, float> min_max(const float* v, std::int64_t n, Workspace& ws);

/// Per-tensor weight quantization: quantize_into under the parameters of
/// the tensor's min_max at \p bits.
QuantView quantize_weights_per_tensor(const float* w, std::int64_t n,
                                      unsigned bits, Workspace& ws);

/// Per-output-channel weight quantization: each of the \p o rows of the
/// (o, patch) weight matrix gets its own affine parameters derived from the
/// row's min/max at \p bits. Codes/masks land in \p ws; the row scales and
/// zero points go to \p scale_per_o / \p zero_per_o (length o, caller
/// owned — typically also workspace-backed). The returned view's params
/// field is left at its default (per-row parameters supersede it).
QuantView quantize_weights_per_channel(const float* w, std::int64_t o,
                                       std::int64_t patch, unsigned bits,
                                       float* scale_per_o,
                                       std::int32_t* zero_per_o, Workspace& ws);

/// Quantized activation operand pre-tiled to the blocked kernel layout
/// (layout.hpp): codes land directly in (tr x tk) panels with the Eq. (8)
/// row-sum header hoisted for the forward, and a row-major copy of the
/// codes plus the clamp mask (both plan.rows x plan.depth) serve the
/// backward (lut_backward_rows and the STE epilogues). Codes and masks are
/// bitwise-identical to quantize_into over the same values.
struct QuantPanels {
    ActPanels panels;
    QuantView rows; ///< row-major copy of the panel codes, and the mask
};

/// Fused im2col + quantize + pack of an NCHW float feature map, the
/// training layers' one activation packer (ApproxLinear's matrix is the 1x1
/// conv of kernels::matrix_geom): no (positions x patch) column buffer is
/// materialized. The row-major codes and masks keep the im2col rows and
/// take the panels' tap-major depth (layout.hpp); out-of-image taps take
/// the code and mask of 0.0f. Defined beside pack_im2col_panels_u8, whose
/// gather body it shares on chunks of \p grain position blocks
/// (forward_grain); only the source of a code differs.
QuantPanels quantize_conv_panels(const float* x, const tensor::ConvGeom& geom,
                                 const quant::QuantParams& params,
                                 const PanelPlan& plan, std::int64_t grain,
                                 Workspace& ws);

} // namespace amret::kernels
