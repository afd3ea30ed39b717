/// \file depthwise.hpp
/// \brief Direct depthwise convolution over padded input planes.
///
/// A depthwise layer convolves each channel with its own K x K filter, so
/// its "GEMM" has one output row and a reduction depth of only K^2. Running
/// it through im2col and the tiled LUT-GEMM copied every input pixel K^2
/// times, quantized every copy and folded a K^2-sized gradient buffer back
/// through col2im. This kernel instead quantizes each input pixel once into
/// a padded code plane and reads the K^2 taps of every output straight from
/// it, in both passes:
///
///   - the forward keeps one product-LUT row per tap (`w << bits`),
///     accumulates the LUT products and the code sum of each output in
///     int64 and applies the Eq. (8) epilogue;
///   - the backward walks the outputs once in ascending (n, oy, ox) order,
///     carries the bias sum and the K^2 weight-gradient sums through the
///     walk and adds each ∂X term (Eq. 9) into a padded scratch plane in
///     the order col2im folded it.
///
/// Bits. The border of a code plane holds quantize(0.0f) and its mask
/// in_range(0.0f) — exactly what the zero-padded float im2col quantized to.
/// The forward accumulator is int64 (exact in any order). Every float sum
/// keeps its old order and expressions: gw[c, t] and gb[c] add their terms
/// in ascending output position, and each interior gx pixel receives its
/// terms in ascending (oy, ox, ky, kx) order starting from +0.0f, g == 0
/// terms included. Out-of-image taps land in the discarded border of the
/// scratch plane. tests/test_depthwise.cpp memcmps the kernel against the
/// im2col algorithm; tests/test_kernels.cpp pins golden hashes of both.
#pragma once

#include "kernels/quantize.hpp"
#include "kernels/workspace.hpp"
#include "quant/quant.hpp"
#include "tensor/tensor.hpp"

#include <cstdint>

namespace amret::kernels {

/// One depthwise pass: channel c of the (N, C, H, W) input is convolved
/// with filter c of the (C, K, K) weights. The pass is quantized when
/// wq.codes is set and float otherwise.
struct DepthwiseArgs {
    tensor::ConvGeom geom;              ///< in_ch = C
    const float* w = nullptr;           ///< float weights (float passes)
    QuantView wq;                       ///< weight codes + clamp mask + params
    quant::QuantParams xparams;         ///< activation quantization
    const std::int32_t* lut = nullptr;  ///< product LUT, index (w << bits) | x
    const float* grad_w_lut = nullptr;  ///< ∂AM/∂W, same index
    const float* grad_x_lut = nullptr;  ///< ∂AM/∂X, same index

    [[nodiscard]] bool quantized() const { return wq.codes != nullptr; }
};

/// The input a pass keeps from forward to backward: each (c, n) input plane
/// padded by geom.pad on every side, (H + 2 pad) x (W + 2 pad) elements,
/// planes ordered c-major then n. Quantized passes keep codes and the clamp
/// mask, float passes the values (border 0.0f).
struct DepthwisePlanes {
    const std::uint16_t* codes = nullptr;
    const std::uint8_t* in_range = nullptr;
    const float* values = nullptr;
};

/// Forward into \p y (N, C, OH, OW), overwritten; \p bias has C entries.
/// The returned planes live in \p ws until its next reset. Parallel over
/// channels; every scratch buffer is carved from \p ws before the region.
DepthwisePlanes depthwise_forward(const DepthwiseArgs& a, const float* x,
                                  const float* bias, float* y, Workspace& ws);

/// Backward over the planes of the matching forward: accumulates into
/// \p gw (C, K, K) and \p gb (C) and overwrites \p gx (N, C, H, W).
/// Quantized passes apply the weight and activation clamp masks (STE).
/// Parallel over channels.
void depthwise_backward(const DepthwiseArgs& a, const DepthwisePlanes& in,
                        const float* gy, float* gw, float* gb, float* gx,
                        Workspace& ws);

} // namespace amret::kernels
