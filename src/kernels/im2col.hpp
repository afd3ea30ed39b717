/// \file im2col.hpp
/// \brief The single im2col/col2im planner of the kernel layer.
///
/// One templated core replaces the copies that used to live in
/// tensor/tensor.cpp (float, zero padding) and approx/inference.cpp (uint8 ->
/// uint16 with zero-point padding); the depthwise layer needs no unfold (it
/// reads taps from padded planes, kernels/depthwise.hpp). Both variants
/// unfold an NCHW input into a (positions, patch)
/// row-major matrix whose rows are ordered c-major then kernel row/col,
/// matching the (O, C, K, K) weight layout. Batch images fill disjoint row
/// blocks, so the planner parallelizes over images (element values are plain
/// copies — identical for any thread count and grain).
#pragma once

#include "tensor/tensor.hpp"

#include <cstdint>

namespace amret::kernels {

/// Float im2col with zero padding: x is (N, C, H, W) per \p geom, cols is
/// (geom.positions(), geom.patch()), fully overwritten.
void im2col(const float* x, const tensor::ConvGeom& geom, float* cols);

/// Convenience wrapper producing a fresh (positions, patch) tensor.
tensor::Tensor im2col(const tensor::Tensor& x, const tensor::ConvGeom& geom);

/// uint8 -> uint16 im2col with zero-point padding (exact integer-hardware
/// behaviour): out-of-image taps read as \p zero_point. No layer runs it:
/// the engine packs panels straight from the feature map
/// (pack_im2col_panels_u8), and this unfused matrix is the reference that
/// packer is tested against.
void im2col_u8(const std::uint8_t* x, const tensor::ConvGeom& geom,
               std::uint16_t zero_point, std::uint16_t* cols);

/// Transpose of im2col: folds (positions, patch) gradients back onto the
/// input feature map, accumulating overlapping taps and dropping the
/// out-of-image ones. \p x (batch * in_ch * in_h * in_w floats) must be
/// zero-initialized by the caller. Images accumulate independently
/// (parallel over N); within an image taps fold in ascending position
/// order, matching the serial fold bit for bit.
void col2im(const float* cols, const tensor::ConvGeom& geom, float* x);

/// col2im of columns whose depth is tap-major, (ky, kx, c): the row-major
/// order of the quantized conv's codes and gradients (layout.hpp, "Conv
/// order"). The same fold, so each pixel receives the same additions in the
/// same order as col2im of the im2col-order columns.
void col2im_tap_major(const float* cols, const tensor::ConvGeom& geom, float* x);

/// Convenience wrapper producing a fresh (N, C, H, W) tensor.
tensor::Tensor col2im(const tensor::Tensor& cols, const tensor::ConvGeom& geom);

/// (P, O) position-major matrix -> (N, O, OH, OW) feature map.
void scatter_positions(const float* po, std::int64_t n, std::int64_t o,
                       std::int64_t oh, std::int64_t ow, float* y);

/// (N, O, OH, OW) feature map -> (P, O) position-major matrix.
void gather_positions(const float* y, std::int64_t n, std::int64_t o,
                      std::int64_t oh, std::int64_t ow, float* po);

} // namespace amret::kernels
