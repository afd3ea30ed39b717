/// \file depthwise.hpp
/// \brief Depthwise convolution with AppMult-simulated arithmetic.
///
/// Depthwise-separable blocks (depthwise 3x3 + pointwise 1x1) dominate
/// mobile accelerators — a prime deployment target for approximate
/// multipliers. This layer convolves each channel with its own single
/// filter; combined with a 1x1 ApproxConv2d it forms the separable block
/// used by models::make_mobilenet.
///
/// Quantized mode follows the same Eq. (7)/(8)/(9) scheme as ApproxConv2d:
/// LUT products forward, gradient-LUT backward, clamp-aware STE through the
/// quantizers, computed by the direct padded-plane kernel
/// (kernels/depthwise.hpp). Per-invocation state (input planes, codes, the
/// arena) lives in the caller's nn::Context.
#pragma once

#include "approx/approx_conv.hpp"
#include "kernels/depthwise.hpp"

namespace amret::approx {

/// Channel-wise conv: weight (C, K, K), each channel c convolved with its
/// own filter; stride/padding like ApproxConv2d.
class DepthwiseConv2d : public ApproxLayer {
public:
    DepthwiseConv2d(std::int64_t channels, std::int64_t kernel, std::int64_t stride,
                    std::int64_t pad, util::Rng& rng);

    tensor::Tensor forward(const tensor::Tensor& x, nn::Context& ctx) override;
    tensor::Tensor backward(const tensor::Tensor& gy, nn::Context& ctx) override;
    [[nodiscard]] std::string name() const override { return "DepthwiseConv2d"; }

private:
    // Per-invocation state (nn::Context slot). The forward's padded input
    // planes and weight codes live in the embedded workspace arena: reset
    // at the start of forward(), valid through the matching backward
    // (DESIGN.md §10/§11).
    struct State {
        kernels::Workspace ws;
        kernels::DepthwiseArgs args;     ///< geometry, weight codes, x params, tables
        kernels::DepthwisePlanes input;  ///< padded input planes (ws-backed)
    };

    [[nodiscard]] std::int64_t last_positions(const nn::Context& ctx) const override;

    std::int64_t channels_, kernel_, stride_, pad_;
};

} // namespace amret::approx
