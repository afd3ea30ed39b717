/// \file quant.hpp
/// \brief Uniform affine (asymmetric) quantization, Eqs. (7) and (8).
///
/// Float weights/activations are mapped to unsigned B-bit integers with a
/// scale s and zero point Z: Q(v) = clamp(round(v/s + Z), 0, 2^B - 1).
/// Dequantization of a product of quantized operands follows Eq. (8):
///   y = s_w * s_x * (Y - Z_x*W - Z_w*X + Z_w*Z_x).
/// The fake-quant training path uses the clamp-aware straight-through rule:
/// dQ/dv = 1/s inside the representable range and 0 outside.
#pragma once

#include "tensor/tensor.hpp"

#include <cstdint>

namespace amret::quant {

/// Affine quantization parameters for one tensor.
struct QuantParams {
    float scale = 1.0f;      ///< s
    float zero_point = 0.0f; ///< Z (kept float; always an integer value)
    unsigned bits = 8;       ///< B

    [[nodiscard]] float qmax() const {
        return static_cast<float>((std::uint32_t{1} << bits) - 1);
    }

    /// Q(v) of Eq. (7) with clamping to [0, 2^B - 1].
    [[nodiscard]] float quantize(float v) const;

    /// Plain dequantization of a single quantized value: s * (q - Z).
    [[nodiscard]] float dequantize(float q) const;

    /// True if v falls strictly inside the representable (un-clamped) range;
    /// gradients pass through only here.
    [[nodiscard]] bool in_range(float v) const;
};

/// Derives affine parameters covering [lo, hi] with B bits. The range is
/// widened to include 0 so that zero is exactly representable (standard
/// practice; keeps padding exact).
QuantParams choose_params(float lo, float hi, unsigned bits);

/// Exponential-moving-average min/max observer for activation calibration.
class EmaObserver {
public:
    explicit EmaObserver(double momentum = 0.9) : momentum_(momentum) {}

    /// Folds the batch range of \p t into the running range.
    void observe(const tensor::Tensor& t);

    [[nodiscard]] bool initialized() const { return initialized_; }
    [[nodiscard]] float lo() const { return static_cast<float>(lo_); }
    [[nodiscard]] float hi() const { return static_cast<float>(hi_); }

    /// Restores a previously captured range (model snapshot support).
    void set_range(float lo, float hi, bool initialized) {
        lo_ = lo;
        hi_ = hi;
        initialized_ = initialized;
    }

    /// Current quantization parameters for the observed range.
    [[nodiscard]] QuantParams params(unsigned bits) const;

private:
    double momentum_;
    double lo_ = 0.0, hi_ = 0.0;
    bool initialized_ = false;
};

/// Fake-quantization: quantize then dequantize elementwise (used in tests
/// as the reference for the exact-multiplier integer path).
tensor::Tensor fake_quantize(const tensor::Tensor& t, const QuantParams& params);

/// Fixed-point representation of a positive real multiplier m < 1:
/// m ~= mult * 2^-shift with mult in [2^30, 2^31). Used by the integer
/// inference path to requantize accumulators (M = s_in*s_w/s_out per Jacob
/// et al., CVPR'18) without float arithmetic.
struct FixedPointMultiplier {
    std::int32_t mult = 0;
    int shift = 0;
};
FixedPointMultiplier quantize_multiplier(double m);

/// Applies the fixed-point multiplier with rounding: (v * mult) >> shift.
std::int32_t fixed_point_rescale(std::int64_t v, const FixedPointMultiplier& fpm);

} // namespace amret::quant
