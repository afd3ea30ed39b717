// Tests for the Eq. (7)/(8) quantization layer.
#include "kernels/quantize.hpp"
#include "quant/quant.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace amret;
using quant::QuantParams;

TEST(Quant, ChooseParamsCoversRangeAndZero) {
    const QuantParams p = quant::choose_params(-1.0f, 3.0f, 8);
    EXPECT_EQ(p.bits, 8u);
    // Zero maps exactly to an integer code.
    const float zq = p.quantize(0.0f);
    EXPECT_FLOAT_EQ(zq, std::nearbyint(zq));
    EXPECT_NEAR(p.dequantize(zq), 0.0f, 1e-6f);
    // Extremes stay within one step of the range.
    EXPECT_NEAR(p.dequantize(p.quantize(-1.0f)), -1.0f, p.scale);
    EXPECT_NEAR(p.dequantize(p.quantize(3.0f)), 3.0f, p.scale);
}

TEST(Quant, PositiveOnlyRangeStillIncludesZero) {
    const QuantParams p = quant::choose_params(2.0f, 5.0f, 8);
    EXPECT_NEAR(p.dequantize(p.quantize(0.0f)), 0.0f, 1e-5f);
}

TEST(Quant, DegenerateRangeDoesNotBlowUp) {
    const QuantParams p = quant::choose_params(0.0f, 0.0f, 8);
    EXPECT_GT(p.scale, 0.0f);
    EXPECT_TRUE(std::isfinite(p.quantize(0.0f)));
}

TEST(Quant, QuantizeClampsOutOfRange) {
    const QuantParams p = quant::choose_params(-1.0f, 1.0f, 8);
    EXPECT_FLOAT_EQ(p.quantize(100.0f), p.qmax());
    EXPECT_FLOAT_EQ(p.quantize(-100.0f), 0.0f);
    EXPECT_FALSE(p.in_range(100.0f));
    EXPECT_FALSE(p.in_range(-100.0f));
    EXPECT_TRUE(p.in_range(0.5f));
}

TEST(Quant, RoundTripErrorBoundedByHalfStep) {
    const QuantParams p = quant::choose_params(-2.0f, 2.0f, 8);
    for (float v = -2.0f; v <= 2.0f; v += 0.037f) {
        const float r = p.dequantize(p.quantize(v));
        EXPECT_LE(std::abs(r - v), 0.5f * p.scale + 1e-6f) << v;
    }
}

TEST(Quant, BitsControlResolution) {
    const QuantParams p8 = quant::choose_params(-1.0f, 1.0f, 8);
    const QuantParams p4 = quant::choose_params(-1.0f, 1.0f, 4);
    EXPECT_LT(p8.scale, p4.scale);
    EXPECT_FLOAT_EQ(p8.qmax(), 255.0f);
    EXPECT_FLOAT_EQ(p4.qmax(), 15.0f);
}

TEST(Quant, DequantizeInverse) {
    const QuantParams p = quant::choose_params(-1.0f, 1.0f, 7);
    // dequantize(Z) == 0 by construction.
    EXPECT_NEAR(p.dequantize(p.zero_point), 0.0f, 1e-7f);
}

TEST(Observer, FirstObservationInitializes) {
    quant::EmaObserver obs(0.9);
    EXPECT_FALSE(obs.initialized());
    obs.observe(tensor::Tensor::from({-1.0f, 2.0f}));
    EXPECT_TRUE(obs.initialized());
    EXPECT_FLOAT_EQ(obs.lo(), -1.0f);
    EXPECT_FLOAT_EQ(obs.hi(), 2.0f);
}

TEST(Observer, EmaConverges) {
    quant::EmaObserver obs(0.5);
    obs.observe(tensor::Tensor::from({0.0f, 0.0f}));
    for (int i = 0; i < 30; ++i) obs.observe(tensor::Tensor::from({-4.0f, 4.0f}));
    EXPECT_NEAR(obs.lo(), -4.0f, 1e-3f);
    EXPECT_NEAR(obs.hi(), 4.0f, 1e-3f);
}

TEST(Observer, SetRangeRestoresState) {
    quant::EmaObserver obs;
    obs.set_range(-2.0f, 3.0f, true);
    EXPECT_TRUE(obs.initialized());
    const QuantParams p = obs.params(8);
    EXPECT_NEAR(p.dequantize(p.quantize(-2.0f)), -2.0f, p.scale);
}

TEST(Quant, FakeQuantizeIdempotent) {
    const QuantParams p = quant::choose_params(-1.0f, 1.0f, 6);
    util::Rng rng(11);
    const tensor::Tensor t = tensor::Tensor::randn(tensor::Shape{64}, rng, 0.4f);
    const tensor::Tensor once = quant::fake_quantize(t, p);
    const tensor::Tensor twice = quant::fake_quantize(once, p);
    for (std::int64_t i = 0; i < t.numel(); ++i)
        EXPECT_FLOAT_EQ(once[i], twice[i]) << i;
}

// The layers quantize through kernels::quantize_into: codes clamp to
// [0, 2^B - 1], the mask blocks the gradient outside the range, and the
// dequantized codes are fake_quantize.

TEST(QuantizeInto, CodesAndMask) {
    const QuantParams p = quant::choose_params(-1.0f, 1.0f, 8);
    const float v[4] = {-1.0f, 0.0f, 1.0f, 50.0f};
    kernels::Workspace ws;
    const kernels::QuantView q = kernels::quantize_into(v, 4, p, ws);
    ASSERT_EQ(q.size, 4);
    EXPECT_EQ(q.codes[0], 0u);
    EXPECT_EQ(q.codes[3], 255u); // clamped
    EXPECT_EQ(q.in_range[1], 1);
    EXPECT_EQ(q.in_range[3], 0); // gradient blocked outside range
}

TEST(QuantizeInto, DequantOfCodesMatchesFakeQuant) {
    const QuantParams p = quant::choose_params(-1.5f, 0.7f, 7);
    util::Rng rng(12);
    const tensor::Tensor t = tensor::Tensor::randn(tensor::Shape{128}, rng, 0.5f);
    kernels::Workspace ws;
    const kernels::QuantView q = kernels::quantize_into(t.data(), t.numel(), p, ws);
    const tensor::Tensor fq = quant::fake_quantize(t, p);
    for (std::int64_t i = 0; i < t.numel(); ++i)
        EXPECT_NEAR(p.dequantize(static_cast<float>(q.codes[i])), fq[i], 1e-6f);
}

// ------------------------------------------------ fixed-point requantize --
// Boundary behaviour of the Sec. IV integer requantization helpers, now
// owned by src/quant (the integer inference engine consumes them).

TEST(FixedPoint, HalfMultiplierRoundsHalfUp) {
    const quant::FixedPointMultiplier fpm = quant::quantize_multiplier(0.5);
    EXPECT_EQ(fpm.mult, std::int32_t{1} << 30);
    EXPECT_EQ(fpm.shift, 31);
    EXPECT_EQ(quant::fixed_point_rescale(5, fpm), 3);   // 2.5 -> 3
    EXPECT_EQ(quant::fixed_point_rescale(-5, fpm), -2); // -2.5 -> -2 (half up)
    EXPECT_EQ(quant::fixed_point_rescale(4, fpm), 2);
    EXPECT_EQ(quant::fixed_point_rescale(-4, fpm), -2);
}

TEST(FixedPoint, UnitMultiplierIsIdentity) {
    const quant::FixedPointMultiplier fpm = quant::quantize_multiplier(1.0);
    for (const std::int64_t v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                                 std::int64_t{123456789}, std::int64_t{-987654321}})
        EXPECT_EQ(quant::fixed_point_rescale(v, fpm), static_cast<std::int32_t>(v))
            << v;
}

TEST(FixedPoint, JustBelowOneRenormalizesMantissa) {
    // lround(m * 2^31) lands exactly on 2^31 here; the fold must renormalize
    // the mantissa back into [2^30, 2^31) instead of overflowing int32.
    const quant::FixedPointMultiplier fpm = quant::quantize_multiplier(1.0 - 1e-12);
    EXPECT_EQ(fpm.mult, std::int32_t{1} << 30);
    EXPECT_EQ(fpm.shift, 30);
    EXPECT_EQ(quant::fixed_point_rescale(7, fpm), 7);
}

TEST(FixedPoint, AboveOneFoldsPowersOfTwoIntoShift) {
    const quant::FixedPointMultiplier two = quant::quantize_multiplier(2.0);
    EXPECT_EQ(quant::fixed_point_rescale(3, two), 6);
    EXPECT_EQ(quant::fixed_point_rescale(-3, two), -6);
    const quant::FixedPointMultiplier eight = quant::quantize_multiplier(8.0);
    EXPECT_EQ(quant::fixed_point_rescale(5, eight), 40);
}

TEST(FixedPoint, TinyMultiplierStaysNormalized) {
    // Small scale ratios keep a normalized mantissa in [2^30, 2^31); the
    // magnitude lives entirely in the shift, so precision never degrades.
    const double m = std::ldexp(1.3, -24); // ~7.7e-8
    const quant::FixedPointMultiplier fpm = quant::quantize_multiplier(m);
    EXPECT_GE(fpm.mult, std::int32_t{1} << 30);
    EXPECT_LT(static_cast<std::int64_t>(fpm.mult), std::int64_t{1} << 31);
    const std::int64_t v = 100000000;
    EXPECT_EQ(quant::fixed_point_rescale(v, fpm),
              static_cast<std::int32_t>(std::llround(static_cast<double>(v) * m)));
    // Float-subnormal-adjacent magnitude: still a normalized mantissa, with
    // the decades of magnitude absorbed by the shift.
    const quant::FixedPointMultiplier tiny = quant::quantize_multiplier(1.5e-38);
    EXPECT_GE(tiny.mult, std::int32_t{1} << 30);
    EXPECT_GT(tiny.shift, 150);
}

} // namespace
