// Tests for the approximate layers and LUT GEMM kernels. The central
// invariant: with the EXACT multiplier LUT and STE gradients, the quantized
// integer path must equal a float convolution over fake-quantized tensors,
// in both forward and backward — this pins Eq. (8) and Eq. (9) end to end.
#include "gemm_oracle.hpp"
#include "lut_oracle.hpp"

#include "accel/energy_model.hpp"
#include "approx/approx_conv.hpp"
#include "approx/assignment.hpp"
#include "approx/depthwise.hpp"
#include "kernels/im2col.hpp"
#include "kernels/lut_kernels.hpp"
#include "kernels/simd/simd.hpp"
#include "kernels/tuning.hpp"
#include "appmult/registry.hpp"
#include "models/models.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>

namespace {

using namespace amret;
using approx::ApproxConv2d;
using approx::ApproxLinear;
using approx::ComputeMode;
using approx::MultiplierConfig;
using tensor::Shape;
using tensor::Tensor;

double dot(const Tensor& a, const Tensor& b) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < a.numel(); ++i)
        acc += static_cast<double>(a[i]) * b[i];
    return acc;
}

MultiplierConfig approx_config(const std::string& name, core::GradientMode mode,
                               unsigned hws) {
    auto& reg = appmult::Registry::instance();
    MultiplierConfig config;
    config.lut = std::make_shared<appmult::AppMultLut>(reg.lut(name));
    config.grad =
        std::make_shared<core::GradLut>(core::build_grad(*config.lut, mode, hws));
    return config;
}

// ------------------------------------------------------------- lut_gemm --

/// lut_forward_blocked over \p args' codes, packed with the compiled tiles.
void blocked_forward(const kernels::LutGemmArgs& args, const float* bias, float* y) {
    namespace tune = kernels::tune;
    kernels::Workspace ws;
    const kernels::LutGemmArgs b =
        lut_oracle::pack_blocked(args, tune::kTileP, tune::kTileO, tune::kTileK, ws);
    kernels::lut_forward_blocked(b, bias, y);
}

TEST(LutGemm, ForwardMatchesDequantizedDotProduct) {
    const unsigned bits = 4;
    const auto lut = appmult::AppMultLut::exact(bits);
    const std::int64_t O = 3, P = 2, K = 5;
    std::vector<std::uint16_t> wq = {1, 2, 3, 4, 5, 0, 15, 7, 9, 3, 8, 8, 8, 8, 8};
    std::vector<std::uint16_t> xq = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3};

    kernels::LutGemmArgs args;
    args.bits = bits;
    args.lut = lut.table().data();
    args.wq = wq.data();
    args.xq = xq.data();
    args.o = O;
    args.geom = kernels::matrix_geom(P, K);
    args.scale_w = 0.25f;
    args.scale_x = 0.5f;
    args.zero_w = 7;
    args.zero_x = 4;

    std::vector<float> y(static_cast<std::size_t>(P * O));
    blocked_forward(args, nullptr, y.data());

    for (std::int64_t p = 0; p < P; ++p) {
        for (std::int64_t o = 0; o < O; ++o) {
            double ref = 0.0;
            for (std::int64_t k = 0; k < K; ++k) {
                const double w = 0.25 * (static_cast<double>(wq[o * K + k]) - 7.0);
                const double x = 0.5 * (static_cast<double>(xq[p * K + k]) - 4.0);
                ref += w * x;
            }
            EXPECT_NEAR(y[static_cast<std::size_t>(p * O + o)], ref, 1e-4)
                << "p=" << p << " o=" << o;
        }
    }
}

TEST(LutGemm, ForwardAddsBias) {
    const unsigned bits = 4;
    const auto lut = appmult::AppMultLut::exact(bits);
    std::vector<std::uint16_t> wq = {0};
    std::vector<std::uint16_t> xq = {0};
    kernels::LutGemmArgs args;
    args.bits = bits;
    args.lut = lut.table().data();
    args.wq = wq.data();
    args.xq = xq.data();
    args.o = 1;
    args.geom = kernels::matrix_geom(1, 1);
    const float bias = 2.75f;
    float y = 0.0f;
    blocked_forward(args, &bias, &y);
    EXPECT_FLOAT_EQ(y, 2.75f);
}

TEST(LutGemm, BackwardSteMatchesDequantizedOperands) {
    const unsigned bits = 4;
    const auto grad = core::build_ste_grad(bits);
    const auto lut = appmult::AppMultLut::exact(bits);
    const std::int64_t O = 2, P = 3, K = 4;
    std::vector<std::uint16_t> wq = {1, 2, 3, 4, 9, 8, 7, 6};
    std::vector<std::uint16_t> xq = {5, 5, 5, 5, 0, 1, 2, 3, 15, 14, 13, 12};
    std::vector<float> gyp = {1.0f, -2.0f, 0.5f, 0.0f, 3.0f, 1.0f};

    kernels::LutGemmArgs args;
    args.bits = bits;
    args.lut = lut.table().data();
    args.wq = wq.data();
    args.xq = xq.data();
    args.o = O;
    args.geom = kernels::matrix_geom(P, K);
    args.zero_w = 7;
    args.zero_x = 4;
    // Unit s_x and open masks leave the raw sums.
    args.scale_x = 1.0f;
    const std::vector<std::uint8_t> w_ok(static_cast<std::size_t>(O * K), 1);
    const std::vector<std::uint8_t> x_ok(static_cast<std::size_t>(P * K), 1);
    args.w_in_range = w_ok.data();
    args.x_in_range = x_ok.data();

    std::vector<float> gw(static_cast<std::size_t>(O * K), 0.0f);
    std::vector<float> gx(static_cast<std::size_t>(P * K), 0.0f);
    kernels::Workspace ws;
    kernels::lut_backward_rows(args, gyp.data(), grad.dw_table().data(),
                               grad.dx_t_table().data(), gw.data(), gx.data(), ws);

    // STE raw sums: gw[o,k] = sum_p gyp * (Xq - Zx); gx[p,k] = sum_o gyp * (Wq - Zw).
    for (std::int64_t o = 0; o < O; ++o)
        for (std::int64_t k = 0; k < K; ++k) {
            double ref = 0.0;
            for (std::int64_t p = 0; p < P; ++p)
                ref += gyp[static_cast<std::size_t>(p * O + o)] *
                       (static_cast<double>(xq[p * K + k]) - 4.0);
            EXPECT_NEAR(gw[static_cast<std::size_t>(o * K + k)], ref, 1e-4);
        }
    for (std::int64_t p = 0; p < P; ++p)
        for (std::int64_t k = 0; k < K; ++k) {
            double ref = 0.0;
            for (std::int64_t o = 0; o < O; ++o)
                ref += gyp[static_cast<std::size_t>(p * O + o)] *
                       (static_cast<double>(wq[o * K + k]) - 7.0);
            EXPECT_NEAR(gx[static_cast<std::size_t>(p * K + k)], ref, 1e-4);
        }
}

// ----------------------------------------------- exact-path equivalence --

struct ConvRefResult {
    Tensor y;
    Tensor gw;
    Tensor gx;
    Tensor gb;
};

/// Float conv forward/backward over explicitly fake-quantized tensors —
/// the mathematical reference for the integer path with the exact LUT.
ConvRefResult fake_quant_conv_reference(const Tensor& x, const Tensor& w,
                                        const Tensor& b, const Tensor& gy,
                                        unsigned bits, std::int64_t kernel,
                                        std::int64_t stride, std::int64_t pad) {
    const auto wp = quant::choose_params(w.min(), w.max(), bits);
    const auto xp = quant::choose_params(x.min(), x.max(), bits);
    const Tensor fqw = quant::fake_quantize(w, wp);
    const Tensor fqx = quant::fake_quantize(x, xp);

    tensor::ConvGeom geom{x.dim(0), x.dim(1), x.dim(2), x.dim(3), kernel, stride, pad};
    const Tensor cols = kernels::im2col(fqx, geom);
    const std::int64_t out_ch = w.dim(0);
    const Tensor w2d = fqw.reshaped(Shape{out_ch, geom.patch()});
    Tensor po = gemm_oracle::matmul_nt(cols, w2d);
    for (std::int64_t p = 0; p < po.dim(0); ++p)
        for (std::int64_t o = 0; o < out_ch; ++o) po[p * out_ch + o] += b[o];

    ConvRefResult ref;
    const std::int64_t oh = geom.out_h(), ow = geom.out_w();
    ref.y = Tensor(Shape{geom.batch, out_ch, oh, ow});
    Tensor gyp(Shape{geom.positions(), out_ch});
    for (std::int64_t n = 0; n < geom.batch; ++n)
        for (std::int64_t s = 0; s < oh * ow; ++s)
            for (std::int64_t o = 0; o < out_ch; ++o) {
                ref.y[(n * out_ch + o) * oh * ow + s] = po[(n * oh * ow + s) * out_ch + o];
                gyp[(n * oh * ow + s) * out_ch + o] = gy[(n * out_ch + o) * oh * ow + s];
            }

    ref.gw = gemm_oracle::matmul_tn(gyp, cols).reshaped(w.shape());
    ref.gx = kernels::col2im(gemm_oracle::matmul(gyp, w2d), geom);
    ref.gb = Tensor(Shape{out_ch});
    for (std::int64_t p = 0; p < gyp.dim(0); ++p)
        for (std::int64_t o = 0; o < out_ch; ++o) ref.gb[o] += gyp[p * out_ch + o];
    return ref;
}

class ExactPathEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(ExactPathEquivalence, QuantizedConvEqualsFakeQuantReference) {
    const unsigned bits = GetParam();
    util::Rng rng(21);
    nn::Context ctx;
    ApproxConv2d conv(3, 4, 3, 1, 1, rng);
    conv.set_multiplier(MultiplierConfig::exact_ste(bits));
    conv.set_mode(ComputeMode::kQuantized);
    conv.set_training(true);

    const Tensor x = Tensor::randn(Shape{2, 3, 5, 5}, rng);
    const Tensor y = conv.forward(x, ctx);
    Tensor gy = Tensor::randn(y.shape(), rng);
    conv.zero_grad();
    const Tensor gx = conv.backward(gy, ctx);

    const auto ref = fake_quant_conv_reference(x, conv.weight.value, conv.bias.value,
                                               gy, bits, 3, 1, 1);
    ASSERT_EQ(y.shape(), ref.y.shape());
    for (std::int64_t i = 0; i < y.numel(); ++i)
        ASSERT_NEAR(y[i], ref.y[i], 2e-3f) << "forward i=" << i;
    for (std::int64_t i = 0; i < gx.numel(); ++i)
        ASSERT_NEAR(gx[i], ref.gx[i], 2e-3f) << "gx i=" << i;
    for (std::int64_t i = 0; i < conv.weight.grad.numel(); ++i)
        ASSERT_NEAR(conv.weight.grad[i], ref.gw[i], 5e-3f) << "gw i=" << i;
    for (std::int64_t i = 0; i < conv.bias.grad.numel(); ++i)
        ASSERT_NEAR(conv.bias.grad[i], ref.gb[i], 1e-3f) << "gb i=" << i;
}

INSTANTIATE_TEST_SUITE_P(Widths, ExactPathEquivalence, ::testing::Values(6u, 7u, 8u));

TEST(ApproxConv, FloatModeGradCheck) {
    util::Rng rng(22);
    nn::Context ctx;
    ApproxConv2d conv(2, 3, 3, 1, 1, rng);
    conv.set_mode(ComputeMode::kFloat);
    Tensor x = Tensor::randn(Shape{1, 2, 4, 4}, rng);

    Tensor y = conv.forward(x, ctx);
    const Tensor proj = Tensor::randn(y.shape(), rng);
    conv.zero_grad();
    conv.forward(x, ctx);
    const Tensor gx = conv.backward(proj, ctx);

    const float eps = 1e-2f;
    for (std::int64_t idx : {0, 5, 13, 31}) {
        Tensor xp = x, xm = x;
        xp[idx] += eps;
        xm[idx] -= eps;
        const double numeric =
            (dot(conv.forward(xp, ctx), proj) - dot(conv.forward(xm, ctx), proj)) / (2.0 * eps);
        EXPECT_NEAR(gx[idx], numeric, 2e-2);
    }
}

TEST(ApproxConv, StrideTwoQuantEquivalence) {
    util::Rng rng(23);
    nn::Context ctx;
    ApproxConv2d conv(2, 3, 3, 2, 1, rng);
    conv.set_multiplier(MultiplierConfig::exact_ste(8));
    conv.set_mode(ComputeMode::kQuantized);
    const Tensor x = Tensor::randn(Shape{1, 2, 6, 6}, rng);
    const Tensor y = conv.forward(x, ctx);
    Tensor gy = Tensor::randn(y.shape(), rng);
    conv.zero_grad();
    const Tensor gx = conv.backward(gy, ctx);
    const auto ref = fake_quant_conv_reference(x, conv.weight.value, conv.bias.value,
                                               gy, 8, 3, 2, 1);
    for (std::int64_t i = 0; i < y.numel(); ++i) ASSERT_NEAR(y[i], ref.y[i], 2e-3f);
    for (std::int64_t i = 0; i < gx.numel(); ++i) ASSERT_NEAR(gx[i], ref.gx[i], 2e-3f);
}

TEST(ApproxConv, ApproximateLutChangesForward) {
    util::Rng rng(24);
    nn::Context ctx;
    ApproxConv2d conv(2, 3, 3, 1, 1, rng);
    const Tensor x = Tensor::randn(Shape{1, 2, 5, 5}, rng);

    conv.set_multiplier(MultiplierConfig::exact_ste(7));
    conv.set_mode(ComputeMode::kQuantized);
    const Tensor y_exact = conv.forward(x, ctx);

    conv.set_multiplier(approx_config("mul7u_rm6", core::GradientMode::kSte, 0));
    const Tensor y_approx = conv.forward(x, ctx);

    double max_diff = 0.0;
    for (std::int64_t i = 0; i < y_exact.numel(); ++i)
        max_diff = std::max(max_diff,
                            std::abs(static_cast<double>(y_exact[i]) - y_approx[i]));
    EXPECT_GT(max_diff, 1e-4);
}

TEST(ApproxConv, GradientLutChangesBackwardNotForward) {
    util::Rng rng(25);
    nn::Context ctx;
    ApproxConv2d conv(2, 2, 3, 1, 1, rng);
    const Tensor x = Tensor::randn(Shape{1, 2, 5, 5}, rng);

    conv.set_multiplier(approx_config("mul7u_rm6", core::GradientMode::kSte, 0));
    conv.set_mode(ComputeMode::kQuantized);
    const Tensor y1 = conv.forward(x, ctx);
    Tensor gy(y1.shape());
    gy.fill(1.0f);
    conv.zero_grad();
    conv.backward(gy, ctx);
    const Tensor gw_ste = conv.weight.grad;

    approx::set_gradient_luts(
        conv, std::make_shared<core::GradLut>(core::build_difference_grad(
                  appmult::Registry::instance().lut("mul7u_rm6"), 2)));
    const Tensor y2 = conv.forward(x, ctx);
    conv.zero_grad();
    conv.backward(gy, ctx);
    const Tensor gw_diff = conv.weight.grad;

    for (std::int64_t i = 0; i < y1.numel(); ++i) ASSERT_FLOAT_EQ(y1[i], y2[i]);
    double diff = 0.0;
    for (std::int64_t i = 0; i < gw_ste.numel(); ++i)
        diff += std::abs(static_cast<double>(gw_ste[i]) - gw_diff[i]);
    EXPECT_GT(diff, 1e-5);
}

TEST(ApproxConv, EvalModeFreezesObserver) {
    util::Rng rng(26);
    nn::Context ctx;
    ApproxConv2d conv(1, 1, 3, 1, 1, rng);
    conv.set_multiplier(MultiplierConfig::exact_ste(8));
    conv.set_mode(ComputeMode::kQuantized);
    conv.set_training(true);
    const Tensor x_small = Tensor::randn(Shape{1, 1, 4, 4}, rng, 0.1f);
    conv.forward(x_small, ctx);

    std::vector<float> state_before;
    conv.save_extra_state(state_before);
    conv.set_training(false);
    const Tensor x_big = Tensor::randn(Shape{1, 1, 4, 4}, rng, 10.0f);
    conv.forward(x_big, ctx);
    std::vector<float> state_after;
    conv.save_extra_state(state_after);
    EXPECT_EQ(state_before, state_after);
}

TEST(ApproxLinear, QuantizedEqualsFakeQuantReference) {
    util::Rng rng(27);
    nn::Context ctx;
    ApproxLinear lin(6, 4, rng);
    lin.set_multiplier(MultiplierConfig::exact_ste(8));
    lin.set_mode(ComputeMode::kQuantized);
    const Tensor x = Tensor::randn(Shape{3, 6}, rng);
    const Tensor y = lin.forward(x, ctx);

    const auto wp = quant::choose_params(lin.weight.value.min(),
                                         lin.weight.value.max(), 8);
    const auto xp = quant::choose_params(x.min(), x.max(), 8);
    const Tensor fqw = quant::fake_quantize(lin.weight.value, wp);
    const Tensor fqx = quant::fake_quantize(x, xp);
    Tensor ref = gemm_oracle::matmul_nt(fqx, fqw);
    for (std::int64_t i = 0; i < 3; ++i)
        for (std::int64_t j = 0; j < 4; ++j) ref[i * 4 + j] += lin.bias.value[j];
    for (std::int64_t i = 0; i < y.numel(); ++i) ASSERT_NEAR(y[i], ref[i], 2e-3f);
}

TEST(ApproxLinear, FloatModeMatchesManual) {
    util::Rng rng(28);
    nn::Context ctx;
    ApproxLinear lin(3, 2, rng);
    lin.set_mode(ComputeMode::kFloat);
    const Tensor x = Tensor::randn(Shape{2, 3}, rng);
    const Tensor y = lin.forward(x, ctx);
    Tensor ref = gemm_oracle::matmul_nt(x, lin.weight.value);
    for (std::int64_t i = 0; i < 2; ++i)
        for (std::int64_t j = 0; j < 2; ++j) ref[i * 2 + j] += lin.bias.value[j];
    for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], ref[i], 1e-5f);
}

// ------------------------------------------------------ workspace reuse --

/// Outputs of one quantized forward + backward pass of an approx layer.
struct PassOut {
    Tensor y, gx, gw, gb;
};

template <class Layer>
PassOut run_pass(Layer& layer, const Tensor& x, const Tensor& gy,
                 nn::Context& ctx) {
    PassOut out;
    out.y = layer.forward(x, ctx);
    layer.zero_grad();
    out.gx = layer.backward(gy, ctx);
    out.gw = layer.weight.grad;
    out.gb = layer.bias.grad;
    return out;
}

::testing::AssertionResult same_bits(const PassOut& a, const PassOut& b) {
    const std::pair<const Tensor*, const Tensor*> pairs[] = {
        {&a.y, &b.y}, {&a.gx, &b.gx}, {&a.gw, &b.gw}, {&a.gb, &b.gb}};
    const char* names[] = {"y", "gx", "gw", "gb"};
    for (int i = 0; i < 4; ++i) {
        const Tensor& u = *pairs[i].first;
        const Tensor& v = *pairs[i].second;
        if (u.shape() != v.shape() ||
            std::memcmp(u.data(), v.data(),
                        static_cast<std::size_t>(u.numel()) * sizeof(float)) != 0)
            return ::testing::AssertionFailure() << names[i] << " differs";
    }
    return ::testing::AssertionSuccess();
}

TEST(ApproxLayers, DirtyArenaGivesTheSameBitsAsAFreshContext) {
    // Workspace slabs are not zero-filled, so a layer's arena still holds
    // what an earlier, larger pass wrote. No pass may read that: through
    // the dirty arena it must match a fresh Context bit for bit. Eval mode
    // freezes the observers after the first forward, so both passes
    // quantize under the same parameters.
    util::Rng rng(31);
    const MultiplierConfig config =
        approx_config("mul8u_rm8", core::GradientMode::kDifference, 4);
    ApproxConv2d conv(3, 6, 3, 1, 1, rng);
    ApproxLinear lin(20, 7, rng);
    conv.set_multiplier(config);
    lin.set_multiplier(config);
    conv.set_mode(ComputeMode::kQuantized);
    lin.set_mode(ComputeMode::kQuantized);
    conv.set_training(false);
    lin.set_training(false);

    nn::Context dirty;
    run_pass(conv, Tensor::randn(Shape{4, 3, 9, 9}, rng, 3.0f),
             Tensor::randn(Shape{4, 6, 9, 9}, rng), dirty);
    run_pass(lin, Tensor::randn(Shape{16, 20}, rng, 3.0f),
             Tensor::randn(Shape{16, 7}, rng), dirty);

    const Tensor xc = Tensor::randn(Shape{2, 3, 7, 7}, rng);
    const Tensor gyc = Tensor::randn(Shape{2, 6, 7, 7}, rng);
    const Tensor xl = Tensor::randn(Shape{5, 20}, rng);
    const Tensor gyl = Tensor::randn(Shape{5, 7}, rng);
    const PassOut conv_dirty = run_pass(conv, xc, gyc, dirty);
    const PassOut lin_dirty = run_pass(lin, xl, gyl, dirty);
    nn::Context fresh;
    EXPECT_TRUE(same_bits(conv_dirty, run_pass(conv, xc, gyc, fresh)));
    EXPECT_TRUE(same_bits(lin_dirty, run_pass(lin, xl, gyl, fresh)));
}

::testing::AssertionResult same_bits(const Tensor& a, const Tensor& b) {
    if (a.numel() != b.numel() ||
        std::memcmp(a.data(), b.data(),
                    static_cast<std::size_t>(a.numel()) * sizeof(float)) != 0)
        return ::testing::AssertionFailure() << "bits differ";
    return ::testing::AssertionSuccess();
}

TEST(ApproxLayers, LinearIsTheOneByOneConvOfItsMatrix) {
    // ApproxLinear(in, out) on (N, in) is ApproxConv2d(in, out, 1, 1, 0) on
    // the (N, in, 1, 1) view: with the same weights, multiplier and observer
    // range, y, gx, gw and gb match bit for bit over two steps, at every
    // dispatch level. Batch 5 is one narrow block, 19 a 16-row block and a
    // tail, and 32 on the 4-bit exact multiplier takes the nibble leaf.
    using kernels::simd::Isa;
    const std::pair<MultiplierConfig, std::int64_t> cases[] = {
        {approx_config("mul8u_rm8", core::GradientMode::kDifference, 8), 5},
        {approx_config("mul8u_rm8", core::GradientMode::kDifference, 8), 19},
        {MultiplierConfig::exact_ste(4), 32},
    };
    for (const Isa isa : {Isa::kScalar, Isa::kSsse3, Isa::kAvx2, Isa::kAvx512}) {
        if (!kernels::simd::supported(isa)) continue;
        SCOPED_TRACE(kernels::simd::isa_name(isa));
        kernels::simd::set_isa_for_test(isa);
        for (const auto& [config, batch] : cases) {
            SCOPED_TRACE(batch);
            util::Rng rng(43);
            ApproxLinear lin(37, 21, rng);
            ApproxConv2d conv(37, 21, 1, 1, 0, rng);
            std::copy_n(lin.weight.value.data(), lin.weight.value.numel(),
                        conv.weight.value.data());
            lin.bias.value.fill(0.25f);
            conv.bias.value.fill(0.25f);
            lin.set_multiplier(config);
            conv.set_multiplier(config);
            lin.set_mode(ComputeMode::kQuantized);
            conv.set_mode(ComputeMode::kQuantized);
            nn::Context lctx, cctx;
            for (int step = 0; step < 2; ++step) {
                const Tensor x = Tensor::randn(Shape{batch, 37}, rng, 2.0f);
                Tensor gy = Tensor::randn(Shape{batch, 21}, rng);
                for (std::int64_t i = 0; i < gy.numel(); i += 3) gy[i] = 0.0f;
                const Tensor y_lin = lin.forward(x, lctx);
                const Tensor y_conv =
                    conv.forward(x.reshaped(Shape{batch, 37, 1, 1}), cctx);
                const Tensor gx_lin = lin.backward(gy, lctx);
                const Tensor gx_conv =
                    conv.backward(gy.reshaped(Shape{batch, 21, 1, 1}), cctx);
                EXPECT_TRUE(same_bits(y_lin, y_conv)) << "y, step " << step;
                EXPECT_TRUE(same_bits(gx_lin, gx_conv)) << "gx, step " << step;
                EXPECT_TRUE(same_bits(lin.weight.grad, conv.weight.grad))
                    << "gw, step " << step;
                EXPECT_TRUE(same_bits(lin.bias.grad, conv.bias.grad))
                    << "gb, step " << step;
            }
        }
        kernels::simd::clear_isa_override();
    }
}

TEST(ConfigureHelpers, ReachEveryApproxLayerKind) {
    // One model holding each approximate layer kind: every helper must
    // reach all three, and each layer's observer must round-trip through
    // its checkpoint state.
    util::Rng rng(44);
    nn::Sequential model;
    auto* conv = model.emplace<ApproxConv2d>(3, 4, 3, 1, 1, rng);
    auto* dw = model.emplace<approx::DepthwiseConv2d>(4, 3, 1, 1, rng);
    model.emplace<nn::Flatten>();
    auto* lin = model.emplace<ApproxLinear>(4 * 6 * 6, 5, rng);
    const std::vector<approx::ApproxLayer*> layers = {conv, dw, lin};

    EXPECT_EQ(approx::count_approx_layers(model), 3u);

    approx::configure_approx_layers(model, MultiplierConfig::exact_ste(7),
                                    ComputeMode::kQuantized);
    for (const approx::ApproxLayer* layer : layers) {
        EXPECT_TRUE(layer->multiplier().valid()) << layer->name();
        EXPECT_EQ(layer->multiplier().bits(), 7u) << layer->name();
        EXPECT_EQ(layer->mode(), ComputeMode::kQuantized) << layer->name();
    }

    const auto grad = std::make_shared<core::GradLut>(core::build_ste_grad(7));
    const auto lut = conv->multiplier().lut;
    approx::set_gradient_luts(model, grad);
    for (const approx::ApproxLayer* layer : layers) {
        EXPECT_EQ(layer->multiplier().grad, grad) << layer->name();
        EXPECT_EQ(layer->multiplier().lut, lut) << layer->name();
    }

    approx::MultiplierAssignment assignment(approx::LayerChoice{"mul8u_rm8"});
    assignment.set_layer(1, approx::LayerChoice{"mul8u_acc"});
    assignment.set_layer(2, approx::LayerChoice{"mul8u_2NDH"});
    EXPECT_EQ(approx::apply_assignment(model, assignment, ComputeMode::kFloat), 3u);
    const char* names[] = {"mul8u_rm8", "mul8u_acc", "mul8u_2NDH"};
    for (std::size_t i = 0; i < layers.size(); ++i) {
        EXPECT_EQ(layers[i]->multiplier().name, names[i]) << layers[i]->name();
        EXPECT_EQ(layers[i]->mode(), ComputeMode::kFloat) << layers[i]->name();
    }

    // One input position per output location: 36 convs of 27 taps into 4
    // channels, 36 x 9 taps per channel, and one 144-wide row into 5.
    const accel::NetworkWorkload work = accel::analyze_workload(model, 3, 6);
    ASSERT_EQ(work.layers.size(), 3u);
    EXPECT_EQ(work.layers[0].name, "ApproxConv2d");
    EXPECT_EQ(work.layers[0].macs, 36 * 27 * 4);
    EXPECT_EQ(work.layers[1].name, "DepthwiseConv2d");
    EXPECT_EQ(work.layers[1].macs, 36 * 9 * 4);
    EXPECT_EQ(work.layers[2].name, "ApproxLinear");
    EXPECT_EQ(work.layers[2].macs, 144 * 5);
    EXPECT_EQ(work.total_macs, 36 * 27 * 4 + 36 * 9 * 4 + 144 * 5);
    for (const approx::ApproxLayer* layer : layers)
        EXPECT_EQ(layer->mode(), ComputeMode::kFloat) << layer->name();

    // A quantized training step moves every observer; each layer's state
    // must load into a fresh layer of its kind and save back unchanged.
    approx::configure_approx_layers(model, MultiplierConfig::exact_ste(8),
                                    ComputeMode::kQuantized);
    nn::Context ctx;
    model.forward(Tensor::randn(Shape{2, 3, 6, 6}, rng, 2.0f), ctx);
    ApproxConv2d conv2(3, 4, 3, 1, 1, rng);
    approx::DepthwiseConv2d dw2(4, 3, 1, 1, rng);
    ApproxLinear lin2(4 * 6 * 6, 5, rng);
    const std::vector<approx::ApproxLayer*> fresh = {&conv2, &dw2, &lin2};
    for (std::size_t i = 0; i < layers.size(); ++i) {
        std::vector<float> saved;
        layers[i]->save_extra_state(saved);
        ASSERT_EQ(saved.size(), 3u) << layers[i]->name();
        EXPECT_EQ(saved[2], 1.0f) << layers[i]->name();
        const float* cursor = saved.data();
        fresh[i]->load_extra_state(cursor);
        EXPECT_EQ(cursor, saved.data() + saved.size()) << layers[i]->name();
        std::vector<float> again;
        fresh[i]->save_extra_state(again);
        EXPECT_EQ(again, saved) << layers[i]->name();
    }
}

TEST(ConfigureHelpers, ReachEveryApproxLayerInAModel) {
    models::ModelConfig mc;
    mc.in_size = 8;
    mc.width_mult = 0.125f;
    auto model = models::make_resnet(18, mc);

    int count_before = 0;
    model->visit([&](nn::Module& m) {
        if (auto* conv = dynamic_cast<ApproxConv2d*>(&m)) {
            EXPECT_FALSE(conv->multiplier().valid());
            ++count_before;
        }
    });
    EXPECT_GT(count_before, 10);

    approx::configure_approx_layers(*model, MultiplierConfig::exact_ste(7),
                                    ComputeMode::kQuantized);
    model->visit([&](nn::Module& m) {
        if (auto* conv = dynamic_cast<ApproxConv2d*>(&m)) {
            EXPECT_TRUE(conv->multiplier().valid());
            EXPECT_EQ(conv->mode(), ComputeMode::kQuantized);
        }
    });
}

TEST(MultiplierConfig, ValidityChecks) {
    MultiplierConfig empty;
    EXPECT_FALSE(empty.valid());
    const MultiplierConfig ok = MultiplierConfig::exact_ste(8);
    EXPECT_TRUE(ok.valid());
    EXPECT_EQ(ok.bits(), 8u);
    MultiplierConfig mismatched = ok;
    mismatched.grad = std::make_shared<core::GradLut>(core::build_ste_grad(7));
    EXPECT_FALSE(mismatched.valid());
}

} // namespace

namespace {

TEST(PerChannel, ExactPathEqualsPerChannelFakeQuantReference) {
    // Per-channel weight quantization with the exact LUT must equal a float
    // conv over per-channel fake-quantized weights.
    util::Rng rng(31);
    nn::Context ctx;
    ApproxConv2d conv(3, 5, 3, 1, 1, rng);
    // Spread the filter magnitudes so per-channel actually differs from
    // per-tensor.
    for (std::int64_t o = 0; o < 5; ++o) {
        const float gain = 0.2f + 0.6f * static_cast<float>(o);
        for (std::int64_t k = 0; k < 27; ++k) conv.weight.value[o * 27 + k] *= gain;
    }
    conv.set_multiplier(MultiplierConfig::exact_ste(8));
    conv.set_mode(ComputeMode::kQuantized);
    conv.set_per_channel_weights(true);

    const Tensor x = Tensor::randn(Shape{2, 3, 5, 5}, rng);
    const Tensor y = conv.forward(x, ctx);

    // Reference: fake-quantize each filter independently, then float conv.
    Tensor fqw = conv.weight.value;
    for (std::int64_t o = 0; o < 5; ++o) {
        float lo = fqw[o * 27], hi = fqw[o * 27];
        for (std::int64_t k = 1; k < 27; ++k) {
            lo = std::min(lo, fqw[o * 27 + k]);
            hi = std::max(hi, fqw[o * 27 + k]);
        }
        const auto params = quant::choose_params(lo, hi, 8);
        for (std::int64_t k = 0; k < 27; ++k)
            fqw[o * 27 + k] = params.dequantize(params.quantize(fqw[o * 27 + k]));
    }
    const auto xp = quant::choose_params(x.min(), x.max(), 8);
    const Tensor fqx = quant::fake_quantize(x, xp);
    tensor::ConvGeom geom{2, 3, 5, 5, 3, 1, 1};
    const Tensor cols = kernels::im2col(fqx, geom);
    Tensor po = gemm_oracle::matmul_nt(cols, fqw.reshaped(Shape{5, 27}));
    for (std::int64_t p = 0; p < po.dim(0); ++p)
        for (std::int64_t o = 0; o < 5; ++o) po[p * 5 + o] += conv.bias.value[o];

    for (std::int64_t n = 0; n < 2; ++n)
        for (std::int64_t o = 0; o < 5; ++o)
            for (std::int64_t s = 0; s < 25; ++s)
                ASSERT_NEAR(y[(n * 5 + o) * 25 + s], po[(n * 25 + s) * 5 + o], 3e-3f);
}

TEST(PerChannel, ImprovesQuantizationOfSpreadFilters) {
    // When filter magnitudes differ wildly, per-channel quantization must
    // represent the small filters far better than per-tensor.
    util::Rng rng(32);
    nn::Context ctx;
    ApproxConv2d per_tensor(2, 4, 3, 1, 1, rng);
    for (std::int64_t k = 0; k < 18; ++k) {
        per_tensor.weight.value[0 * 18 + k] *= 0.02f; // tiny filter
        per_tensor.weight.value[3 * 18 + k] *= 5.0f;  // huge filter
    }
    ApproxConv2d per_channel(2, 4, 3, 1, 1, rng);
    per_channel.weight.value = per_tensor.weight.value;
    per_channel.bias.value = per_tensor.bias.value;

    per_tensor.set_multiplier(MultiplierConfig::exact_ste(8));
    per_tensor.set_mode(ComputeMode::kQuantized);
    per_channel.set_multiplier(MultiplierConfig::exact_ste(8));
    per_channel.set_mode(ComputeMode::kQuantized);
    per_channel.set_per_channel_weights(true);

    // Float reference output.
    ApproxConv2d ref(2, 4, 3, 1, 1, rng);
    ref.weight.value = per_tensor.weight.value;
    ref.bias.value = per_tensor.bias.value;
    ref.set_mode(ComputeMode::kFloat);

    const Tensor x = Tensor::randn(Shape{1, 2, 6, 6}, rng);
    const Tensor y_ref = ref.forward(x, ctx);
    const Tensor y_pt = per_tensor.forward(x, ctx);
    const Tensor y_pc = per_channel.forward(x, ctx);

    // Compare error on the tiny filter's output channel (channel 0).
    double err_pt = 0.0, err_pc = 0.0;
    for (std::int64_t s = 0; s < 36; ++s) {
        err_pt += std::abs(static_cast<double>(y_pt[s]) - y_ref[s]);
        err_pc += std::abs(static_cast<double>(y_pc[s]) - y_ref[s]);
    }
    EXPECT_LT(err_pc, 0.5 * err_pt);
}

TEST(PerChannel, BackwardStaysConsistentWithFakeQuantReference) {
    util::Rng rng(33);
    nn::Context ctx;
    ApproxConv2d conv(2, 3, 3, 1, 1, rng);
    for (std::int64_t k = 0; k < 18; ++k) conv.weight.value[k] *= 0.1f;
    conv.set_multiplier(MultiplierConfig::exact_ste(8));
    conv.set_mode(ComputeMode::kQuantized);
    conv.set_per_channel_weights(true);

    const Tensor x = Tensor::randn(Shape{1, 2, 5, 5}, rng);
    const Tensor y = conv.forward(x, ctx);
    Tensor gy = Tensor::randn(y.shape(), rng);
    conv.zero_grad();
    const Tensor gx = conv.backward(gy, ctx);

    // The input gradient with the exact multiplier + STE equals the float
    // backward through the per-channel fake-quantized weights.
    Tensor fqw = conv.weight.value;
    for (std::int64_t o = 0; o < 3; ++o) {
        float lo = fqw[o * 18], hi = fqw[o * 18];
        for (std::int64_t k = 1; k < 18; ++k) {
            lo = std::min(lo, fqw[o * 18 + k]);
            hi = std::max(hi, fqw[o * 18 + k]);
        }
        const auto params = quant::choose_params(lo, hi, 8);
        for (std::int64_t k = 0; k < 18; ++k)
            fqw[o * 18 + k] = params.dequantize(params.quantize(fqw[o * 18 + k]));
    }
    tensor::ConvGeom geom{1, 2, 5, 5, 3, 1, 1};
    Tensor gyp(Shape{25, 3});
    for (std::int64_t o = 0; o < 3; ++o)
        for (std::int64_t s = 0; s < 25; ++s) gyp[s * 3 + o] = gy[o * 25 + s];
    const Tensor ref_gx =
        kernels::col2im(gemm_oracle::matmul(gyp, fqw.reshaped(Shape{3, 18})), geom);
    for (std::int64_t i = 0; i < gx.numel(); ++i)
        ASSERT_NEAR(gx[i], ref_gx[i], 2e-3f) << i;
}

} // namespace
