// Tests for the depthwise convolution layer and the MobileNet builder. The
// order-faithful oracle below is the im2col algorithm the layer ran before
// the direct padded-plane kernel (kernels/depthwise.hpp); the layer must
// reproduce it bit for bit.
#include "approx/depthwise.hpp"
#include "appmult/registry.hpp"
#include "models/models.hpp"
#include "train/trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

namespace {

using namespace amret;
using approx::ComputeMode;
using approx::DepthwiseConv2d;
using approx::MultiplierConfig;
using tensor::Shape;
using tensor::Tensor;

double dot(const Tensor& a, const Tensor& b) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < a.numel(); ++i)
        acc += static_cast<double>(a[i]) * b[i];
    return acc;
}

/// Direct per-channel convolution reference.
Tensor naive_depthwise(const Tensor& x, const Tensor& w, const Tensor& b,
                       std::int64_t kernel, std::int64_t stride, std::int64_t pad) {
    const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), wd = x.dim(3);
    const std::int64_t oh = (h + 2 * pad - kernel) / stride + 1;
    const std::int64_t ow = (wd + 2 * pad - kernel) / stride + 1;
    Tensor y(Shape{n, c, oh, ow});
    for (std::int64_t ni = 0; ni < n; ++ni)
        for (std::int64_t ci = 0; ci < c; ++ci)
            for (std::int64_t oy = 0; oy < oh; ++oy)
                for (std::int64_t ox = 0; ox < ow; ++ox) {
                    float acc = b[ci];
                    for (std::int64_t ky = 0; ky < kernel; ++ky)
                        for (std::int64_t kx = 0; kx < kernel; ++kx) {
                            const std::int64_t iy = oy * stride + ky - pad;
                            const std::int64_t ix = ox * stride + kx - pad;
                            if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
                            acc += x[((ni * c + ci) * h + iy) * wd + ix] *
                                   w[(ci * kernel + ky) * kernel + kx];
                        }
                    y[((ni * c + ci) * oh + oy) * ow + ox] = acc;
                }
    return y;
}

TEST(Depthwise, FloatForwardMatchesNaive) {
    util::Rng rng(51);
    nn::Context ctx;
    DepthwiseConv2d dw(3, 3, 1, 1, rng);
    const Tensor x = Tensor::randn(Shape{2, 3, 5, 5}, rng);
    const Tensor y = dw.forward(x, ctx);
    const Tensor ref = naive_depthwise(x, dw.weight.value, dw.bias.value, 3, 1, 1);
    ASSERT_EQ(y.shape(), ref.shape());
    for (std::int64_t i = 0; i < y.numel(); ++i) ASSERT_NEAR(y[i], ref[i], 1e-4f);
}

TEST(Depthwise, StrideTwoShapes) {
    util::Rng rng(52);
    nn::Context ctx;
    DepthwiseConv2d dw(4, 3, 2, 1, rng);
    const Tensor x = Tensor::randn(Shape{1, 4, 8, 8}, rng);
    const Tensor y = dw.forward(x, ctx);
    EXPECT_EQ(y.shape(), (Shape{1, 4, 4, 4}));
    const Tensor ref = naive_depthwise(x, dw.weight.value, dw.bias.value, 3, 2, 1);
    for (std::int64_t i = 0; i < y.numel(); ++i) ASSERT_NEAR(y[i], ref[i], 1e-4f);
}

TEST(Depthwise, FloatGradCheck) {
    util::Rng rng(53);
    nn::Context ctx;
    DepthwiseConv2d dw(2, 3, 1, 1, rng);
    Tensor x = Tensor::randn(Shape{1, 2, 4, 4}, rng);
    Tensor y = dw.forward(x, ctx);
    const Tensor proj = Tensor::randn(y.shape(), rng);
    dw.zero_grad();
    dw.forward(x, ctx);
    const Tensor gx = dw.backward(proj, ctx);

    const float eps = 1e-2f;
    for (std::int64_t idx : {0, 7, 15, 31}) {
        Tensor xp = x, xm = x;
        xp[idx] += eps;
        xm[idx] -= eps;
        const double numeric =
            (dot(dw.forward(xp, ctx), proj) - dot(dw.forward(xm, ctx), proj)) / (2.0 * eps);
        EXPECT_NEAR(gx[idx], numeric, 2e-2) << idx;
    }
    // Weight gradient probe.
    dw.zero_grad();
    dw.forward(x, ctx);
    dw.backward(proj, ctx);
    for (std::int64_t idx : {0, 5, 11}) {
        const float keep = dw.weight.value[idx];
        dw.weight.value[idx] = keep + eps;
        const double fp = dot(dw.forward(x, ctx), proj);
        dw.weight.value[idx] = keep - eps;
        const double fm = dot(dw.forward(x, ctx), proj);
        dw.weight.value[idx] = keep;
        EXPECT_NEAR(dw.weight.grad[idx], (fp - fm) / (2.0 * eps), 2e-2) << idx;
    }
}

TEST(Depthwise, QuantExactMatchesFakeQuantReference) {
    util::Rng rng(54);
    nn::Context ctx;
    DepthwiseConv2d dw(3, 3, 1, 1, rng);
    dw.set_multiplier(MultiplierConfig::exact_ste(8));
    dw.set_mode(ComputeMode::kQuantized);
    const Tensor x = Tensor::randn(Shape{2, 3, 5, 5}, rng);
    const Tensor y = dw.forward(x, ctx);

    const auto wp = quant::choose_params(dw.weight.value.min(),
                                         dw.weight.value.max(), 8);
    const auto xp = quant::choose_params(x.min(), x.max(), 8);
    const Tensor fqw = quant::fake_quantize(dw.weight.value, wp);
    const Tensor fqx = quant::fake_quantize(x, xp);
    const Tensor ref = naive_depthwise(fqx, fqw, dw.bias.value, 3, 1, 1);
    for (std::int64_t i = 0; i < y.numel(); ++i) ASSERT_NEAR(y[i], ref[i], 2e-3f);
}

TEST(Depthwise, ApproximateLutChangesOutput) {
    util::Rng rng(55);
    nn::Context ctx;
    DepthwiseConv2d dw(2, 3, 1, 1, rng);
    const Tensor x = Tensor::randn(Shape{1, 2, 6, 6}, rng);
    dw.set_multiplier(MultiplierConfig::exact_ste(7));
    dw.set_mode(ComputeMode::kQuantized);
    const Tensor y_exact = dw.forward(x, ctx);

    auto& reg = appmult::Registry::instance();
    MultiplierConfig config;
    config.lut = std::make_shared<appmult::AppMultLut>(reg.lut("mul7u_rm6"));
    config.grad = std::make_shared<core::GradLut>(core::build_ste_grad(7));
    dw.set_multiplier(config);
    const Tensor y_approx = dw.forward(x, ctx);
    double diff = 0.0;
    for (std::int64_t i = 0; i < y_exact.numel(); ++i)
        diff += std::abs(static_cast<double>(y_exact[i]) - y_approx[i]);
    EXPECT_GT(diff, 1e-3);
}

// ------------------------------------------------------------ oracle --

/// The depthwise algorithm as it ran through im2col: explicit per-channel
/// columns (zero padding), every tap quantized on its own, an O = 1 LUT sum
/// per position with the Eq. (8) epilogue, then the fused backward writing
/// gw, gb and a column gradient that col2im folds back. Each step observes
/// its input like the layer in training mode, and gradients accumulate.
struct DepthwiseOracle {
    DepthwiseOracle(std::int64_t channels_, std::int64_t kernel_, std::int64_t stride_,
                    std::int64_t pad_, const MultiplierConfig* mult_)
        : channels(channels_), kernel(kernel_), stride(stride_), pad(pad_),
          quantized(mult_ != nullptr), mult(mult_) {}

    std::int64_t channels, kernel, stride, pad;
    bool quantized;
    const MultiplierConfig* mult;
    quant::EmaObserver observer;

    // Per-step state of the last forward.
    tensor::ConvGeom geom;
    std::vector<float> cols;
    std::vector<std::uint16_t> wcodes, xcodes;
    std::vector<std::uint8_t> wok, xok;
    quant::QuantParams wp, xp;

    [[nodiscard]] std::int64_t taps() const { return kernel * kernel; }

    Tensor forward(const Tensor& x, const Tensor& w, const Tensor& b) {
        geom = tensor::ConvGeom{x.dim(0), 1, x.dim(2), x.dim(3), kernel, stride, pad};
        const std::int64_t positions = geom.positions(), patch = taps();
        const std::int64_t oh = geom.out_h(), ow = geom.out_w(), spatial = oh * ow;
        cols.assign(static_cast<std::size_t>(channels * positions * patch), 0.0f);
        for (std::int64_t c = 0; c < channels; ++c)
            for (std::int64_t p = 0; p < positions; ++p) {
                const std::int64_t n = p / spatial, s = p % spatial;
                const std::int64_t oy = s / ow, ox = s % ow;
                for (std::int64_t ky = 0; ky < kernel; ++ky)
                    for (std::int64_t kx = 0; kx < kernel; ++kx) {
                        const std::int64_t iy = oy * stride + ky - pad;
                        const std::int64_t ix = ox * stride + kx - pad;
                        if (iy < 0 || iy >= geom.in_h || ix < 0 || ix >= geom.in_w)
                            continue;
                        cols[static_cast<std::size_t>((c * positions + p) * patch +
                                                      ky * kernel + kx)] =
                            x[((n * channels + c) * geom.in_h + iy) * geom.in_w + ix];
                    }
            }

        Tensor y(Shape{geom.batch, channels, oh, ow});
        if (!quantized) {
            for (std::int64_t c = 0; c < channels; ++c)
                for (std::int64_t p = 0; p < positions; ++p) {
                    float acc = b[c];
                    for (std::int64_t k = 0; k < patch; ++k)
                        acc += w[c * patch + k] *
                               cols[static_cast<std::size_t>((c * positions + p) * patch + k)];
                    y[((p / spatial) * channels + c) * spatial + p % spatial] = acc;
                }
            return y;
        }

        const unsigned bits = mult->bits();
        wp = quant::choose_params(w.min(), w.max(), bits);
        observer.observe(x);
        xp = observer.params(bits);
        const auto quantize = [](const quant::QuantParams& qp, const float* v,
                                 std::size_t n, std::vector<std::uint16_t>& codes,
                                 std::vector<std::uint8_t>& ok) {
            codes.resize(n);
            ok.resize(n);
            for (std::size_t i = 0; i < n; ++i) {
                codes[i] = static_cast<std::uint16_t>(qp.quantize(v[i]));
                ok[i] = qp.in_range(v[i]) ? 1 : 0;
            }
        };
        quantize(wp, w.data(), static_cast<std::size_t>(w.numel()), wcodes, wok);
        quantize(xp, cols.data(), cols.size(), xcodes, xok);
        const std::int32_t* lut = mult->lut->table().data();
        const auto zw = static_cast<std::int64_t>(wp.zero_point);
        const auto zx = static_cast<std::int64_t>(xp.zero_point);
        for (std::int64_t c = 0; c < channels; ++c) {
            std::int64_t sum_w = 0;
            for (std::int64_t k = 0; k < patch; ++k) sum_w += wcodes[c * patch + k];
            for (std::int64_t p = 0; p < positions; ++p) {
                const std::uint16_t* xrow = xcodes.data() + (c * positions + p) * patch;
                std::int64_t acc = 0, sum_x = 0;
                for (std::int64_t k = 0; k < patch; ++k) {
                    acc += lut[(static_cast<std::uint32_t>(wcodes[c * patch + k]) << bits) |
                               xrow[k]];
                    sum_x += xrow[k];
                }
                const std::int64_t corrected =
                    acc - zx * sum_w - zw * sum_x + patch * zw * zx;
                const float ss = wp.scale * xp.scale;
                y[((p / spatial) * channels + c) * spatial + p % spatial] =
                    ss * static_cast<float>(corrected) + b[c];
            }
        }
        return y;
    }

    Tensor backward(const Tensor& gy, const Tensor& w, Tensor& gw, Tensor& gb) const {
        const std::int64_t positions = geom.positions(), patch = taps();
        const std::int64_t oh = geom.out_h(), ow = geom.out_w(), spatial = oh * ow;
        std::vector<float> dcols(cols.size());
        const unsigned bits = quantized ? mult->bits() : 0;
        for (std::int64_t c = 0; c < channels; ++c)
            for (std::int64_t p = 0; p < positions; ++p) {
                const float g = gy[((p / spatial) * channels + c) * spatial + p % spatial];
                gb[c] += g;
                for (std::int64_t k = 0; k < patch; ++k) {
                    const auto at = static_cast<std::size_t>((c * positions + p) * patch + k);
                    if (!quantized) {
                        gw[c * patch + k] += g * cols[at];
                        dcols[at] = g * w[c * patch + k];
                        continue;
                    }
                    const std::uint32_t idx =
                        (static_cast<std::uint32_t>(wcodes[c * patch + k]) << bits) |
                        xcodes[at];
                    if (wok[c * patch + k])
                        gw[c * patch + k] +=
                            g * xp.scale * (mult->grad->dw_table()[idx] - xp.zero_point);
                    dcols[at] = xok[at] ? g * wp.scale *
                                              (mult->grad->dx_table()[idx] - wp.zero_point)
                                        : 0.0f;
                }
            }
        // col2im: per channel and image, taps fold in ascending position order.
        Tensor gx(Shape{geom.batch, channels, geom.in_h, geom.in_w});
        for (std::int64_t c = 0; c < channels; ++c)
            for (std::int64_t p = 0; p < positions; ++p) {
                const std::int64_t n = p / spatial, s = p % spatial;
                const std::int64_t oy = s / ow, ox = s % ow;
                for (std::int64_t ky = 0; ky < kernel; ++ky)
                    for (std::int64_t kx = 0; kx < kernel; ++kx) {
                        const std::int64_t iy = oy * stride + ky - pad;
                        const std::int64_t ix = ox * stride + kx - pad;
                        if (iy < 0 || iy >= geom.in_h || ix < 0 || ix >= geom.in_w)
                            continue;
                        gx[((n * channels + c) * geom.in_h + iy) * geom.in_w + ix] +=
                            dcols[static_cast<std::size_t>((c * positions + p) * patch +
                                                           ky * kernel + kx)];
                    }
            }
        return gx;
    }
};

bool same_bits(const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Product LUT of a registry multiplier with random gradient tables, so a
/// wrong table, row or operand order changes bits.
MultiplierConfig random_grad_config(const std::string& name, util::Rng& rng) {
    auto& reg = appmult::Registry::instance();
    MultiplierConfig config;
    config.lut = std::make_shared<appmult::AppMultLut>(reg.lut(name));
    const unsigned bits = config.lut->bits();
    std::vector<float> dw(std::size_t{1} << (2 * bits)), dx(dw.size());
    for (auto& v : dw) v = static_cast<float>(rng.uniform() * 300.0 - 2.0);
    for (auto& v : dx) v = static_cast<float>(rng.uniform() * 300.0 - 2.0);
    config.grad = std::make_shared<core::GradLut>(bits, std::move(dw), std::move(dx));
    return config;
}

/// Upstream gradient with exact zeros and -0.0 mixed into randn.
Tensor zero_mixed_grad(const Shape& shape, util::Rng& rng) {
    Tensor g = Tensor::randn(shape, rng);
    for (std::int64_t i = 0; i < g.numel(); ++i) {
        if (i % 3 == 0)
            g[i] = 0.0f;
        else if (i % 5 == 0)
            g[i] = -0.0f;
    }
    return g;
}

TEST(DepthwiseOracle, KernelMatchesIm2colAlgorithmBitwise) {
    const char* mults[] = {"mul6u_rm4", "mul7u_rm6", "mul8u_rm8"};
    util::Rng rng(61);
    int cases = 0;
    for (const std::int64_t kernel : {1, 3, 5})
        for (const std::int64_t stride : {1, 2})
            for (const std::int64_t pad : {0, 1, 2})
                for (int mode = 0; mode < 4; ++mode) {
                    const bool quantized = mode < 3;
                    // Odd H != W: 9x5, 11x7, 13x9.
                    const std::int64_t channels = 3, h = 8 + kernel, w = 4 + kernel;
                    util::Rng wrng(static_cast<std::uint64_t>(100 + cases));
                    DepthwiseConv2d layer(channels, kernel, stride, pad, wrng);
                    MultiplierConfig config;
                    if (quantized) {
                        config = random_grad_config(mults[mode], rng);
                        layer.set_multiplier(config);
                        layer.set_mode(ComputeMode::kQuantized);
                    }
                    DepthwiseOracle oracle(channels, kernel, stride, pad,
                                           quantized ? &config : nullptr);
                    Tensor gw = Tensor::zeros(layer.weight.value.shape());
                    Tensor gb = Tensor::zeros(layer.bias.value.shape());
                    nn::Context ctx;
                    const std::string where =
                        "kernel " + std::to_string(kernel) + " stride " +
                        std::to_string(stride) + " pad " + std::to_string(pad) +
                        (quantized ? std::string(" ") + mults[mode] : " float");
                    for (int step = 0; step < 2; ++step) {
                        const Tensor x = Tensor::randn(Shape{2, channels, h, w}, rng);
                        const Tensor y = layer.forward(x, ctx);
                        const Tensor ry =
                            oracle.forward(x, layer.weight.value, layer.bias.value);
                        ASSERT_TRUE(same_bits(y, ry)) << where << " step " << step;
                        const Tensor gy = zero_mixed_grad(y.shape(), rng);
                        const Tensor gx = layer.backward(gy, ctx);
                        const Tensor rgx = oracle.backward(gy, layer.weight.value, gw, gb);
                        ASSERT_TRUE(same_bits(gx, rgx)) << where << " step " << step;
                        ASSERT_TRUE(same_bits(layer.weight.grad, gw)) << where;
                        ASSERT_TRUE(same_bits(layer.bias.grad, gb)) << where;
                    }
                    ++cases;
                }
    EXPECT_EQ(cases, 3 * 2 * 3 * 4);
}

TEST(Mobilenet, ForwardBackwardShapes) {
    models::ModelConfig mc;
    mc.in_size = 8;
    mc.num_classes = 5;
    mc.width_mult = 0.125f;
    auto net = models::make_mobilenet(mc);
    util::Rng rng(56);
    nn::Context ctx;
    const Tensor x = Tensor::randn(Shape{2, 3, 8, 8}, rng);
    const Tensor y = net->forward(x, ctx);
    EXPECT_EQ(y.shape(), (Shape{2, 5}));
    net->zero_grad();
    const Tensor gx = net->backward(Tensor::randn(y.shape(), rng), ctx);
    EXPECT_EQ(gx.shape(), x.shape());
}

TEST(Mobilenet, QuantizedTrainingReducesLoss) {
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 8;
    dc.train_samples = 96;
    dc.test_samples = 48;
    const auto pair = data::make_synthetic(dc);

    models::ModelConfig mc;
    mc.in_size = 8;
    mc.num_classes = 4;
    mc.width_mult = 0.25f;
    auto net = models::make_mobilenet(mc);
    approx::configure_approx_layers(*net, MultiplierConfig::exact_ste(8),
                                    ComputeMode::kQuantized);
    // configure must reach the depthwise layers too.
    int dw_configured = 0;
    net->visit([&](nn::Module& m) {
        if (auto* dw = dynamic_cast<DepthwiseConv2d*>(&m)) {
            EXPECT_TRUE(dw->multiplier().valid());
            ++dw_configured;
        }
    });
    EXPECT_EQ(dw_configured, 5);

    train::TrainConfig tc;
    tc.epochs = 3;
    tc.batch_size = 16;
    tc.lr = 3e-3;
    train::Trainer trainer(*net, pair.train, pair.test, tc);
    const auto stats = trainer.train_only(3);
    EXPECT_LT(stats.back().loss, stats.front().loss);
}

} // namespace
