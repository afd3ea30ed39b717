/// \file golden_dump.cpp
/// \brief Prints the golden FNV-1a hashes pinned by tests/test_kernels.cpp.
///
/// The kernel-layer golden test asserts that ApproxConv2d / ApproxLinear /
/// DepthwiseConv2d / nn::Linear / IntInferenceEngine outputs are
/// bitwise-identical to the pre-refactor implementations on fixed seeds. This tool regenerates the
/// expected hashes; run it on a known-good build and paste its output into
/// the kGolden table of test_kernels.cpp if a deliberate numerical change is
/// ever made (the determinism contract makes the hashes thread-count
/// independent, so one table covers AMRET_THREADS = 1/2/8).
#include "amret.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace {

using namespace amret;

std::uint64_t fnv1a(const float* data, std::int64_t n) {
    std::uint64_t h = 1469598103934665603ull;
    const auto* bytes = reinterpret_cast<const unsigned char*>(data);
    for (std::int64_t i = 0; i < n * 4; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t hash_tensor(const tensor::Tensor& t) { return fnv1a(t.data(), t.numel()); }

approx::MultiplierConfig make_config(const std::string& name) {
    auto& reg = appmult::Registry::instance();
    approx::MultiplierConfig config;
    config.lut = std::make_shared<appmult::AppMultLut>(reg.lut(name));
    config.grad = std::make_shared<core::GradLut>(
        core::build_difference_grad(reg.lut(name), 8));
    return config;
}

void print(const char* key, std::uint64_t h) {
    std::printf("{\"%s\", 0x%016" PRIx64 "ull},\n", key, h);
}

void dump_conv(const char* tag, const std::string& mult, bool per_channel) {
    util::Rng wrng(101);
    approx::ApproxConv2d conv(3, 8, 3, 1, 1, wrng);
    conv.set_multiplier(make_config(mult));
    conv.set_mode(approx::ComputeMode::kQuantized);
    conv.set_per_channel_weights(per_channel);
    util::Rng xrng(202);
    const tensor::Tensor x = tensor::Tensor::randn(tensor::Shape{2, 3, 8, 8}, xrng);
    nn::Context ctx;
    const tensor::Tensor y = conv.forward(x, ctx);
    util::Rng grng(303);
    const tensor::Tensor gy = tensor::Tensor::randn(y.shape(), grng);
    const tensor::Tensor gx = conv.backward(gy, ctx);
    std::printf("// %s\n", tag);
    print((std::string(tag) + ".y").c_str(), hash_tensor(y));
    print((std::string(tag) + ".gx").c_str(), hash_tensor(gx));
    print((std::string(tag) + ".gw").c_str(), hash_tensor(conv.weight.grad));
    print((std::string(tag) + ".gb").c_str(), hash_tensor(conv.bias.grad));
}

void dump_float_conv() {
    util::Rng wrng(111);
    approx::ApproxConv2d conv(3, 8, 3, 2, 1, wrng);
    conv.set_mode(approx::ComputeMode::kFloat);
    util::Rng xrng(212);
    const tensor::Tensor x = tensor::Tensor::randn(tensor::Shape{2, 3, 9, 9}, xrng);
    nn::Context ctx;
    const tensor::Tensor y = conv.forward(x, ctx);
    util::Rng grng(313);
    const tensor::Tensor gy = tensor::Tensor::randn(y.shape(), grng);
    const tensor::Tensor gx = conv.backward(gy, ctx);
    std::printf("// float conv\n");
    print("fconv.y", hash_tensor(y));
    print("fconv.gx", hash_tensor(gx));
    print("fconv.gw", hash_tensor(conv.weight.grad));
    print("fconv.gb", hash_tensor(conv.bias.grad));
}

void dump_linear() {
    util::Rng wrng(404);
    approx::ApproxLinear linear(24, 10, wrng);
    linear.set_multiplier(make_config("mul8u_2NDH"));
    linear.set_mode(approx::ComputeMode::kQuantized);
    util::Rng xrng(505);
    const tensor::Tensor x = tensor::Tensor::randn(tensor::Shape{5, 24}, xrng);
    nn::Context ctx;
    const tensor::Tensor y = linear.forward(x, ctx);
    util::Rng grng(606);
    const tensor::Tensor gy = tensor::Tensor::randn(y.shape(), grng);
    const tensor::Tensor gx = linear.backward(gy, ctx);
    std::printf("// linear\n");
    print("linear.y", hash_tensor(y));
    print("linear.gx", hash_tensor(gx));
    print("linear.gw", hash_tensor(linear.weight.grad));
    print("linear.gb", hash_tensor(linear.bias.grad));
}

void dump_depthwise() {
    util::Rng wrng(707);
    approx::DepthwiseConv2d dw(6, 3, 1, 1, wrng);
    dw.set_multiplier(make_config("mul6u_rm4"));
    dw.set_mode(approx::ComputeMode::kQuantized);
    util::Rng xrng(808);
    const tensor::Tensor x = tensor::Tensor::randn(tensor::Shape{2, 6, 8, 8}, xrng);
    nn::Context ctx;
    const tensor::Tensor y = dw.forward(x, ctx);
    util::Rng grng(909);
    const tensor::Tensor gy = tensor::Tensor::randn(y.shape(), grng);
    const tensor::Tensor gx = dw.backward(gy, ctx);
    std::printf("// depthwise\n");
    print("dw.y", hash_tensor(y));
    print("dw.gx", hash_tensor(gx));
    print("dw.gw", hash_tensor(dw.weight.grad));
    print("dw.gb", hash_tensor(dw.bias.grad));
}

/// Upstream gradient with exact zeros mixed into randn: every third element
/// is +0.0f and every fifth (of the rest) -0.0f, so a kernel that skips or
/// re-signs g == 0 terms changes bits.
tensor::Tensor zero_mixed_grad(const tensor::Shape& shape, util::Rng& rng) {
    tensor::Tensor g = tensor::Tensor::randn(shape, rng);
    for (std::int64_t i = 0; i < g.numel(); ++i) {
        if (i % 3 == 0)
            g[i] = 0.0f;
        else if (i % 5 == 0)
            g[i] = -0.0f;
    }
    return g;
}

/// Two forward/backward steps through one context on fresh inputs, so the
/// second step's weight and bias gradients accumulate into the first's.
/// Prints the second step's y and gx and the accumulated gw and gb.
template <class Layer>
void dump_two_steps(const std::string& tag, Layer& layer,
                    const tensor::Shape& xshape, std::uint64_t seed) {
    nn::Context ctx;
    util::Rng rng(seed);
    tensor::Tensor y, gx;
    for (int step = 0; step < 2; ++step) {
        const tensor::Tensor x = tensor::Tensor::randn(xshape, rng);
        y = layer.forward(x, ctx);
        gx = layer.backward(zero_mixed_grad(y.shape(), rng), ctx);
    }
    std::printf("// %s (two steps)\n", tag.c_str());
    print((tag + ".y").c_str(), hash_tensor(y));
    print((tag + ".gx").c_str(), hash_tensor(gx));
    print((tag + ".gw").c_str(), hash_tensor(layer.weight.grad));
    print((tag + ".gb").c_str(), hash_tensor(layer.bias.grad));
}

void dump_two_step_layers() {
    {
        util::Rng wrng(717);
        approx::DepthwiseConv2d dw(6, 3, 2, 1, wrng);
        dw.set_multiplier(make_config("mul8u_rm8"));
        dw.set_mode(approx::ComputeMode::kQuantized);
        dump_two_steps("dw_s2", dw, tensor::Shape{2, 6, 9, 7}, 818);
    }
    {
        util::Rng wrng(727);
        approx::DepthwiseConv2d dw(5, 3, 1, 1, wrng);
        dump_two_steps("fdw", dw, tensor::Shape{2, 5, 9, 7}, 828);
    }
    {
        util::Rng wrng(737);
        approx::DepthwiseConv2d dw(5, 3, 2, 1, wrng);
        dump_two_steps("fdw_s2", dw, tensor::Shape{2, 5, 9, 7}, 838);
    }
    {
        util::Rng wrng(747);
        approx::ApproxConv2d conv(3, 8, 3, 2, 1, wrng);
        conv.set_multiplier(make_config("mul8u_rm8"));
        conv.set_mode(approx::ComputeMode::kQuantized);
        dump_two_steps("conv_s2", conv, tensor::Shape{2, 3, 9, 7}, 848);
    }
    {
        // Float GEMM shapes with row and column tails: 7 rows, 20 outputs
        // (one full 16-wide panel plus 4), depth 37.
        util::Rng wrng(757);
        nn::Linear linear(37, 20, wrng);
        dump_two_steps("flinear", linear, tensor::Shape{7, 37}, 858);
    }
    {
        // 189 positions x 20 outputs over depth 45.
        util::Rng wrng(767);
        approx::ApproxConv2d conv(5, 20, 3, 1, 1, wrng);
        conv.set_mode(approx::ComputeMode::kFloat);
        dump_two_steps("fconv_wide", conv, tensor::Shape{3, 5, 9, 7}, 868);
    }
}

/// Quantized convs whose 16-row position blocks hold one output location, or
/// the tail of one and the head of the next (batch >= 16): a 5x5 kernel with
/// pad 2 at batch 17 (per-tensor) and 16 (per-channel), and a 4-bit 3x3
/// conv at batch 16 that takes the nibble (pshufb) leaf.
void dump_padded_convs() {
    {
        util::Rng wrng(777);
        approx::ApproxConv2d conv(6, 10, 5, 1, 2, wrng);
        conv.set_multiplier(make_config("mul8u_rm8"));
        conv.set_mode(approx::ComputeMode::kQuantized);
        dump_two_steps("conv_k5", conv, tensor::Shape{17, 6, 7, 9}, 878);
    }
    {
        util::Rng wrng(787);
        approx::ApproxConv2d conv(6, 10, 5, 1, 2, wrng);
        conv.set_multiplier(make_config("mul8u_rm8"));
        conv.set_mode(approx::ComputeMode::kQuantized);
        conv.set_per_channel_weights(true);
        dump_two_steps("conv_k5_pc", conv, tensor::Shape{16, 6, 7, 9}, 888);
    }
    {
        util::Rng wrng(797);
        approx::ApproxConv2d conv(5, 12, 3, 1, 1, wrng);
        conv.set_multiplier(approx::MultiplierConfig::exact_ste(4));
        conv.set_mode(approx::ComputeMode::kQuantized);
        dump_two_steps("conv_nib", conv, tensor::Shape{16, 5, 6, 6}, 898);
    }
}

/// One stride-2 3x3 conv on a 7x9 input at batch 2, unpadded (every block's
/// tap box is full) and, with the same seeds, padded with per-channel
/// weights.
void dump_stride2_convs() {
    {
        util::Rng wrng(807);
        approx::ApproxConv2d conv(3, 5, 3, 2, 0, wrng);
        conv.set_multiplier(make_config("mul8u_rm8"));
        conv.set_mode(approx::ComputeMode::kQuantized);
        dump_two_steps("conv_p0", conv, tensor::Shape{2, 3, 7, 9}, 908);
    }
    {
        util::Rng wrng(807);
        approx::ApproxConv2d conv(3, 5, 3, 2, 1, wrng);
        conv.set_multiplier(make_config("mul8u_rm8"));
        conv.set_mode(approx::ComputeMode::kQuantized);
        conv.set_per_channel_weights(true);
        dump_two_steps("conv_s2_pc", conv, tensor::Shape{2, 3, 7, 9}, 908);
    }
}

/// A 20-channel 3x3 conv on maps as small as VGG19-slim's deepest: at 3x3
/// its rows see 2x2, 2x3, 3x2 and 3x3 boxes of in-image taps (runs of 40,
/// 120 and 180 depth indices), and at 1x1, with per-channel weights, only
/// the centre tap (one 20-index run per row).
void dump_deep_convs() {
    {
        util::Rng wrng(817);
        approx::ApproxConv2d conv(20, 12, 3, 1, 1, wrng);
        conv.set_multiplier(make_config("mul8u_rm8"));
        conv.set_mode(approx::ComputeMode::kQuantized);
        dump_two_steps("conv_c20", conv, tensor::Shape{3, 20, 3, 3}, 918);
    }
    {
        util::Rng wrng(817);
        approx::ApproxConv2d conv(20, 12, 3, 1, 1, wrng);
        conv.set_multiplier(make_config("mul8u_rm8"));
        conv.set_mode(approx::ComputeMode::kQuantized);
        conv.set_per_channel_weights(true);
        dump_two_steps("conv_c20_1x1", conv, tensor::Shape{5, 20, 1, 1}, 928);
    }
}

/// Quantized 1x1 convs on spatial maps: a per-channel stride-1 pointwise
/// conv (MobileNet's shape) and a stride-2 downsample (ResNet's), whose
/// tap-major depth and weight order are the identity.
void dump_pointwise_convs() {
    {
        util::Rng wrng(827);
        approx::ApproxConv2d conv(12, 20, 1, 1, 0, wrng);
        conv.set_multiplier(make_config("mul8u_rm8"));
        conv.set_mode(approx::ComputeMode::kQuantized);
        conv.set_per_channel_weights(true);
        dump_two_steps("conv_pw_pc", conv, tensor::Shape{3, 12, 5, 6}, 938);
    }
    {
        util::Rng wrng(837);
        approx::ApproxConv2d conv(6, 10, 1, 2, 0, wrng);
        conv.set_multiplier(make_config("mul8u_rm8"));
        conv.set_mode(approx::ComputeMode::kQuantized);
        dump_two_steps("conv_1x1_s2", conv, tensor::Shape{2, 6, 7, 9}, 948);
    }
}

/// Quantized 3x3 convs with pad 1 on VGG19-slim's deepest maps: 32 input
/// channels at batch 32 on 2x2 and 1x1 maps, under the difference gradient
/// and under exact_ste(8), so every 16-lane group of the grad-W walk sits
/// inside one tap; and 24 input channels, whose lane groups straddle taps,
/// per-tensor under the difference gradient and per-channel under STE.
void dump_deep_padded_convs() {
    const approx::MultiplierConfig diff = make_config("mul8u_rm8");
    const approx::MultiplierConfig ste = approx::MultiplierConfig::exact_ste(8);
    const auto run = [](const std::string& tag, std::int64_t in, std::int64_t out,
                        std::uint64_t wseed, const approx::MultiplierConfig& config,
                        bool per_channel, const tensor::Shape& xshape,
                        std::uint64_t seed) {
        util::Rng wrng(wseed);
        approx::ApproxConv2d conv(in, out, 3, 1, 1, wrng);
        conv.set_multiplier(config);
        conv.set_mode(approx::ComputeMode::kQuantized);
        conv.set_per_channel_weights(per_channel);
        dump_two_steps(tag, conv, xshape, seed);
    };
    run("conv_c32_2x2", 32, 16, 847, diff, false, tensor::Shape{32, 32, 2, 2}, 958);
    run("conv_c32_1x1", 32, 16, 847, diff, false, tensor::Shape{32, 32, 1, 1}, 968);
    run("conv_c32_2x2_ste", 32, 16, 847, ste, false, tensor::Shape{32, 32, 2, 2}, 958);
    run("conv_c32_1x1_ste", 32, 16, 847, ste, false, tensor::Shape{32, 32, 1, 1}, 968);
    run("conv_c24", 24, 10, 857, diff, false, tensor::Shape{4, 24, 4, 4}, 978);
    run("conv_c24_ste_pc", 24, 10, 857, ste, true, tensor::Shape{3, 24, 3, 3}, 988);
}

/// Quantized 3x3 pad-1 convs on 64-row position blocks: batch 64 on 16x16,
/// whose blocks each hold one output location; 128 input channels at batch
/// 32 on 2x2 (K = 1152, two depth blocks), whose blocks each span two
/// locations and walk the union of their tap boxes; batch 3 on 5x5, 75
/// rows, one 64-row block and an 11-row tail; and a 7-bit and a 6-bit
/// multiplier at batch 8 on 6x6 (288 rows: four full blocks and a 32-row
/// tail).
void dump_block64_convs() {
    const auto run = [](const std::string& tag, std::int64_t in, std::int64_t out,
                        std::uint64_t wseed, const std::string& mult,
                        const tensor::Shape& xshape, std::uint64_t seed) {
        util::Rng wrng(wseed);
        approx::ApproxConv2d conv(in, out, 3, 1, 1, wrng);
        conv.set_multiplier(make_config(mult));
        conv.set_mode(approx::ComputeMode::kQuantized);
        dump_two_steps(tag, conv, xshape, seed);
    };
    run("conv_b64", 4, 12, 1017, "mul8u_rm8", tensor::Shape{64, 4, 16, 16}, 1018);
    run("conv_c128", 128, 16, 1027, "mul8u_rm8", tensor::Shape{32, 128, 2, 2}, 1028);
    run("conv_p75", 6, 10, 1037, "mul8u_rm8", tensor::Shape{3, 6, 5, 5}, 1038);
    run("conv_7bit", 5, 12, 1047, "mul7u_rm6", tensor::Shape{8, 5, 6, 6}, 1048);
    run("conv_6bit", 5, 12, 1057, "mul6u_rm4", tensor::Shape{8, 5, 6, 6}, 1058);
}

/// Quantized ApproxLinear(37, 21) layers: on mul8u_rm8 at batch 19 (one
/// full 16-row position block and a 3-row tail), and on the 4-bit exact
/// multiplier at batch 32, whose 16-row blocks take the nibble (pshufb) leaf.
void dump_quant_linears() {
    {
        util::Rng wrng(937);
        approx::ApproxLinear linear(37, 21, wrng);
        linear.set_multiplier(make_config("mul8u_rm8"));
        linear.set_mode(approx::ComputeMode::kQuantized);
        dump_two_steps("qlinear", linear, tensor::Shape{19, 37}, 938);
    }
    {
        util::Rng wrng(937);
        approx::ApproxLinear linear(37, 21, wrng);
        linear.set_multiplier(approx::MultiplierConfig::exact_ste(4));
        linear.set_mode(approx::ComputeMode::kQuantized);
        dump_two_steps("qlinear_nib", linear, tensor::Shape{32, 37}, 948);
    }
}

void dump_engine() {
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 8;
    dc.train_samples = 64;
    dc.test_samples = 16;
    dc.noise_stddev = 0.3f;
    dc.seed = 77;
    const auto pair = data::make_synthetic(dc);

    util::Rng rng(1010);
    nn::Sequential model;
    auto* conv = model.emplace<approx::ApproxConv2d>(3, 4, 3, 1, 1, rng);
    model.emplace<nn::ReLU>();
    model.emplace<nn::MaxPool2d>(2);
    model.emplace<nn::Flatten>();
    model.emplace<nn::Linear>(4 * 4 * 4, 4, rng);
    approx::MultiplierConfig config = make_config("mul8u_17C8");
    conv->set_multiplier(config);
    model.set_training(false);

    approx::IntInferenceEngine engine(model, pair.train, 48);
    util::Rng xrng(1111);
    const tensor::Tensor images =
        tensor::Tensor::randn(tensor::Shape{3, 3, 8, 8}, xrng);
    const tensor::Tensor logits = engine.forward(images);
    std::printf("// int inference engine\n");
    print("engine.logits", hash_tensor(logits));
}

/// An engine whose float head has two layers and a hidden ReLU, calibrated
/// on 40 samples so the calibration loader yields batches of 32 and 8.
void dump_engine_head() {
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 8;
    dc.train_samples = 40;
    dc.test_samples = 8;
    dc.noise_stddev = 0.3f;
    dc.seed = 78;
    const auto pair = data::make_synthetic(dc);

    util::Rng rng(1212);
    nn::Sequential model;
    auto* conv = model.emplace<approx::ApproxConv2d>(3, 20, 3, 1, 1, rng);
    model.emplace<nn::ReLU>();
    model.emplace<nn::MaxPool2d>(2);
    model.emplace<approx::ApproxConv2d>(20, 6, 3, 1, 1, rng);
    model.emplace<nn::Flatten>();
    model.emplace<nn::Linear>(6 * 4 * 4, 24, rng);
    model.emplace<nn::ReLU>();
    model.emplace<nn::Linear>(24, 4, rng);
    conv->set_multiplier(make_config("mul8u_17C8"));
    model.set_training(false);

    approx::IntInferenceEngine engine(model, pair.train, 40);
    util::Rng xrng(1313);
    const tensor::Tensor images =
        tensor::Tensor::randn(tensor::Shape{5, 3, 8, 8}, xrng);
    const tensor::Tensor logits = engine.forward(images);
    std::printf("// int inference engine, two-layer head\n");
    print("engine_head.logits", hash_tensor(logits));
}

/// VGG19 at width 1/8 on 16x16 inputs, calibrated on 32 samples: its last
/// eight convs run at 2x2 and 1x1, so a batch of 1 (P = 4 and 1) and a batch
/// of 3 (P = 12 and 3) form position blocks narrower than 8 rows. The batch
/// of 1 is the batch of 3's first image. The exact multiplier keeps the
/// untrained network's logits apart; the approximate ones tested here drive
/// every logit to 0. A batch of 20 puts one output location, or the tail of
/// one and the head of the next, in each 16-row position block, and a batch
/// of 64 one location in each 64-row block.
void dump_engine_vgg() {
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 16;
    dc.train_samples = 32;
    dc.test_samples = 8;
    dc.noise_stddev = 0.3f;
    dc.seed = 79;
    const auto pair = data::make_synthetic(dc);

    models::ModelConfig mc;
    mc.num_classes = 4;
    mc.in_size = 16;
    mc.width_mult = 0.125f;
    mc.seed = 1414;
    const auto model = models::make_vgg("vgg19", mc);
    approx::configure_approx_layers(*model, make_config("mul8u_acc"),
                                    approx::ComputeMode::kQuantized);
    model->set_training(false);

    approx::IntInferenceEngine engine(*model, pair.train, 32);
    util::Rng xrng(1515);
    const tensor::Tensor images =
        tensor::Tensor::randn(tensor::Shape{3, 3, 16, 16}, xrng);
    tensor::Tensor first(tensor::Shape{1, 3, 16, 16});
    std::copy_n(images.data(), first.numel(), first.data());
    std::printf("// int inference engine, VGG19 with narrow position blocks\n");
    print("engine_vgg.b1.logits", hash_tensor(engine.forward(first)));
    print("engine_vgg.b3.logits", hash_tensor(engine.forward(images)));
    const tensor::Tensor twenty =
        tensor::Tensor::randn(tensor::Shape{20, 3, 16, 16}, xrng);
    print("engine_vgg.b20.logits", hash_tensor(engine.forward(twenty)));
    const tensor::Tensor sixty_four =
        tensor::Tensor::randn(tensor::Shape{64, 3, 16, 16}, xrng);
    print("engine_vgg.b64.logits", hash_tensor(engine.forward(sixty_four)));
}

/// An engine with the two average pools (a 2x2 average pool, then a global
/// average pool before the head), calibrated on 40 samples and run on a
/// batch of 5.
void dump_engine_avg_pools() {
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 12;
    dc.train_samples = 40;
    dc.test_samples = 8;
    dc.seed = 21;
    const auto pair = data::make_synthetic(dc);

    util::Rng rng(31);
    nn::Sequential model;
    auto* conv = model.emplace<approx::ApproxConv2d>(3, 6, 3, 1, 1, rng);
    model.emplace<nn::ReLU>();
    model.emplace<nn::AvgPool2d>(2);
    auto* conv2 = model.emplace<approx::ApproxConv2d>(6, 8, 3, 1, 0, rng);
    model.emplace<nn::ReLU>();
    model.emplace<nn::GlobalAvgPool>();
    model.emplace<nn::Flatten>();
    model.emplace<nn::Linear>(8, 4, rng);
    conv->set_multiplier(make_config("mul8u_rm8"));
    conv2->set_multiplier(make_config("mul8u_rm8"));
    model.set_training(false);

    approx::IntInferenceEngine engine(model, pair.train, 40);
    util::Rng xrng(1616);
    const tensor::Tensor images =
        tensor::Tensor::randn(tensor::Shape{5, 3, 12, 12}, xrng);
    std::printf("// int inference engine, average and global average pools\n");
    print("engine_avg.logits", hash_tensor(engine.forward(images)));
}

/// LeNet at width 1/2 on 8x8 inputs (two 5x5 convs, two pools), calibrated
/// on 48 samples and run on one batch of 16.
void dump_engine_lenet() {
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 8;
    dc.train_samples = 64;
    dc.test_samples = 32;
    dc.seed = 99;
    const auto pair = data::make_synthetic(dc);

    models::ModelConfig mc;
    mc.in_size = 8;
    mc.num_classes = 4;
    mc.width_mult = 0.5f;
    const auto model = models::make_lenet(mc);
    approx::configure_approx_layers(*model, make_config("mul8u_acc"),
                                    approx::ComputeMode::kQuantized);
    model->set_training(false);

    approx::IntInferenceEngine engine(*model, pair.train, 48);
    data::DataLoader loader(pair.test, 16, /*shuffle=*/false, 0);
    loader.start_epoch();
    data::Batch batch;
    loader.next(batch);
    std::printf("// int inference engine, LeNet\n");
    print("engine_lenet.logits", hash_tensor(engine.forward(batch.images)));
}

} // namespace

int main() {
    dump_conv("conv_pt", "mul8u_rm8", false);
    dump_conv("conv_pc", "mul7u_rm6", true);
    dump_float_conv();
    dump_linear();
    dump_depthwise();
    dump_two_step_layers();
    dump_padded_convs();
    dump_stride2_convs();
    dump_deep_convs();
    dump_pointwise_convs();
    dump_deep_padded_convs();
    dump_quant_linears();
    dump_block64_convs();
    dump_engine();
    dump_engine_head();
    dump_engine_vgg();
    dump_engine_lenet();
    dump_engine_avg_pools();
    return 0;
}
