// Tests for the integer-only inference engine (deployment path).
#include "approx/inference.hpp"
#include "appmult/registry.hpp"
#include "models/models.hpp"
#include "obs/obs.hpp"
#include "train/pipeline.hpp"
#include "train/trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

namespace {

using namespace amret;
using approx::FixedPointMultiplier;
using approx::IntInferenceEngine;

TEST(FixedPoint, MultiplierRoundTrip) {
    for (const double m : {0.5, 0.25, 0.1, 0.9999, 0.0003, 1.7}) {
        const FixedPointMultiplier fpm = approx::quantize_multiplier(m);
        // Apply to a large value and compare with the real product.
        const std::int64_t v = 123456;
        const double expected = static_cast<double>(v) * m;
        const std::int32_t got = approx::fixed_point_rescale(v, fpm);
        EXPECT_NEAR(static_cast<double>(got), expected, std::abs(expected) * 1e-4 + 1.0)
            << "m=" << m;
    }
}

TEST(FixedPoint, RoundsToNearest) {
    const FixedPointMultiplier half = approx::quantize_multiplier(0.5);
    EXPECT_EQ(approx::fixed_point_rescale(5, half), 3);  // 2.5 -> 3 (round half up)
    EXPECT_EQ(approx::fixed_point_rescale(4, half), 2);
    EXPECT_EQ(approx::fixed_point_rescale(-4, half), -2);
}

struct TrainedModel {
    std::unique_ptr<nn::Sequential> model;
    data::DatasetPair data;
    double fake_quant_acc = 0.0;
};

TrainedModel make_trained(const std::string& arch, const std::string& mult_name) {
    TrainedModel out;
    data::SyntheticConfig dc;
    dc.num_classes = 6;
    dc.height = dc.width = 8;
    dc.train_samples = 240;
    dc.test_samples = 120;
    dc.noise_stddev = 0.3f;
    dc.seed = 77;
    out.data = data::make_synthetic(dc);

    models::ModelConfig mc;
    mc.in_size = 8;
    mc.num_classes = 6;
    mc.width_mult = 0.5f;
    out.model = train::make_model(arch, mc);

    auto& reg = appmult::Registry::instance();
    approx::MultiplierConfig config;
    config.lut = std::make_shared<appmult::AppMultLut>(reg.lut(mult_name));
    config.grad = std::make_shared<core::GradLut>(
        core::build_ste_grad(reg.info(mult_name).bits));
    approx::configure_approx_layers(*out.model, config,
                                    approx::ComputeMode::kQuantized);

    train::TrainConfig tc;
    tc.epochs = 5;
    tc.batch_size = 24;
    tc.lr = 3e-3;
    train::Trainer trainer(*out.model, out.data.train, out.data.test, tc);
    trainer.train_only(5);
    out.fake_quant_acc = train::evaluate(*out.model, out.data.test).top1;
    return out;
}

TEST(IntInference, SafetyPolicyEnvRejectsUnknownValuesWithTypedWarning) {
    const char* prev = std::getenv("AMRET_ANALYZE");
    const std::string saved = prev ? prev : "";
    obs::Counter& warned = obs::counter("warn.analysis.env_unknown");
    const std::int64_t before = warned.value();

    ::setenv("AMRET_ANALYZE", "off", 1);
    EXPECT_EQ(approx::safety_policy_from_env(), approx::SafetyPolicy::kOff);
    ::setenv("AMRET_ANALYZE", "warn", 1);
    EXPECT_EQ(approx::safety_policy_from_env(), approx::SafetyPolicy::kWarn);
    ::setenv("AMRET_ANALYZE", "enforce", 1);
    EXPECT_EQ(approx::safety_policy_from_env(), approx::SafetyPolicy::kEnforce);
    ::unsetenv("AMRET_ANALYZE");
    EXPECT_EQ(approx::safety_policy_from_env(), approx::SafetyPolicy::kWarn);
    EXPECT_EQ(warned.value(), before);

    // A near miss keeps the warn fallback but says so.
    for (const char* bad : {"enforced", "OFF", "1"}) {
        ::setenv("AMRET_ANALYZE", bad, 1);
        const std::int64_t at = warned.value();
        EXPECT_EQ(approx::safety_policy_from_env(), approx::SafetyPolicy::kWarn)
            << bad;
        EXPECT_EQ(warned.value(), at + 1) << bad;
    }

    if (prev)
        ::setenv("AMRET_ANALYZE", saved.c_str(), 1);
    else
        ::unsetenv("AMRET_ANALYZE");
}

TEST(IntInference, LenetMatchesFakeQuantAccuracy) {
    auto trained = make_trained("lenet", "mul8u_acc");
    trained.model->set_training(false);
    IntInferenceEngine engine(*trained.model, trained.data.train, 96);
    EXPECT_GT(engine.num_ops(), 2u);
    const double int_acc = engine.evaluate(trained.data.test);
    // The integer pipeline re-quantizes between layers, so a small accuracy
    // delta is expected — but it must stay close to the fake-quant model.
    EXPECT_GT(trained.fake_quant_acc, 0.5); // the task was learned
    EXPECT_GT(int_acc, trained.fake_quant_acc - 0.12);
}

TEST(IntInference, WorksWithApproximateMultiplier) {
    auto trained = make_trained("lenet", "mul7u_rm6");
    trained.model->set_training(false);
    IntInferenceEngine engine(*trained.model, trained.data.train, 96);
    const double int_acc = engine.evaluate(trained.data.test);
    EXPECT_GT(int_acc, trained.fake_quant_acc - 0.15);
    EXPECT_GT(int_acc, 1.0 / 6.0); // far above chance
}

TEST(IntInference, VggTopologyCompiles) {
    auto trained = make_trained("vgg11", "mul8u_acc");
    trained.model->set_training(false);
    IntInferenceEngine engine(*trained.model, trained.data.train, 64);
    const double int_acc = engine.evaluate(trained.data.test);
    EXPECT_GT(int_acc, trained.fake_quant_acc - 0.15);
}

TEST(IntInference, LogitsCorrelateWithFloatModel) {
    auto trained = make_trained("lenet", "mul8u_acc");
    trained.model->set_training(false);
    IntInferenceEngine engine(*trained.model, trained.data.train, 96);

    data::DataLoader loader(trained.data.test, 16, false, 0);
    loader.start_epoch();
    data::Batch batch;
    ASSERT_TRUE(loader.next(batch));
    nn::Context ctx;
    const tensor::Tensor int_logits = engine.forward(batch.images);
    const tensor::Tensor fq_logits = trained.model->forward(batch.images, ctx);
    ASSERT_EQ(int_logits.shape(), fq_logits.shape());

    double dot = 0.0, na = 0.0, nb = 0.0;
    for (std::int64_t i = 0; i < int_logits.numel(); ++i) {
        dot += static_cast<double>(int_logits[i]) * fq_logits[i];
        na += static_cast<double>(int_logits[i]) * int_logits[i];
        nb += static_cast<double>(fq_logits[i]) * fq_logits[i];
    }
    EXPECT_GT(dot / std::sqrt(na * nb), 0.95);
}

/// An untrained 16x16 LeNet engine calibrated on 16x16 RGB samples.
struct ShapeFixture {
    data::DatasetPair data;
    std::unique_ptr<nn::Sequential> model;
    std::unique_ptr<IntInferenceEngine> engine;

    ShapeFixture() {
        data::SyntheticConfig dc;
        dc.num_classes = 4;
        dc.height = dc.width = 16;
        dc.train_samples = 16;
        dc.test_samples = 8;
        data = data::make_synthetic(dc);
        models::ModelConfig mc;
        mc.in_size = 16;
        mc.num_classes = 4;
        mc.width_mult = 0.5f;
        model = train::make_model("lenet", mc);
        model->set_training(false);
        engine = std::make_unique<IntInferenceEngine>(*model, data.train, 16);
    }
};

TEST(IntInference, RecordsCalibrationSampleShape) {
    const ShapeFixture f;
    EXPECT_EQ(f.engine->input_channels(), 3);
    EXPECT_EQ(f.engine->input_height(), 16);
    EXPECT_EQ(f.engine->input_width(), 16);
}

TEST(IntInference, ForwardIntoRejectsWrongShapeBeforeTouchingMemory) {
    const ShapeFixture f;
    util::Rng rng(5);
    kernels::Workspace ws;
    tensor::Tensor logits;
    const tensor::Tensor good = tensor::Tensor::randn(tensor::Shape{2, 3, 16, 16}, rng);
    f.engine->forward_into(good, ws, logits);
    const tensor::Tensor expected = logits;

    // A larger image once read past the head weight; a wrong channel count
    // past the activation.
    for (const tensor::Shape& bad :
         {tensor::Shape{1, 3, 32, 32}, tensor::Shape{1, 3, 8, 8},
          tensor::Shape{1, 3, 16, 8}, tensor::Shape{1, 1, 16, 16},
          tensor::Shape{1, 4, 16, 16}, tensor::Shape{3, 16, 16},
          tensor::Shape{2, 768}}) {
        const tensor::Tensor x = tensor::Tensor::randn(bad, rng);
        EXPECT_THROW(f.engine->forward_into(x, ws, logits), std::invalid_argument)
            << x.shape_str();
    }
    // The output was left alone, and the engine still serves its shape.
    const auto same = [&](const tensor::Tensor& t) {
        return t.shape() == expected.shape() &&
               std::memcmp(t.data(), expected.data(),
                           static_cast<std::size_t>(t.numel()) * sizeof(float)) == 0;
    };
    EXPECT_TRUE(same(logits));
    tensor::Tensor again;
    f.engine->forward_into(good, ws, again);
    EXPECT_TRUE(same(again));
}

TEST(IntInference, RejectsCalibrationSetThatDoesNotFitTheHead) {
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 8;
    dc.train_samples = 8;
    dc.test_samples = 4;
    const auto pair = data::make_synthetic(dc);
    models::ModelConfig mc;
    mc.in_size = 16; // head sized for 16x16 inputs
    mc.num_classes = 4;
    mc.width_mult = 0.5f;
    auto model = train::make_model("lenet", mc);
    model->set_training(false);
    EXPECT_THROW(IntInferenceEngine(*model, pair.train, 8), std::invalid_argument);
}

/// Relative L1 distance of the engine's logits from the model's float
/// forward for conv 3->8 (3x3, pad 1), ReLU, \p pool, Flatten and
/// Linear(8, 4) on 3x3 inputs: every pool kernel here leaves a 1x1 map, so
/// every one compiles, and only a pool run with the layer's own kernel
/// keeps the engine at its quantization gap. \p kernel receives the pool
/// kernel describe() reports.
template <class Pool>
double pool_net_gap(std::int64_t pool_kernel, std::int64_t* kernel) {
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 3;
    dc.train_samples = 32;
    dc.test_samples = 8;
    dc.seed = 17;
    const auto pair = data::make_synthetic(dc);
    util::Rng rng(23);
    nn::Sequential model;
    auto* conv = model.emplace<approx::ApproxConv2d>(3, 8, 3, 1, 1, rng);
    model.emplace<nn::ReLU>();
    model.emplace<Pool>(pool_kernel);
    model.emplace<nn::Flatten>();
    model.emplace<nn::Linear>(8, 4, rng);
    conv->set_multiplier(approx::MultiplierConfig::exact_ste(8));
    model.set_training(false);
    IntInferenceEngine engine(model, pair.train, 32);
    for (const analysis::OpDesc& op : engine.describe().ops)
        if (op.kind == analysis::OpDesc::Kind::kPool) *kernel = op.pool.kernel;

    util::Rng xrng(29);
    const tensor::Tensor x = tensor::Tensor::randn(tensor::Shape{16, 3, 3, 3}, xrng);
    nn::Context ctx;
    const tensor::Tensor want = model.forward(x, ctx);
    const tensor::Tensor got = engine.forward(x);
    double diff = 0.0, norm = 0.0;
    for (std::int64_t i = 0; i < want.numel(); ++i) {
        diff += std::abs(static_cast<double>(got[i]) - want[i]);
        norm += std::abs(static_cast<double>(want[i]));
    }
    return diff / norm;
}

TEST(IntInference, PoolsWithEachLayersOwnKernel) {
    // The engine once compiled every pool with kernel 2: on 3x3 maps a
    // MaxPool2d(3) net then read 0.526 relative L1 from its float forward,
    // against 0.015 for the MaxPool2d(2) net, the quantization gap.
    std::int64_t kernel = 0;
    const double gap = pool_net_gap<nn::MaxPool2d>(2, &kernel);
    EXPECT_EQ(kernel, 2);
    EXPECT_LT(gap, 0.05);
    const double max3 = pool_net_gap<nn::MaxPool2d>(3, &kernel);
    EXPECT_EQ(kernel, 3);
    const double avg3 = pool_net_gap<nn::AvgPool2d>(3, &kernel);
    EXPECT_EQ(kernel, 3);
    EXPECT_LT(max3, 2.0 * gap) << "kernel-2 gap " << gap;
    EXPECT_LT(avg3, 2.0 * gap) << "kernel-2 gap " << gap;
}

TEST(IntInference, RejectsResidualTopology) {
    models::ModelConfig mc;
    mc.in_size = 8;
    mc.num_classes = 4;
    mc.width_mult = 0.125f;
    auto model = models::make_resnet(18, mc);
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 8;
    dc.train_samples = 16;
    dc.test_samples = 8;
    const auto pair = data::make_synthetic(dc);
    EXPECT_THROW(IntInferenceEngine(*model, pair.train, 16), std::invalid_argument);
}

} // namespace
