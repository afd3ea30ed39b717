// Tests for the training loop, model snapshots, the Fig. 1 pipeline, and
// HWS search plumbing.
#include "appmult/registry.hpp"
#include "train/hws_search.hpp"
#include "train/pipeline.hpp"
#include "train/trainer.hpp"

#include <gtest/gtest.h>

#include <fstream>

namespace {

using namespace amret;
using models::ModelConfig;
using train::TrainConfig;

data::DatasetPair tiny_data(int classes = 4, std::int64_t samples = 96) {
    data::SyntheticConfig config;
    config.num_classes = classes;
    config.height = config.width = 8;
    config.train_samples = samples;
    config.test_samples = samples / 2;
    config.noise_stddev = 0.25f;
    config.max_shift = 1;
    config.seed = 9;
    return data::make_synthetic(config);
}

ModelConfig tiny_lenet_config(int classes = 4) {
    ModelConfig mc;
    mc.in_size = 8;
    mc.num_classes = classes;
    mc.width_mult = 0.5f;
    return mc;
}

TrainConfig fast_train(int epochs) {
    TrainConfig tc;
    tc.epochs = epochs;
    tc.batch_size = 16;
    tc.lr = 3e-3;
    return tc;
}

TEST(Trainer, LossDecreasesOnFloatModel) {
    const auto pair = tiny_data();
    auto model = models::make_lenet(tiny_lenet_config());
    train::Trainer trainer(*model, pair.train, pair.test, fast_train(4));
    const auto stats = trainer.train_only(4);
    ASSERT_EQ(stats.size(), 4u);
    EXPECT_LT(stats.back().loss, stats.front().loss);
    EXPECT_GT(stats.back().top1, stats.front().top1);
}

TEST(Trainer, RunRecordsTrainAndTestHistory) {
    const auto pair = tiny_data();
    auto model = models::make_lenet(tiny_lenet_config());
    train::Trainer trainer(*model, pair.train, pair.test, fast_train(2));
    const auto history = trainer.run();
    EXPECT_EQ(history.train.size(), 2u);
    EXPECT_EQ(history.test.size(), 2u);
    EXPECT_GT(history.final_train_loss(), 0.0);
    EXPECT_GE(history.final_test_top1(), 0.0);
    EXPECT_LE(history.final_test_top1(), 1.0);
}

TEST(Trainer, QuantizedModelTrains) {
    const auto pair = tiny_data();
    auto model = models::make_lenet(tiny_lenet_config());
    approx::configure_approx_layers(*model, approx::MultiplierConfig::exact_ste(8),
                                    approx::ComputeMode::kQuantized);
    train::Trainer trainer(*model, pair.train, pair.test, fast_train(4));
    const auto stats = trainer.train_only(4);
    EXPECT_LT(stats.back().loss, stats.front().loss);
}

TEST(Evaluate, BetterThanChanceAfterTraining) {
    const auto pair = tiny_data();
    auto model = models::make_lenet(tiny_lenet_config());
    train::Trainer trainer(*model, pair.train, pair.test, fast_train(6));
    trainer.train_only(6);
    const auto stats = train::evaluate(*model, pair.test);
    EXPECT_GT(stats.top1, 0.3); // chance = 0.25 for 4 classes
}

TEST(Evaluate, RestoresTrainingFlag) {
    const auto pair = tiny_data();
    auto model = models::make_lenet(tiny_lenet_config());
    model->set_training(true);
    train::evaluate(*model, pair.test);
    EXPECT_TRUE(model->training());
    model->set_training(false);
    train::evaluate(*model, pair.test);
    EXPECT_FALSE(model->training());
}

TEST(Snapshot, RoundTripRestoresOutputs) {
    const auto pair = tiny_data();
    auto model = models::make_lenet(tiny_lenet_config());
    approx::configure_approx_layers(*model, approx::MultiplierConfig::exact_ste(8),
                                    approx::ComputeMode::kQuantized);
    train::Trainer trainer(*model, pair.train, pair.test, fast_train(2));
    trainer.train_only(2);

    const auto snap = train::snapshot(*model);
    const auto stats_before = train::evaluate(*model, pair.test);

    // Perturb everything, then restore.
    train::Trainer wrecker(*model, pair.train, pair.test, fast_train(1));
    wrecker.train_only(1);
    train::restore(*model, snap);
    const auto stats_after = train::evaluate(*model, pair.test);
    EXPECT_DOUBLE_EQ(stats_before.top1, stats_after.top1);
    EXPECT_DOUBLE_EQ(stats_before.loss, stats_after.loss);
}

TEST(Snapshot, CapturesBatchNormAndObservers) {
    auto model = models::make_lenet(tiny_lenet_config());
    const auto snap = train::snapshot(*model);
    // LeNet: 2 BatchNorm (2C floats each) + 2 ApproxConv observers (3 floats).
    EXPECT_GT(snap.extra.size(), 0u);
    EXPECT_FALSE(snap.params.empty());
}

TEST(Pipeline, PrepareAndRetrainImprovesOverInitial) {
    const auto pair = tiny_data(4, 128);
    train::PipelineConfig pc;
    pc.model = "lenet";
    pc.model_config = tiny_lenet_config();
    pc.float_epochs = 3;
    pc.qat_epochs = 2;
    pc.retrain_epochs = 3;
    pc.train = fast_train(3);

    train::RetrainPipeline pipeline(pc, pair.train, pair.test);
    const double reference = pipeline.prepare(7);
    EXPECT_GT(reference, 0.3);

    auto& reg = appmult::Registry::instance();
    const auto& lut = reg.lut("mul7u_rm6");
    const auto grad = core::build_difference_grad(lut, 2);
    const auto outcome = pipeline.retrain(lut, grad);
    // rm6 is a large-error multiplier: the swap should hurt, retraining
    // should recover a good chunk.
    EXPECT_GE(outcome.final_top1, outcome.initial_top1);
    EXPECT_GT(outcome.final_top1, 0.3);
    EXPECT_EQ(outcome.history.train.size(), 3u);
}

TEST(Pipeline, RetrainIsRepeatableFromSnapshot) {
    const auto pair = tiny_data(4, 96);
    train::PipelineConfig pc;
    pc.model = "lenet";
    pc.model_config = tiny_lenet_config();
    pc.float_epochs = 2;
    pc.qat_epochs = 1;
    pc.retrain_epochs = 1;
    pc.train = fast_train(1);

    train::RetrainPipeline pipeline(pc, pair.train, pair.test);
    pipeline.prepare(7);
    auto& reg = appmult::Registry::instance();
    const auto& lut = reg.lut("mul7u_rm6");
    const auto grad = core::build_ste_grad(7);
    const auto a = pipeline.retrain(lut, grad);
    const auto b = pipeline.retrain(lut, grad);
    // Same snapshot, same seed: initial accuracy must match exactly.
    EXPECT_DOUBLE_EQ(a.initial_top1, b.initial_top1);
    EXPECT_DOUBLE_EQ(a.final_top1, b.final_top1);
}

TEST(Pipeline, RetrainFinalScoreEqualsAFreshEvaluation) {
    // retrain() takes its final score from the last epoch's evaluation when
    // an epoch ran, and scores afresh when none did: either way it must
    // equal evaluating the retrained model now.
    const auto pair = tiny_data(4, 96);
    auto& reg = appmult::Registry::instance();
    const auto& lut = reg.lut("mul7u_rm6");
    const auto grad = core::build_difference_grad(lut, 2);
    for (const int epochs : {0, 1, 2}) {
        train::PipelineConfig pc;
        pc.model = "lenet";
        pc.model_config = tiny_lenet_config();
        pc.float_epochs = 1;
        pc.qat_epochs = 1;
        pc.retrain_epochs = epochs;
        pc.train = fast_train(1);
        train::RetrainPipeline pipeline(pc, pair.train, pair.test);
        pipeline.prepare(7);
        const auto outcome = pipeline.retrain(lut, grad);
        const train::EpochStats fresh = pipeline.test_stats();
        EXPECT_EQ(outcome.history.test.size(), static_cast<std::size_t>(epochs));
        EXPECT_EQ(outcome.final_top1, fresh.top1) << epochs << " epochs";
        EXPECT_EQ(outcome.final_top5, fresh.top5) << epochs << " epochs";
    }
}

TEST(HwsSearch, ReturnsCandidateWithLosses) {
    const auto pair = tiny_data(4, 64);
    auto& reg = appmult::Registry::instance();
    const auto& lut = reg.lut("mul6u_rm4");

    train::HwsSearchConfig config;
    config.candidates = {1, 4, 16};
    config.epochs = 1;
    config.lenet = tiny_lenet_config();
    config.lenet.width_mult = 0.25f;
    config.train = fast_train(1);

    const auto sel = train::search_hws(lut, pair.train, config);
    EXPECT_TRUE(sel.best_hws == 1 || sel.best_hws == 4 || sel.best_hws == 16);
    EXPECT_EQ(sel.losses.size(), 3u);
    for (const auto& [hws, loss] : sel.losses) EXPECT_GT(loss, 0.0);
}

TEST(Trainer, SgdOptimizerOptionWorks) {
    const auto pair = tiny_data();
    auto model = models::make_lenet(tiny_lenet_config());
    TrainConfig tc = fast_train(3);
    tc.optimizer = TrainConfig::Opt::kSgd;
    tc.lr = 0.01;
    train::Trainer trainer(*model, pair.train, pair.test, tc);
    const auto stats = trainer.train_only(3);
    EXPECT_LT(stats.back().loss, stats.front().loss);
}

} // namespace

#include "train/checkpoint.hpp"

#include <cstdio>

namespace {

using namespace amret;

TEST(Checkpoint, SaveLoadRoundTripRestoresBehaviour) {
    const auto pair = tiny_data();
    auto model = models::make_lenet(tiny_lenet_config());
    approx::configure_approx_layers(*model, approx::MultiplierConfig::exact_ste(8),
                                    approx::ComputeMode::kQuantized);
    train::Trainer trainer(*model, pair.train, pair.test, fast_train(2));
    trainer.train_only(2);
    const auto stats_before = train::evaluate(*model, pair.test);

    const std::string path = ::testing::TempDir() + "/amret_ckpt.bin";
    ASSERT_TRUE(train::save_model(*model, path));

    // A freshly built (differently seeded) model loads the checkpoint and
    // reproduces the evaluation exactly.
    auto mc = tiny_lenet_config();
    mc.seed = 999;
    auto fresh = models::make_lenet(mc);
    approx::configure_approx_layers(*fresh, approx::MultiplierConfig::exact_ste(8),
                                    approx::ComputeMode::kQuantized);
    ASSERT_TRUE(train::load_model(*fresh, path));
    const auto stats_after = train::evaluate(*fresh, pair.test);
    EXPECT_DOUBLE_EQ(stats_before.top1, stats_after.top1);
    EXPECT_DOUBLE_EQ(stats_before.loss, stats_after.loss);
    std::remove(path.c_str());
}

TEST(Checkpoint, RejectsArchitectureMismatch) {
    auto model = models::make_lenet(tiny_lenet_config());
    const std::string path = ::testing::TempDir() + "/amret_ckpt_mismatch.bin";
    ASSERT_TRUE(train::save_model(*model, path));

    auto wider = tiny_lenet_config();
    wider.width_mult = 1.0f;
    auto other = models::make_lenet(wider);
    EXPECT_FALSE(train::load_model(*other, path));

    models::ModelConfig rc;
    rc.in_size = 8;
    rc.num_classes = 4;
    rc.width_mult = 0.125f;
    auto resnet = models::make_resnet(18, rc);
    EXPECT_FALSE(train::load_model(*resnet, path));
    std::remove(path.c_str());
}

TEST(Checkpoint, LoadMissingOrCorruptFails) {
    EXPECT_FALSE(train::load_checkpoint("/no/such/checkpoint.bin").has_value());
    const std::string path = ::testing::TempDir() + "/amret_ckpt_bad.bin";
    {
        std::ofstream f(path, std::ios::binary);
        f << "NOTACHECKPOINT";
    }
    EXPECT_FALSE(train::load_checkpoint(path).has_value());
    std::remove(path.c_str());
}

} // namespace
