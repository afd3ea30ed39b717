#include "train/pipeline.hpp"

#include "util/logging.hpp"

#include <cassert>
#include <stdexcept>

namespace amret::train {

std::unique_ptr<nn::Sequential> make_model(const std::string& name,
                                           const models::ModelConfig& config) {
    if (name == "lenet") return models::make_lenet(config);
    if (name == "mobilenet") return models::make_mobilenet(config);
    if (name.rfind("vgg", 0) == 0) return models::make_vgg(name, config);
    if (name == "resnet18") return models::make_resnet(18, config);
    if (name == "resnet34") return models::make_resnet(34, config);
    if (name == "resnet50") return models::make_resnet(50, config);
    throw std::invalid_argument("unknown model: " + name);
}

RetrainPipeline::RetrainPipeline(PipelineConfig config, const data::Dataset& train_set,
                                 const data::Dataset& test_set)
    : config_(std::move(config)), train_set_(train_set), test_set_(test_set) {
    model_ = make_model(config_.model, config_.model_config);
}

double RetrainPipeline::prepare(unsigned bits) {
    bits_ = bits;

    // Stage 1: float pretraining — run once; later prepare() calls for other
    // bitwidths restart from the same pretrained float model, mirroring the
    // paper's flow (one pretrained model, quantized to each width).
    approx::configure_approx_layers(*model_, approx::MultiplierConfig::exact_ste(bits),
                                    approx::ComputeMode::kFloat);
    if (!float_done_) {
        TrainConfig tc = config_.train;
        tc.epochs = config_.float_epochs;
        Trainer trainer(*model_, train_set_, test_set_, tc);
        trainer.train_only(config_.float_epochs);
        float_snapshot_ = snapshot(*model_);
        float_done_ = true;
    } else {
        restore(*model_, float_snapshot_);
    }

    // Stage 2: quantization-aware training with the accurate multiplier.
    approx::configure_approx_layers(*model_, approx::MultiplierConfig::exact_ste(bits),
                                    approx::ComputeMode::kQuantized);
    {
        TrainConfig tc = config_.train;
        tc.epochs = config_.qat_epochs;
        Trainer trainer(*model_, train_set_, test_set_, tc);
        trainer.train_only(config_.qat_epochs);
    }

    const EpochStats ref = evaluate(*model_, test_set_, config_.train.batch_size);
    reference_top1_ = ref.top1;
    reference_top5_ = ref.top5;
    qat_snapshot_ = snapshot(*model_);
    prepared_ = true;
    util::log_debug("pipeline prepared: reference top1=", reference_top1_);
    return reference_top1_;
}

RetrainOutcome RetrainPipeline::retrain(const appmult::AppMultLut& lut,
                                        const core::GradLut& grad) {
    assert(prepared_ && "call prepare() first");
    assert(lut.bits() == bits_ && grad.bits() == bits_);

    restore(*model_, qat_snapshot_);
    approx::MultiplierConfig config;
    config.lut = std::make_shared<appmult::AppMultLut>(lut);
    config.grad = std::make_shared<core::GradLut>(grad);
    approx::configure_approx_layers(*model_, config, approx::ComputeMode::kQuantized);

    RetrainOutcome outcome;
    const EpochStats initial = evaluate(*model_, test_set_, config_.train.batch_size);
    outcome.initial_top1 = initial.top1;
    outcome.initial_top5 = initial.top5;

    TrainConfig tc = config_.train;
    tc.epochs = config_.retrain_epochs;
    Trainer trainer(*model_, train_set_, test_set_, tc);
    outcome.history = trainer.run();

    // The last epoch's evaluation scored these weights already; evaluation
    // changes no weight or statistic, so only a run without epochs scores.
    const EpochStats fin = outcome.history.test.empty()
                               ? evaluate(*model_, test_set_, config_.train.batch_size)
                               : outcome.history.test.back();
    outcome.final_top1 = fin.top1;
    outcome.final_top5 = fin.top5;
    return outcome;
}

EpochStats RetrainPipeline::test_stats() {
    return evaluate(*model_, test_set_, config_.train.batch_size);
}

} // namespace amret::train
