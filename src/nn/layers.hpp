/// \file layers.hpp
/// \brief Standard float layers: Linear, BatchNorm2d, ReLU, pooling, Flatten.
///
/// Convolutions live in `approx/approx_conv.hpp` — every conv in the models
/// is an ApproxConv2d that can run in float, quantized-exact, or quantized-
/// approximate mode, matching the paper's flow where conv layers are the
/// approximated ones and everything else stays float.
///
/// All per-invocation state (cached activations, pooling argmax indices,
/// dropout masks) lives in the caller's nn::Context; the layer objects hold
/// only parameters and persistent statistics, so they are re-entrant.
#pragma once

#include "kernels/workspace.hpp"
#include "nn/module.hpp"

#include <cstdint>

namespace amret::nn {

/// Fully connected layer y = x W^T + b for x: (N, in), W: (out, in).
class Linear : public Module {
public:
    Linear(std::int64_t in_features, std::int64_t out_features, util::Rng& rng);

    tensor::Tensor forward(const tensor::Tensor& x, Context& ctx) override;
    tensor::Tensor backward(const tensor::Tensor& gy, Context& ctx) override;
    [[nodiscard]] BatchCoupling coupling() const override {
        return BatchCoupling::kSampleLocal;
    }
    void collect_params(std::vector<Param*>& out) override;
    [[nodiscard]] std::string name() const override { return "Linear"; }

    Param weight; ///< (out, in)
    Param bias;   ///< (out)

private:
    struct State {
        tensor::Tensor x;
        kernels::Workspace ws; ///< forward scratch: the packed weight panels
    };
};

/// 2-D batch normalization over (N, C, H, W) with running statistics.
class BatchNorm2d : public Module {
public:
    explicit BatchNorm2d(std::int64_t channels, float momentum = 0.9f,
                         float eps = 1e-5f);

    tensor::Tensor forward(const tensor::Tensor& x, Context& ctx) override;
    tensor::Tensor backward(const tensor::Tensor& gy, Context& ctx) override;
    /// Training-mode statistics mix the whole batch; eval uses the frozen
    /// running estimates and is per-sample.
    [[nodiscard]] BatchCoupling coupling() const override {
        return training_ ? BatchCoupling::kBatchCoupled
                         : BatchCoupling::kSampleLocal;
    }
    void collect_params(std::vector<Param*>& out) override;
    void save_extra_state(std::vector<float>& out) const override;
    void load_extra_state(const float*& cursor) override;
    [[nodiscard]] std::string name() const override { return "BatchNorm2d"; }

    Param gamma; ///< (C)
    Param beta;  ///< (C)

    [[nodiscard]] const tensor::Tensor& running_mean() const { return running_mean_; }
    [[nodiscard]] const tensor::Tensor& running_var() const { return running_var_; }

private:
    struct State {
        tensor::Tensor xhat;
        tensor::Tensor invstd; // (C)
        std::int64_t n = 0, h = 0, w = 0;
    };

    std::int64_t channels_;
    float momentum_, eps_;
    tensor::Tensor running_mean_, running_var_;
};

/// Elementwise max(x, 0).
class ReLU : public Module {
public:
    tensor::Tensor forward(const tensor::Tensor& x, Context& ctx) override;
    tensor::Tensor backward(const tensor::Tensor& gy, Context& ctx) override;
    [[nodiscard]] BatchCoupling coupling() const override {
        return BatchCoupling::kSampleLocal;
    }
    [[nodiscard]] std::string name() const override { return "ReLU"; }

private:
    struct State {
        std::vector<std::uint8_t> mask;
    };
};

/// Non-overlapping max pooling with kernel == stride.
class MaxPool2d : public Module {
public:
    explicit MaxPool2d(std::int64_t kernel = 2) : kernel_(kernel) {}

    tensor::Tensor forward(const tensor::Tensor& x, Context& ctx) override;
    tensor::Tensor backward(const tensor::Tensor& gy, Context& ctx) override;
    [[nodiscard]] BatchCoupling coupling() const override {
        return BatchCoupling::kSampleLocal;
    }
    [[nodiscard]] std::string name() const override { return "MaxPool2d"; }
    /// Window side, equal to the stride.
    [[nodiscard]] std::int64_t kernel() const { return kernel_; }

private:
    struct State {
        tensor::Shape in_shape;
        std::vector<std::int64_t> argmax;
    };

    std::int64_t kernel_;
};

/// Non-overlapping average pooling with kernel == stride.
class AvgPool2d : public Module {
public:
    explicit AvgPool2d(std::int64_t kernel = 2) : kernel_(kernel) {}

    tensor::Tensor forward(const tensor::Tensor& x, Context& ctx) override;
    tensor::Tensor backward(const tensor::Tensor& gy, Context& ctx) override;
    [[nodiscard]] BatchCoupling coupling() const override {
        return BatchCoupling::kSampleLocal;
    }
    [[nodiscard]] std::string name() const override { return "AvgPool2d"; }
    /// Window side, equal to the stride.
    [[nodiscard]] std::int64_t kernel() const { return kernel_; }

private:
    struct State {
        tensor::Shape in_shape;
    };

    std::int64_t kernel_;
};

/// Inverted dropout: active in training mode only; scales kept activations
/// by 1/(1-p) so evaluation needs no correction. Randomness comes from the
/// Context's RNG stream, so reproducibility is controlled by the caller
/// (the trainer reseeds per step/microbatch).
class Dropout : public Module {
public:
    explicit Dropout(float p = 0.5f) : p_(p) {}

    tensor::Tensor forward(const tensor::Tensor& x, Context& ctx) override;
    tensor::Tensor backward(const tensor::Tensor& gy, Context& ctx) override;
    [[nodiscard]] BatchCoupling coupling() const override {
        return BatchCoupling::kSampleLocal;
    }
    [[nodiscard]] std::string name() const override { return "Dropout"; }

private:
    struct State {
        std::vector<float> mask;
    };

    float p_;
};

/// Global average pooling (N, C, H, W) -> (N, C).
class GlobalAvgPool : public Module {
public:
    tensor::Tensor forward(const tensor::Tensor& x, Context& ctx) override;
    tensor::Tensor backward(const tensor::Tensor& gy, Context& ctx) override;
    [[nodiscard]] BatchCoupling coupling() const override {
        return BatchCoupling::kSampleLocal;
    }
    [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }

private:
    struct State {
        tensor::Shape in_shape;
    };
};

/// Collapses all non-batch dimensions: (N, ...) -> (N, prod).
class Flatten : public Module {
public:
    tensor::Tensor forward(const tensor::Tensor& x, Context& ctx) override;
    tensor::Tensor backward(const tensor::Tensor& gy, Context& ctx) override;
    [[nodiscard]] BatchCoupling coupling() const override {
        return BatchCoupling::kSampleLocal;
    }
    [[nodiscard]] std::string name() const override { return "Flatten"; }

private:
    struct State {
        tensor::Shape in_shape;
    };
};

} // namespace amret::nn
