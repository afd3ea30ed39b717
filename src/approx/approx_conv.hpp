/// \file approx_conv.hpp
/// \brief Convolution / linear layers with AppMult-simulated integer
///        arithmetic (Fig. 4) and LUT-based multiplier gradients (Eq. 9).
///
/// Each layer runs in one of two modes:
///   - kFloat: ordinary float convolution (used for pretraining);
///   - kQuantized: the paper's integer path — weights and activations are
///     affine-quantized (Eq. 7), every product is looked up in the AppMult
///     LUT, and the accumulated integer result is dequantized (Eq. 8).
/// In quantized mode the backward pass follows Eq. (9): the multiplier
/// gradient ∂AM/∂W (∂AM/∂X) comes from a precomputed GradLut — either the
/// STE baseline or the paper's difference-based approximation — and the
/// quantizer contributes its clamp-aware straight-through factor.
///
/// With the *exact* multiplier LUT and the STE GradLut, the quantized path
/// is mathematically identical to a fake-quantized float convolution; the
/// test suite pins this equivalence.
///
/// Per-invocation state (geometry, im2col columns, the scratch arena with
/// quantized codes/masks) lives in the caller's nn::Context; the layer
/// itself keeps only weights, the multiplier config, and the activation
/// observer (persistent calibration state). Both layers here run one
/// quantized LUT-GEMM core (GemmLayer); ApproxLinear is the 1x1 conv of its
/// matrix.
#pragma once

#include "appmult/appmult.hpp"
#include "core/grad_lut.hpp"
#include "kernels/lut_kernels.hpp"
#include "kernels/quantize.hpp"
#include "kernels/workspace.hpp"
#include "nn/module.hpp"
#include "quant/quant.hpp"

#include <memory>

namespace amret::approx {

/// Execution mode of an approximate layer.
enum class ComputeMode { kFloat, kQuantized };

/// Shared multiplier configuration: product LUT + gradient LUT, plus the
/// identity metadata (registry name, gradient HWS/mode) that per-layer
/// assignments thread through to engine descriptions and certificates.
/// An empty name means an ad-hoc config (hand-built LUTs, exact_ste()).
struct MultiplierConfig {
    std::shared_ptr<const appmult::AppMultLut> lut;
    std::shared_ptr<const core::GradLut> grad;
    std::string name;                                   ///< registry name, "" = ad-hoc
    unsigned hws = 0;                                   ///< gradient half-window size
    core::GradientMode grad_mode = core::GradientMode::kSte;

    [[nodiscard]] bool valid() const {
        return lut && grad && !lut->empty() && lut->bits() == grad->bits();
    }
    [[nodiscard]] unsigned bits() const { return lut ? lut->bits() : 0; }

    /// Exact multiplier with STE gradients at the given width (the QAT
    /// reference configuration).
    static MultiplierConfig exact_ste(unsigned bits);
};

/// Base of the approximate layers (ApproxConv2d, DepthwiseConv2d,
/// ApproxLinear): the weight and bias, the mode, the multiplier and the
/// activation observer, whose range is the layer's checkpoint state. The
/// model-wide helpers below and accel::analyze_workload reach every kind
/// through it.
class ApproxLayer : public nn::Module {
public:
    [[nodiscard]] nn::BatchCoupling coupling() const override;
    void batch_pre_pass(const tensor::Tensor& x) override;
    void collect_params(std::vector<nn::Param*>& out) override;
    void save_extra_state(std::vector<float>& out) const override;
    void load_extra_state(const float*& cursor) override;

    /// Switches float / quantized execution.
    void set_mode(ComputeMode mode) { mode_ = mode; }
    [[nodiscard]] ComputeMode mode() const { return mode_; }

    /// Installs the multiplier used in quantized mode.
    void set_multiplier(MultiplierConfig config);
    [[nodiscard]] const MultiplierConfig& multiplier() const { return mult_; }

    nn::Param weight; ///< (O, C, K, K) conv, (C, K, K) depthwise, (out, in) linear
    nn::Param bias;   ///< (O), (C), (out)

    /// Multiplications executed by the most recent forward call through
    /// \p ctx: its output positions times the weight count; 0 before any
    /// forward.
    [[nodiscard]] std::int64_t last_forward_macs(const nn::Context& ctx) const {
        return last_positions(ctx) * weight.value.numel();
    }

protected:
    /// Parameters "<prefix>.weight" and "<prefix>.bias".
    ApproxLayer(const std::string& prefix, tensor::Tensor w, tensor::Tensor b);

    /// Quantization parameters of the activation \p x at the multiplier's
    /// width. The observer is EMA-calibrated during training (standard fake
    /// quantization) and frozen in eval; frozen contexts rely on
    /// batch_pre_pass having fed it the full batch already.
    quant::QuantParams activation_params(const tensor::Tensor& x,
                                         const nn::Context& ctx);

    ComputeMode mode_ = ComputeMode::kFloat;
    MultiplierConfig mult_;

private:
    /// Output positions of the most recent forward through \p ctx.
    [[nodiscard]] virtual std::int64_t last_positions(const nn::Context& ctx) const = 0;

    quant::EmaObserver act_observer_;
};

/// Base of the two LUT-GEMM layers, ApproxConv2d and ApproxLinear, which
/// run one core over a conv geometry. A linear layer is the 1x1 conv of its
/// (batch, in_features) matrix (kernels::matrix_geom), whose row and depth
/// orders are the identity; the conv wraps the core in its position
/// gathers, scatters and col2im.
class GemmLayer : public ApproxLayer {
protected:
    using ApproxLayer::ApproxLayer;

    // Per-invocation state (nn::Context slot). Scratch (packed weights in
    // float mode; codes, masks, raw gradients in quantized mode) lives in
    // the embedded workspace arena: reset at the start of each forward,
    // buffers remain valid through the matching backward (DESIGN.md §10/§11).
    struct State {
        // The GEMM from the forward to its backward: the caller sets its
        // geometry; in quantized mode the forward fills its constants,
        // panels, row codes and masks.
        kernels::LutGemmArgs args;
        tensor::Tensor cols;    // float mode: (P, patch) columns
        kernels::Workspace ws;
        kernels::QuantView xq;  // row codes and mask (tap-major depth)
        kernels::QuantView wq;  // weight codes and mask, weights' order
    };

    /// The forward GEMM over st.args.geom into \p y, (P, O) position-major,
    /// with the bias. Float mode multiplies st.cols, which the caller fills.
    /// Quantized mode (Fig. 4): weight quantize (per-tensor, or per-channel
    /// with per_channel_) -> pack_conv_weight_panels -> quantize_conv_panels
    /// of the NCHW \p x -> lut_forward_blocked with the Eq. (8) correction.
    void forward_gemm(const tensor::Tensor& x, State& st, nn::Context& ctx,
                      float* y);

    /// The backward of the last forward from \p gyp, (P, O): accumulates the
    /// bias and weight gradients and writes the input gradient's (P, patch)
    /// columns to \p gcols, in im2col order in float mode. Quantized mode
    /// (Eq. 9): one lut_backward_rows, which folds the weight gradient and
    /// writes the masked in-image taps of \p gcols, tap-major; its
    /// out-of-image elements stay unwritten, and col2im_tap_major reads
    /// none.
    void backward_gemm(const float* gyp, State& st, nn::Context& ctx,
                       float* gcols);

    bool per_channel_ = false;

private:
    [[nodiscard]] std::int64_t last_positions(const nn::Context& ctx) const override;
};

/// 2-D convolution whose multiplications can be replaced by an AppMult.
class ApproxConv2d : public GemmLayer {
public:
    ApproxConv2d(std::int64_t in_ch, std::int64_t out_ch, std::int64_t kernel,
                 std::int64_t stride, std::int64_t pad, util::Rng& rng);

    tensor::Tensor forward(const tensor::Tensor& x, nn::Context& ctx) override;
    tensor::Tensor backward(const tensor::Tensor& gy, nn::Context& ctx) override;
    [[nodiscard]] std::string name() const override { return "ApproxConv2d"; }

    /// Per-output-channel weight quantization (each filter gets its own
    /// scale/zero-point, standard in production QAT). Default: per-tensor.
    void set_per_channel_weights(bool enabled) { per_channel_ = enabled; }
    [[nodiscard]] bool per_channel_weights() const { return per_channel_; }

    [[nodiscard]] std::int64_t in_channels() const { return in_ch_; }
    [[nodiscard]] std::int64_t out_channels() const { return out_ch_; }
    [[nodiscard]] std::int64_t kernel() const { return kernel_; }
    [[nodiscard]] std::int64_t stride() const { return stride_; }
    [[nodiscard]] std::int64_t padding() const { return pad_; }

private:
    std::int64_t in_ch_, out_ch_, kernel_, stride_, pad_;
};

/// Fully connected layer with the same two modes (provided for completeness;
/// the paper approximates conv layers only and the stock models keep their
/// classifier in kFloat).
class ApproxLinear : public GemmLayer {
public:
    ApproxLinear(std::int64_t in_features, std::int64_t out_features, util::Rng& rng);

    tensor::Tensor forward(const tensor::Tensor& x, nn::Context& ctx) override;
    tensor::Tensor backward(const tensor::Tensor& gy, nn::Context& ctx) override;
    [[nodiscard]] std::string name() const override { return "ApproxLinear"; }

private:
    std::int64_t in_features_, out_features_;
};

/// Applies \p config and \p mode to every approximate layer in \p root.
void configure_approx_layers(nn::Module& root, const MultiplierConfig& config,
                             ComputeMode mode);

/// Sets only the gradient LUT on every approximate layer (used to compare
/// gradient estimators over the same forward behaviour).
void set_gradient_luts(nn::Module& root, std::shared_ptr<const core::GradLut> grad);

} // namespace amret::approx
