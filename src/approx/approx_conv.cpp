#include "approx/approx_conv.hpp"

#include "kernels/gemm.hpp"
#include "kernels/im2col.hpp"
#include "kernels/lut_kernels.hpp"
#include "kernels/tuning.hpp"

#include <cassert>

namespace amret::approx {

using tensor::ConvGeom;
using tensor::Shape;
using tensor::Tensor;
namespace tune = kernels::tune;

MultiplierConfig MultiplierConfig::exact_ste(unsigned bits) {
    MultiplierConfig config;
    config.lut = std::make_shared<appmult::AppMultLut>(appmult::AppMultLut::exact(bits));
    config.grad = std::make_shared<core::GradLut>(core::build_ste_grad(bits));
    return config;
}

// ------------------------------------------------------------- ApproxLayer

ApproxLayer::ApproxLayer(const std::string& prefix, Tensor w, Tensor b)
    : weight(prefix + ".weight", std::move(w)), bias(prefix + ".bias", std::move(b)) {}

void ApproxLayer::set_multiplier(MultiplierConfig config) {
    assert(config.valid());
    mult_ = std::move(config);
}

void ApproxLayer::collect_params(std::vector<nn::Param*>& out) {
    out.push_back(&weight);
    out.push_back(&bias);
}

void ApproxLayer::save_extra_state(std::vector<float>& out) const {
    out.push_back(act_observer_.lo());
    out.push_back(act_observer_.hi());
    out.push_back(act_observer_.initialized() ? 1.0f : 0.0f);
}

void ApproxLayer::load_extra_state(const float*& cursor) {
    const float lo = *cursor++;
    const float hi = *cursor++;
    const bool init = *cursor++ != 0.0f;
    act_observer_.set_range(lo, hi, init);
}

nn::BatchCoupling ApproxLayer::coupling() const {
    // The quantized training forward updates the activation observer's EMA,
    // a batch-level statistic that must fold exactly once per step; compute
    // itself is per-sample. Float mode (and frozen eval) is sample-local.
    return mode_ == ComputeMode::kQuantized && training_
               ? nn::BatchCoupling::kStatsCoupled
               : nn::BatchCoupling::kSampleLocal;
}

void ApproxLayer::batch_pre_pass(const Tensor& x) {
    if (mode_ == ComputeMode::kQuantized &&
        (training_ || !act_observer_.initialized()))
        act_observer_.observe(x);
}

quant::QuantParams ApproxLayer::activation_params(const Tensor& x,
                                                  const nn::Context& ctx) {
    if ((training_ && !ctx.observers_frozen()) || !act_observer_.initialized())
        act_observer_.observe(x);
    return act_observer_.params(mult_.bits());
}

// --------------------------------------------------------------- GemmLayer

std::int64_t GemmLayer::last_positions(const nn::Context& ctx) const {
    const State* st = ctx.peek<State>(*this);
    return st ? st->args.p() : 0;
}

void GemmLayer::forward_gemm(const Tensor& x, State& st, nn::Context& ctx,
                             float* y) {
    kernels::LutGemmArgs& a = st.args;
    const std::int64_t o = weight.value.dim(0);
    const std::int64_t positions = a.p(), patch = a.k();
    // New allocation epoch: everything the forward puts in the arena stays
    // valid through the matching backward.
    st.ws.reset();
    if (mode_ == ComputeMode::kFloat) {
        kernels::gemm_nt(st.cols.data(), weight.value.data(), positions, o, patch,
                         y, st.ws, {bias.value.data(), false});
        return;
    }
    assert(mult_.valid() && "set_multiplier() before quantized forward");
    a.bits = mult_.bits();
    a.lut = mult_.lut->table().data();
    a.lut_planes = mult_.lut->planes();
    a.o = o;

    // Weight quantization parameters track the current weights each step;
    // per-channel, each output channel (filter) gets its own.
    a.scale_w_per_o = nullptr;
    a.zero_w_per_o = nullptr;
    if (per_channel_) {
        float* scales = st.ws.alloc<float>(o);
        std::int32_t* zeros = st.ws.alloc<std::int32_t>(o);
        st.wq = kernels::quantize_weights_per_channel(weight.value.data(), o, patch,
                                                      a.bits, scales, zeros, st.ws);
        a.scale_w_per_o = scales;
        a.zero_w_per_o = zeros;
    } else {
        st.wq = kernels::quantize_weights_per_tensor(weight.value.data(), o * patch,
                                                     a.bits, st.ws);
    }
    const quant::QuantParams xparams = activation_params(x, ctx);

    // Weight codes are re-packed into pre-shifted, tap-major panels with,
    // for a padded conv, their padding constant against the code
    // out-of-image taps quantize to (that of 0.0f), and the activation codes
    // are produced by the fused im2col+quantize packer on the forward's
    // chunks — the (P, patch) float column buffer never exists.
    const kernels::PanelPlan wplan =
        kernels::make_panel_plan(o, patch, tune::kTileO, tune::kTileK);
    a.w = kernels::pack_conv_weight_panels(
        st.wq.codes, a.bits, wplan, a.geom, a.lut,
        static_cast<std::uint16_t>(xparams.quantize(0.0f)), st.ws);
    const kernels::PanelPlan xplan =
        kernels::make_conv_act_plan(positions, patch, tune::kTileP, tune::kTileK);
    const kernels::QuantPanels xq = kernels::quantize_conv_panels(
        x.data(), a.geom, xparams, xplan, kernels::forward_grain(xplan, o), st.ws);
    st.xq = xq.rows;
    a.x = xq.panels;
    a.xq = st.xq.codes;
    a.x_in_range = st.xq.in_range;
    a.wq = st.wq.codes;
    a.w_in_range = st.wq.in_range;
    a.scale_w = st.wq.params.scale;
    a.scale_x = xparams.scale;
    a.zero_w = static_cast<std::int32_t>(st.wq.params.zero_point);
    a.zero_x = static_cast<std::int32_t>(xparams.zero_point);
    kernels::lut_forward_blocked(a, bias.value.data(), y);
}

void GemmLayer::backward_gemm(const float* gyp, State& st, nn::Context& ctx,
                              float* gcols) {
    const kernels::LutGemmArgs& a = st.args;
    const std::int64_t o = weight.value.dim(0);
    const std::int64_t p = a.p(), patch = a.k();
    kernels::accumulate_bias_grad(gyp, p, o, ctx.grad(bias).data());
    if (mode_ == ComputeMode::kFloat) {
        // dW = gyp^T @ cols, (O, patch) laid out as the weights; the input
        // gradient's columns are gyp @ W.
        Tensor dw(weight.value.shape());
        kernels::gemm_tn(gyp, st.cols.data(), o, patch, p, dw.data());
        ctx.grad(weight).add_(dw);
        kernels::gemm_nn(gyp, weight.value.data(), p, patch, o, gcols);
        return;
    }

    kernels::lut_backward_rows(a, gyp, mult_.grad->dw_table().data(),
                               mult_.grad->dx_t_table().data(),
                               ctx.grad(weight).data(), gcols, st.ws);
}

// ------------------------------------------------------------ ApproxConv2d

ApproxConv2d::ApproxConv2d(std::int64_t in_ch, std::int64_t out_ch,
                           std::int64_t kernel, std::int64_t stride,
                           std::int64_t pad, util::Rng& rng)
    : GemmLayer("conv",
                Tensor::he_init(Shape{out_ch, in_ch, kernel, kernel},
                                in_ch * kernel * kernel, rng),
                Tensor::zeros(Shape{out_ch})),
      in_ch_(in_ch), out_ch_(out_ch), kernel_(kernel), stride_(stride), pad_(pad) {}

Tensor ApproxConv2d::forward(const Tensor& x, nn::Context& ctx) {
    assert(x.rank() == 4 && x.dim(1) == in_ch_);
    State& st = ctx.state<State>(*this);
    ConvGeom& g = st.args.geom;
    g = ConvGeom{x.dim(0), in_ch_, x.dim(2), x.dim(3), kernel_, stride_, pad_};
    if (mode_ == ComputeMode::kFloat) st.cols = kernels::im2col(x, g);
    Tensor po(Shape{g.positions(), out_ch_});
    forward_gemm(x, st, ctx, po.data());
    Tensor y(Shape{g.batch, out_ch_, g.out_h(), g.out_w()});
    kernels::scatter_positions(po.data(), g.batch, out_ch_, g.out_h(), g.out_w(),
                               y.data());
    return y;
}

Tensor ApproxConv2d::backward(const Tensor& gy, nn::Context& ctx) {
    State& st = ctx.state<State>(*this);
    const ConvGeom& g = st.args.geom;
    float* gyp = st.ws.alloc<float>(g.positions() * out_ch_);
    kernels::gather_positions(gy.data(), g.batch, out_ch_, g.out_h(), g.out_w(),
                              gyp);
    float* gcols = st.ws.alloc<float>(g.positions() * g.patch());
    backward_gemm(gyp, st, ctx, gcols);
    Tensor gx(Shape{g.batch, g.in_ch, g.in_h, g.in_w});
    if (mode_ == ComputeMode::kFloat)
        kernels::col2im(gcols, g, gx.data());
    else
        kernels::col2im_tap_major(gcols, g, gx.data());
    return gx;
}

// ----------------------------------------------------------- ApproxLinear

ApproxLinear::ApproxLinear(std::int64_t in_features, std::int64_t out_features,
                           util::Rng& rng)
    : GemmLayer("alinear",
                Tensor::he_init(Shape{out_features, in_features}, in_features, rng),
                Tensor::zeros(Shape{out_features})),
      in_features_(in_features), out_features_(out_features) {}

Tensor ApproxLinear::forward(const Tensor& x, nn::Context& ctx) {
    assert(x.rank() == 2 && x.dim(1) == in_features_);
    State& st = ctx.state<State>(*this);
    // The 1x1 conv of the (batch, in) matrix: its columns are x itself.
    st.args.geom = kernels::matrix_geom(x.dim(0), in_features_);
    if (mode_ == ComputeMode::kFloat) st.cols = x;
    Tensor y(Shape{x.dim(0), out_features_});
    forward_gemm(x, st, ctx, y.data());
    return y;
}

Tensor ApproxLinear::backward(const Tensor& gy, nn::Context& ctx) {
    State& st = ctx.state<State>(*this);
    assert(gy.rank() == 2 && gy.dim(0) == st.args.geom.batch);
    Tensor gx(Shape{st.args.geom.batch, in_features_});
    backward_gemm(gy.data(), st, ctx, gx.data());
    return gx;
}

// ------------------------------------------------------------- utilities

void configure_approx_layers(nn::Module& root, const MultiplierConfig& config,
                             ComputeMode mode) {
    root.visit([&](nn::Module& m) {
        if (auto* layer = dynamic_cast<ApproxLayer*>(&m)) {
            layer->set_multiplier(config);
            layer->set_mode(mode);
        }
    });
}

void set_gradient_luts(nn::Module& root, std::shared_ptr<const core::GradLut> grad) {
    root.visit([&](nn::Module& m) {
        if (auto* layer = dynamic_cast<ApproxLayer*>(&m)) {
            MultiplierConfig config = layer->multiplier();
            config.grad = grad;
            layer->set_multiplier(std::move(config));
        }
    });
}

} // namespace amret::approx
