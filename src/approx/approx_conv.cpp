#include "approx/approx_conv.hpp"

#include "approx/depthwise.hpp"
#include "kernels/gemm.hpp"
#include "kernels/im2col.hpp"
#include "kernels/lut_kernels.hpp"
#include "kernels/tuning.hpp"
#include "runtime/parallel.hpp"

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

// ------------------------------------------------------------ ApproxConv2d

ApproxConv2d::ApproxConv2d(std::int64_t in_ch, std::int64_t out_ch,
                           std::int64_t kernel, std::int64_t stride,
                           std::int64_t pad, util::Rng& rng)
    : weight("conv.weight", Tensor::he_init(Shape{out_ch, in_ch, kernel, kernel},
                                            in_ch * kernel * kernel, rng)),
      bias("conv.bias", Tensor::zeros(Shape{out_ch})),
      in_ch_(in_ch), out_ch_(out_ch), kernel_(kernel), stride_(stride), pad_(pad) {}

void ApproxConv2d::set_multiplier(MultiplierConfig config) {
    assert(config.valid());
    mult_ = std::move(config);
}

void ApproxConv2d::collect_params(std::vector<nn::Param*>& out) {
    out.push_back(&weight);
    out.push_back(&bias);
}

void ApproxConv2d::save_extra_state(std::vector<float>& out) const {
    out.push_back(act_observer_.lo());
    out.push_back(act_observer_.hi());
    out.push_back(act_observer_.initialized() ? 1.0f : 0.0f);
}

void ApproxConv2d::load_extra_state(const float*& cursor) {
    const float lo = *cursor++;
    const float hi = *cursor++;
    const bool init = *cursor++ != 0.0f;
    act_observer_.set_range(lo, hi, init);
}

nn::BatchCoupling ApproxConv2d::coupling() const {
    // The quantized training forward updates the activation observer's EMA,
    // a batch-level statistic that must fold exactly once per step; compute
    // itself is per-sample. Float mode (and frozen eval) is sample-local.
    return mode_ == ComputeMode::kQuantized && training_
               ? nn::BatchCoupling::kStatsCoupled
               : nn::BatchCoupling::kSampleLocal;
}

void ApproxConv2d::batch_pre_pass(const Tensor& x) {
    if (mode_ == ComputeMode::kQuantized &&
        (training_ || !act_observer_.initialized()))
        act_observer_.observe(x);
}

std::int64_t ApproxConv2d::last_forward_macs(const nn::Context& ctx) const {
    const State* st = ctx.peek<State>(*this);
    if (!st || st->geom.batch == 0) return 0;
    return st->geom.positions() * st->geom.patch() * out_ch_;
}

Tensor ApproxConv2d::forward(const Tensor& x, nn::Context& ctx) {
    assert(x.rank() == 4 && x.dim(1) == in_ch_);
    State& st = ctx.state<State>(*this);
    st.geom = ConvGeom{x.dim(0), in_ch_, x.dim(2), x.dim(3), kernel_, stride_, pad_};
    return mode_ == ComputeMode::kFloat ? forward_float(x, st, ctx)
                                        : forward_quant(x, st, ctx);
}

Tensor ApproxConv2d::backward(const Tensor& gy, nn::Context& ctx) {
    State& st = ctx.state<State>(*this);
    return mode_ == ComputeMode::kFloat ? backward_float(gy, st, ctx)
                                        : backward_quant(gy, st, ctx);
}

Tensor ApproxConv2d::forward_float(const Tensor& x, State& st, nn::Context&) {
    st.cols = kernels::im2col(x, st.geom);
    const std::int64_t positions = st.geom.positions();
    Tensor po(Shape{positions, out_ch_});
    st.ws.reset();
    kernels::gemm_nt(st.cols.data(), weight.value.data(), positions, out_ch_,
                     st.geom.patch(), po.data(), st.ws, {bias.value.data(), false});
    Tensor y(Shape{st.geom.batch, out_ch_, st.geom.out_h(), st.geom.out_w()});
    kernels::scatter_positions(po.data(), st.geom.batch, out_ch_, st.geom.out_h(),
                               st.geom.out_w(), y.data());
    return y;
}

Tensor ApproxConv2d::backward_float(const Tensor& gy, State& st, nn::Context& ctx) {
    const std::int64_t positions = st.geom.positions(), patch = st.geom.patch();
    Tensor gyp(Shape{positions, out_ch_});
    kernels::gather_positions(gy.data(), st.geom.batch, out_ch_, st.geom.out_h(),
                              st.geom.out_w(), gyp.data());
    // Bias gradient: column sums of gyp.
    kernels::accumulate_bias_grad(gyp.data(), positions, out_ch_,
                                  ctx.grad(bias).data());
    // dW = gyp^T @ cols, (O, patch) laid out as (O, C, K, K).
    Tensor dw(weight.value.shape());
    kernels::gemm_tn(gyp.data(), st.cols.data(), out_ch_, patch, positions,
                     dw.data());
    ctx.grad(weight).add_(dw);
    // dx = col2im(gyp @ W).
    Tensor dcols(Shape{positions, patch});
    kernels::gemm_nn(gyp.data(), weight.value.data(), positions, patch, out_ch_,
                     dcols.data());
    return kernels::col2im(dcols, st.geom);
}

Tensor ApproxConv2d::forward_quant(const Tensor& x, State& st, nn::Context& ctx) {
    assert(mult_.valid() && "set_multiplier() before quantized forward");
    const unsigned bits = mult_.bits();
    const std::int64_t patch = st.geom.patch();

    // New allocation epoch: everything quantized-forward puts in the arena
    // (codes, masks, columns) stays valid through the matching backward.
    st.ws.reset();

    // Weight quantization parameters track the current weights each step.
    quant::QuantParams wparams{};
    if (per_channel_) {
        // Each output channel (filter) gets its own affine parameters.
        st.wscale_per_o = st.ws.alloc<float>(out_ch_);
        st.wzero_per_o = st.ws.alloc<std::int32_t>(out_ch_);
        st.wq = kernels::quantize_weights_per_channel(weight.value.data(), out_ch_,
                                                      patch, bits, st.wscale_per_o,
                                                      st.wzero_per_o, st.ws);
    } else {
        wparams = quant::choose_params(weight.value.min(), weight.value.max(), bits);
        st.wq = kernels::quantize_into(weight.value.data(), out_ch_ * patch, wparams,
                                       st.ws);
    }

    // Activation parameters: EMA-calibrated during training (standard fake
    // quantization); frozen running range in eval. Frozen contexts rely on
    // batch_pre_pass having fed the observer the full batch already.
    if ((training_ && !ctx.observers_frozen()) || !act_observer_.initialized())
        act_observer_.observe(x);
    const quant::QuantParams xparams = act_observer_.params(bits);

    // Weight codes are re-packed into pre-shifted, tap-major panels with
    // their padding constant, and the activation codes are produced by the
    // fused im2col+quantize packer — the full (P, patch) float column buffer
    // never exists.
    const std::int64_t positions = st.geom.positions();
    Tensor po(Shape{positions, out_ch_});
    // Out-of-image taps quantize 0.0f (quantize_im2col_panels).
    const kernels::WeightPanels wpan = kernels::pack_conv_weight_panels(
        st.wq.codes, bits,
        kernels::make_panel_plan(out_ch_, patch, tune::kTileO, tune::kTileK),
        kernel_ * kernel_, mult_.lut->table().data(),
        static_cast<std::uint16_t>(xparams.quantize(0.0f)), st.ws);
    const kernels::QuantPanels xq = kernels::quantize_conv_panels(
        x.data(), st.geom, xparams,
        kernels::make_conv_act_plan(positions, patch, tune::kTileP, tune::kTileK),
        st.ws);
    st.xq = kernels::QuantView{xq.codes, xq.in_range, xparams, positions * patch};

    kernels::BlockedGemmArgs args;
    args.bits = bits;
    args.lut = mult_.lut->table().data();
    args.w = wpan;
    args.x = xq.panels;
    args.o = out_ch_;
    args.p = positions;
    args.k = patch;
    args.scale_x = xparams.scale;
    args.zero_x = static_cast<std::int32_t>(xparams.zero_point);
    if (per_channel_) {
        args.scale_w_per_o = st.wscale_per_o;
        args.zero_w_per_o = st.wzero_per_o;
    } else {
        args.scale_w = wparams.scale;
        args.zero_w = static_cast<std::int32_t>(wparams.zero_point);
    }
    kernels::lut_forward_blocked(args, bias.value.data(), po.data(), st.ws);
    Tensor y(Shape{st.geom.batch, out_ch_, st.geom.out_h(), st.geom.out_w()});
    kernels::scatter_positions(po.data(), st.geom.batch, out_ch_, st.geom.out_h(),
                               st.geom.out_w(), y.data());
    return y;
}

Tensor ApproxConv2d::backward_quant(const Tensor& gy, State& st, nn::Context& ctx) {
    const std::int64_t p = st.geom.positions(), patch = st.geom.patch();
    float* gyp = st.ws.alloc<float>(p * out_ch_);
    kernels::gather_positions(gy.data(), st.geom.batch, out_ch_, st.geom.out_h(),
                              st.geom.out_w(), gyp);
    kernels::accumulate_bias_grad(gyp, p, out_ch_, ctx.grad(bias).data());

    const float scale_x = st.xq.params.scale;
    float* gw_raw = st.ws.alloc<float>(out_ch_ * patch);
    float* gx_raw = st.ws.alloc<float>(p * patch);
    runtime::parallel_for(0, out_ch_ * patch,
                          runtime::grain_for(out_ch_ * patch,
                                             tune::kGrainElementwiseWide),
                          [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) gw_raw[i] = 0.0f;
    });
    runtime::parallel_for(0, p * patch,
                          runtime::grain_for(p * patch,
                                             tune::kGrainElementwiseWide),
                          [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) gx_raw[i] = 0.0f;
    });
    kernels::LutGemmArgs args;
    args.bits = mult_.bits();
    args.lut = mult_.lut->table().data();
    args.wq = st.wq.codes;
    args.xq = st.xq.codes;
    args.o = out_ch_;
    args.p = p;
    args.k = patch;
    args.scale_x = scale_x;
    args.zero_x = static_cast<std::int32_t>(st.xq.params.zero_point);
    if (per_channel_) {
        args.scale_w_per_o = st.wscale_per_o;
        args.zero_w_per_o = st.wzero_per_o;
    } else {
        args.scale_w = st.wq.params.scale;
        args.zero_w = static_cast<std::int32_t>(st.wq.params.zero_point);
    }
    kernels::lut_backward_rows(args, gyp, mult_.grad->dw_table().data(),
                               mult_.grad->dx_t_table().data(), gw_raw, gx_raw,
                               st.ws);

    // Eq. (9): fold in the quantizer derivative. dW/dw = 1/s_w inside the
    // clamp range (0 outside); dy/dY contributed s_w*s_x, so the weight
    // gradient scale is s_x. The activation gradient's s_w factor was folded
    // into gx_raw by the kernel (it varies per row in per-channel mode);
    // only the clamp mask remains.
    float* wg = ctx.grad(weight).data();
    runtime::parallel_for(0, out_ch_ * patch,
                          runtime::grain_for(out_ch_ * patch,
                                             tune::kGrainElementwise),
                          [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
            if (st.wq.in_range[i]) wg[i] += scale_x * gw_raw[i];
        }
    });
    runtime::parallel_for(0, p * patch,
                          runtime::grain_for(p * patch,
                                             tune::kGrainElementwise),
                          [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
            if (!st.xq.in_range[i]) gx_raw[i] = 0.0f;
        }
    });
    Tensor gx(Shape{st.geom.batch, st.geom.in_ch, st.geom.in_h, st.geom.in_w});
    kernels::col2im(gx_raw, st.geom, gx.data());
    return gx;
}

// ----------------------------------------------------------- ApproxLinear

ApproxLinear::ApproxLinear(std::int64_t in_features, std::int64_t out_features,
                           util::Rng& rng)
    : weight("alinear.weight",
             Tensor::he_init(Shape{out_features, in_features}, in_features, rng)),
      bias("alinear.bias", Tensor::zeros(Shape{out_features})),
      in_features_(in_features), out_features_(out_features) {}

void ApproxLinear::set_multiplier(MultiplierConfig config) {
    assert(config.valid());
    mult_ = std::move(config);
}

void ApproxLinear::collect_params(std::vector<nn::Param*>& out) {
    out.push_back(&weight);
    out.push_back(&bias);
}

void ApproxLinear::save_extra_state(std::vector<float>& out) const {
    out.push_back(act_observer_.lo());
    out.push_back(act_observer_.hi());
    out.push_back(act_observer_.initialized() ? 1.0f : 0.0f);
}

void ApproxLinear::load_extra_state(const float*& cursor) {
    const float lo = *cursor++;
    const float hi = *cursor++;
    const bool init = *cursor++ != 0.0f;
    act_observer_.set_range(lo, hi, init);
}

nn::BatchCoupling ApproxLinear::coupling() const {
    return mode_ == ComputeMode::kQuantized && training_
               ? nn::BatchCoupling::kStatsCoupled
               : nn::BatchCoupling::kSampleLocal;
}

void ApproxLinear::batch_pre_pass(const Tensor& x) {
    if (mode_ == ComputeMode::kQuantized &&
        (training_ || !act_observer_.initialized()))
        act_observer_.observe(x);
}

std::int64_t ApproxLinear::last_forward_macs(const nn::Context& ctx) const {
    const State* st = ctx.peek<State>(*this);
    return st ? st->batch * in_features_ * out_features_ : 0;
}

Tensor ApproxLinear::forward(const Tensor& x, nn::Context& ctx) {
    assert(x.rank() == 2 && x.dim(1) == in_features_);
    State& st = ctx.state<State>(*this);
    st.batch = x.dim(0);
    if (mode_ == ComputeMode::kFloat) {
        st.x = x;
        Tensor y(Shape{st.batch, out_features_});
        st.ws.reset();
        kernels::gemm_nt(x.data(), weight.value.data(), st.batch, out_features_,
                         in_features_, y.data(), st.ws, {bias.value.data(), false});
        return y;
    }

    assert(mult_.valid());
    const unsigned bits = mult_.bits();
    st.ws.reset();
    const quant::QuantParams wparams =
        quant::choose_params(weight.value.min(), weight.value.max(), bits);
    st.wq = kernels::quantize_into(weight.value.data(),
                                   out_features_ * in_features_, wparams, st.ws);
    if ((training_ && !ctx.observers_frozen()) || !act_observer_.initialized())
        act_observer_.observe(x);
    const quant::QuantParams xparams = act_observer_.params(bits);

    Tensor y(Shape{st.batch, out_features_});
    const kernels::WeightPanels wpan = kernels::pack_weight_panels(
        st.wq.codes, bits,
        kernels::make_panel_plan(out_features_, in_features_, tune::kTileO,
                                 tune::kTileK),
        st.ws);
    const kernels::QuantPanels xq = kernels::quantize_panels(
        x.data(), xparams,
        kernels::make_panel_plan(st.batch, in_features_, tune::kTileP, tune::kTileK),
        st.ws);
    st.xq = kernels::QuantView{xq.codes, xq.in_range, xparams,
                               st.batch * in_features_};

    kernels::BlockedGemmArgs args;
    args.bits = bits;
    args.lut = mult_.lut->table().data();
    args.w = wpan;
    args.x = xq.panels;
    args.o = out_features_;
    args.p = st.batch;
    args.k = in_features_;
    args.scale_w = wparams.scale;
    args.scale_x = xparams.scale;
    args.zero_w = static_cast<std::int32_t>(wparams.zero_point);
    args.zero_x = static_cast<std::int32_t>(xparams.zero_point);
    kernels::lut_forward_blocked(args, bias.value.data(), y.data(), st.ws);
    return y;
}

Tensor ApproxLinear::backward(const Tensor& gy, nn::Context& ctx) {
    State& st = ctx.state<State>(*this);
    assert(gy.rank() == 2 && gy.dim(0) == st.batch);
    kernels::accumulate_bias_grad(gy.data(), st.batch, out_features_,
                                  ctx.grad(bias).data());

    if (mode_ == ComputeMode::kFloat) {
        Tensor dw(weight.value.shape());
        kernels::gemm_tn(gy.data(), st.x.data(), out_features_, in_features_,
                         st.batch, dw.data());
        ctx.grad(weight).add_(dw);
        Tensor dx(Shape{st.batch, in_features_});
        kernels::gemm_nn(gy.data(), weight.value.data(), st.batch, in_features_,
                         out_features_, dx.data());
        return dx;
    }

    const float scale_x = st.xq.params.scale;
    const std::int64_t nw = out_features_ * in_features_;
    float* gw_raw = st.ws.alloc<float>(nw);
    runtime::parallel_for(0, nw,
                          runtime::grain_for(nw, tune::kGrainElementwiseWide),
                          [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) gw_raw[i] = 0.0f;
    });
    Tensor gx(Shape{st.batch, in_features_}); // zero-initialized
    kernels::LutGemmArgs args;
    args.bits = mult_.bits();
    args.lut = mult_.lut->table().data();
    args.wq = st.wq.codes;
    args.xq = st.xq.codes;
    args.o = out_features_;
    args.p = st.batch;
    args.k = in_features_;
    args.scale_w = st.wq.params.scale;
    args.scale_x = scale_x;
    args.zero_w = static_cast<std::int32_t>(st.wq.params.zero_point);
    args.zero_x = static_cast<std::int32_t>(st.xq.params.zero_point);
    kernels::lut_backward_rows(args, gy.data(), mult_.grad->dw_table().data(),
                               mult_.grad->dx_t_table().data(), gw_raw, gx.data(),
                               st.ws);

    float* wg = ctx.grad(weight).data();
    runtime::parallel_for(0, nw,
                          runtime::grain_for(nw, tune::kGrainElementwise),
                          [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
            if (st.wq.in_range[i]) wg[i] += scale_x * gw_raw[i];
        }
    });
    // The s_w factor of the activation gradient is folded in by the kernel.
    runtime::parallel_for(0, gx.numel(),
                          runtime::grain_for(gx.numel(), tune::kGrainElementwise),
                          [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
            if (!st.xq.in_range[i]) gx[i] = 0.0f;
        }
    });
    return gx;
}

// ------------------------------------------------------------- utilities

void configure_approx_layers(nn::Module& root, const MultiplierConfig& config,
                             ComputeMode mode) {
    root.visit([&](nn::Module& m) {
        if (auto* conv = dynamic_cast<ApproxConv2d*>(&m)) {
            conv->set_multiplier(config);
            conv->set_mode(mode);
        } else if (auto* linear = dynamic_cast<ApproxLinear*>(&m)) {
            linear->set_multiplier(config);
            linear->set_mode(mode);
        } else if (auto* dw = dynamic_cast<DepthwiseConv2d*>(&m)) {
            dw->set_multiplier(config);
            dw->set_mode(mode);
        }
    });
}

void set_gradient_luts(nn::Module& root, std::shared_ptr<const core::GradLut> grad) {
    root.visit([&](nn::Module& m) {
        if (auto* conv = dynamic_cast<ApproxConv2d*>(&m)) {
            MultiplierConfig config = conv->multiplier();
            config.grad = grad;
            conv->set_multiplier(std::move(config));
        } else if (auto* linear = dynamic_cast<ApproxLinear*>(&m)) {
            MultiplierConfig config = linear->multiplier();
            config.grad = grad;
            linear->set_multiplier(std::move(config));
        } else if (auto* dw = dynamic_cast<DepthwiseConv2d*>(&m)) {
            MultiplierConfig config = dw->multiplier();
            config.grad = grad;
            dw->set_multiplier(std::move(config));
        }
    });
}

} // namespace amret::approx
