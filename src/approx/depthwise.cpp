#include "approx/depthwise.hpp"

#include <cassert>

namespace amret::approx {

using tensor::ConvGeom;
using tensor::Shape;
using tensor::Tensor;

DepthwiseConv2d::DepthwiseConv2d(std::int64_t channels, std::int64_t kernel,
                                 std::int64_t stride, std::int64_t pad,
                                 util::Rng& rng)
    : ApproxLayer("dwconv",
                  Tensor::he_init(Shape{channels, kernel, kernel}, kernel * kernel, rng),
                  Tensor::zeros(Shape{channels})),
      channels_(channels), kernel_(kernel), stride_(stride), pad_(pad) {}

std::int64_t DepthwiseConv2d::last_positions(const nn::Context& ctx) const {
    const State* st = ctx.peek<State>(*this);
    return st ? st->args.geom.positions() : 0;
}

Tensor DepthwiseConv2d::forward(const Tensor& x, nn::Context& ctx) {
    assert(x.rank() == 4 && x.dim(1) == channels_);
    State& st = ctx.state<State>(*this);
    // New allocation epoch; the input planes and weight codes stay valid
    // through the matching backward.
    st.ws.reset();
    kernels::DepthwiseArgs& a = st.args;
    a = kernels::DepthwiseArgs{};
    a.geom = ConvGeom{x.dim(0), channels_, x.dim(2), x.dim(3), kernel_, stride_, pad_};
    a.w = weight.value.data();
    if (mode_ == ComputeMode::kQuantized) {
        assert(mult_.valid() && "set_multiplier() before quantized forward");
        const unsigned bits = mult_.bits();
        a.wq = kernels::quantize_weights_per_tensor(
            weight.value.data(), weight.value.numel(), bits, st.ws);
        a.xparams = activation_params(x, ctx);
        a.lut = mult_.lut->table().data();
        a.grad_w_lut = mult_.grad->dw_table().data();
        a.grad_x_lut = mult_.grad->dx_table().data();
    }
    Tensor y(Shape{a.geom.batch, channels_, a.geom.out_h(), a.geom.out_w()});
    st.input = kernels::depthwise_forward(a, x.data(), bias.value.data(), y.data(),
                                          st.ws);
    return y;
}

Tensor DepthwiseConv2d::backward(const Tensor& gy, nn::Context& ctx) {
    State& st = ctx.state<State>(*this);
    const ConvGeom& geom = st.args.geom;
    assert(gy.numel() == geom.batch * channels_ * geom.out_h() * geom.out_w());
    Tensor gx(Shape{geom.batch, channels_, geom.in_h, geom.in_w});
    kernels::depthwise_backward(st.args, st.input, gy.data(),
                                ctx.grad(weight).data(), ctx.grad(bias).data(),
                                gx.data(), st.ws);
    return gx;
}

} // namespace amret::approx
