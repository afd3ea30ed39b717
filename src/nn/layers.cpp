#include "nn/layers.hpp"

#include "kernels/gemm.hpp"

#include <cassert>
#include <cmath>
#include <limits>

namespace amret::nn {

using tensor::Shape;
using tensor::Tensor;

// ---------------------------------------------------------------- Linear --

Linear::Linear(std::int64_t in_features, std::int64_t out_features, util::Rng& rng)
    : weight("linear.weight",
             Tensor::he_init(Shape{out_features, in_features}, in_features, rng)),
      bias("linear.bias", Tensor::zeros(Shape{out_features})) {}

Tensor Linear::forward(const Tensor& x, Context& ctx) {
    assert(x.rank() == 2 && x.dim(1) == weight.value.dim(1));
    State& st = ctx.state<State>(*this);
    st.x = x;
    const std::int64_t n = x.dim(0), in = x.dim(1), out = weight.value.dim(0);
    Tensor y(Shape{n, out});
    st.ws.reset();
    kernels::gemm_nt(x.data(), weight.value.data(), n, out, in, y.data(), st.ws,
                     {bias.value.data(), false});
    return y;
}

Tensor Linear::backward(const Tensor& gy, Context& ctx) {
    const State& st = ctx.state<State>(*this);
    assert(gy.rank() == 2 && gy.dim(0) == st.x.dim(0));
    const std::int64_t n = gy.dim(0), out = gy.dim(1), in = st.x.dim(1);
    // dW = gy^T x, db = column sums, dx = gy W.
    Tensor dw(weight.value.shape());
    kernels::gemm_tn(gy.data(), st.x.data(), out, in, n, dw.data());
    ctx.grad(weight).add_(dw);
    Tensor& bg = ctx.grad(bias);
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t j = 0; j < out; ++j) bg[j] += gy[i * out + j];
    Tensor dx(Shape{n, in});
    kernels::gemm_nn(gy.data(), weight.value.data(), n, in, out, dx.data());
    return dx;
}

void Linear::collect_params(std::vector<Param*>& out) {
    out.push_back(&weight);
    out.push_back(&bias);
}

// ----------------------------------------------------------- BatchNorm2d --

BatchNorm2d::BatchNorm2d(std::int64_t channels, float momentum, float eps)
    : gamma("bn.gamma", Tensor::full(Shape{channels}, 1.0f)),
      beta("bn.beta", Tensor::zeros(Shape{channels})),
      channels_(channels),
      momentum_(momentum),
      eps_(eps),
      running_mean_(Shape{channels}),
      running_var_(Tensor::full(Shape{channels}, 1.0f)) {}

Tensor BatchNorm2d::forward(const Tensor& x, Context& ctx) {
    assert(x.rank() == 4 && x.dim(1) == channels_);
    const std::int64_t n = x.dim(0), c = channels_, h = x.dim(2), w = x.dim(3);
    const std::int64_t spatial = h * w;
    const std::int64_t per_channel = n * spatial;
    Tensor y(x.shape());

    if (training_) {
        State& st = ctx.state<State>(*this);
        st.n = n;
        st.h = h;
        st.w = w;
        st.xhat = Tensor(x.shape());
        st.invstd = Tensor(Shape{c});
        for (std::int64_t ch = 0; ch < c; ++ch) {
            double mean = 0.0;
            for (std::int64_t i = 0; i < n; ++i) {
                const float* p = x.data() + (i * c + ch) * spatial;
                for (std::int64_t s = 0; s < spatial; ++s) mean += p[s];
            }
            mean /= static_cast<double>(per_channel);
            double var = 0.0;
            for (std::int64_t i = 0; i < n; ++i) {
                const float* p = x.data() + (i * c + ch) * spatial;
                for (std::int64_t s = 0; s < spatial; ++s) {
                    const double d = p[s] - mean;
                    var += d * d;
                }
            }
            var /= static_cast<double>(per_channel);

            running_mean_[ch] = momentum_ * running_mean_[ch] +
                                (1.0f - momentum_) * static_cast<float>(mean);
            running_var_[ch] = momentum_ * running_var_[ch] +
                               (1.0f - momentum_) * static_cast<float>(var);

            const float invstd = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
            st.invstd[ch] = invstd;
            const float g = gamma.value[ch], b = beta.value[ch];
            for (std::int64_t i = 0; i < n; ++i) {
                const float* px = x.data() + (i * c + ch) * spatial;
                float* ph = st.xhat.data() + (i * c + ch) * spatial;
                float* py = y.data() + (i * c + ch) * spatial;
                for (std::int64_t s = 0; s < spatial; ++s) {
                    const float xh = (px[s] - static_cast<float>(mean)) * invstd;
                    ph[s] = xh;
                    py[s] = g * xh + b;
                }
            }
        }
    } else {
        for (std::int64_t ch = 0; ch < c; ++ch) {
            const float invstd = 1.0f / std::sqrt(running_var_[ch] + eps_);
            const float g = gamma.value[ch], b = beta.value[ch];
            const float m = running_mean_[ch];
            for (std::int64_t i = 0; i < n; ++i) {
                const float* px = x.data() + (i * c + ch) * spatial;
                float* py = y.data() + (i * c + ch) * spatial;
                for (std::int64_t s = 0; s < spatial; ++s)
                    py[s] = g * (px[s] - m) * invstd + b;
            }
        }
    }
    return y;
}

Tensor BatchNorm2d::backward(const Tensor& gy, Context& ctx) {
    assert(training_ && "backward through BatchNorm requires training mode");
    const State& st = ctx.state<State>(*this);
    const std::int64_t n = st.n, c = channels_, spatial = st.h * st.w;
    const auto per_channel = static_cast<float>(n * spatial);
    Tensor gx(gy.shape());
    Tensor& gg = ctx.grad(gamma);
    Tensor& gb = ctx.grad(beta);

    for (std::int64_t ch = 0; ch < c; ++ch) {
        // Standard batchnorm backward in terms of xhat:
        // gx = (g*invstd/m) * (m*gy - sum(gy) - xhat * sum(gy*xhat))
        double sum_gy = 0.0, sum_gyxh = 0.0;
        for (std::int64_t i = 0; i < n; ++i) {
            const float* pg = gy.data() + (i * c + ch) * spatial;
            const float* ph = st.xhat.data() + (i * c + ch) * spatial;
            for (std::int64_t s = 0; s < spatial; ++s) {
                sum_gy += pg[s];
                sum_gyxh += static_cast<double>(pg[s]) * ph[s];
            }
        }
        gg[ch] += static_cast<float>(sum_gyxh);
        gb[ch] += static_cast<float>(sum_gy);

        const float g = gamma.value[ch];
        const float invstd = st.invstd[ch];
        const float k = g * invstd / per_channel;
        for (std::int64_t i = 0; i < n; ++i) {
            const float* pg = gy.data() + (i * c + ch) * spatial;
            const float* ph = st.xhat.data() + (i * c + ch) * spatial;
            float* px = gx.data() + (i * c + ch) * spatial;
            for (std::int64_t s = 0; s < spatial; ++s) {
                px[s] = k * (per_channel * pg[s] - static_cast<float>(sum_gy) -
                             ph[s] * static_cast<float>(sum_gyxh));
            }
        }
    }
    return gx;
}

void BatchNorm2d::collect_params(std::vector<Param*>& out) {
    out.push_back(&gamma);
    out.push_back(&beta);
}

void BatchNorm2d::save_extra_state(std::vector<float>& out) const {
    for (std::int64_t i = 0; i < channels_; ++i) out.push_back(running_mean_[i]);
    for (std::int64_t i = 0; i < channels_; ++i) out.push_back(running_var_[i]);
}

void BatchNorm2d::load_extra_state(const float*& cursor) {
    for (std::int64_t i = 0; i < channels_; ++i) running_mean_[i] = *cursor++;
    for (std::int64_t i = 0; i < channels_; ++i) running_var_[i] = *cursor++;
}

// ------------------------------------------------------------------ ReLU --

Tensor ReLU::forward(const Tensor& x, Context& ctx) {
    Tensor y = x;
    auto& mask = ctx.state<State>(*this).mask;
    mask.resize(static_cast<std::size_t>(x.numel()));
    for (std::int64_t i = 0; i < y.numel(); ++i) {
        const bool pos = y[i] > 0.0f;
        mask[static_cast<std::size_t>(i)] = pos ? 1 : 0;
        if (!pos) y[i] = 0.0f;
    }
    return y;
}

Tensor ReLU::backward(const Tensor& gy, Context& ctx) {
    const auto& mask = ctx.state<State>(*this).mask;
    assert(static_cast<std::size_t>(gy.numel()) == mask.size());
    Tensor gx = gy;
    for (std::int64_t i = 0; i < gx.numel(); ++i)
        if (!mask[static_cast<std::size_t>(i)]) gx[i] = 0.0f;
    return gx;
}

// ------------------------------------------------------------- MaxPool2d --

Tensor MaxPool2d::forward(const Tensor& x, Context& ctx) {
    assert(x.rank() == 4);
    const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    assert(h % kernel_ == 0 && w % kernel_ == 0);
    const std::int64_t oh = h / kernel_, ow = w / kernel_;
    State& st = ctx.state<State>(*this);
    st.in_shape = x.shape();
    Tensor y(Shape{n, c, oh, ow});
    st.argmax.assign(static_cast<std::size_t>(y.numel()), 0);

    for (std::int64_t i = 0; i < n * c; ++i) {
        const float* px = x.data() + i * h * w;
        float* py = y.data() + i * oh * ow;
        std::int64_t* pa = st.argmax.data() + i * oh * ow;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
                float best = -std::numeric_limits<float>::infinity();
                std::int64_t best_idx = 0;
                for (std::int64_t ky = 0; ky < kernel_; ++ky) {
                    for (std::int64_t kx = 0; kx < kernel_; ++kx) {
                        const std::int64_t idx =
                            (oy * kernel_ + ky) * w + (ox * kernel_ + kx);
                        if (px[idx] > best) {
                            best = px[idx];
                            best_idx = idx;
                        }
                    }
                }
                py[oy * ow + ox] = best;
                pa[oy * ow + ox] = best_idx;
            }
        }
    }
    return y;
}

Tensor MaxPool2d::backward(const Tensor& gy, Context& ctx) {
    const State& st = ctx.state<State>(*this);
    const std::int64_t n = st.in_shape[0], c = st.in_shape[1], h = st.in_shape[2],
                       w = st.in_shape[3];
    const std::int64_t oh = h / kernel_, ow = w / kernel_;
    assert(gy.numel() == n * c * oh * ow);
    Tensor gx(st.in_shape);
    for (std::int64_t i = 0; i < n * c; ++i) {
        const float* pg = gy.data() + i * oh * ow;
        const std::int64_t* pa = st.argmax.data() + i * oh * ow;
        float* px = gx.data() + i * h * w;
        for (std::int64_t s = 0; s < oh * ow; ++s) px[pa[s]] += pg[s];
    }
    return gx;
}

// ------------------------------------------------------------- AvgPool2d --

Tensor AvgPool2d::forward(const Tensor& x, Context& ctx) {
    assert(x.rank() == 4);
    const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    assert(h % kernel_ == 0 && w % kernel_ == 0);
    const std::int64_t oh = h / kernel_, ow = w / kernel_;
    ctx.state<State>(*this).in_shape = x.shape();
    Tensor y(Shape{n, c, oh, ow});
    const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
    for (std::int64_t i = 0; i < n * c; ++i) {
        const float* px = x.data() + i * h * w;
        float* py = y.data() + i * oh * ow;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
                float acc = 0.0f;
                for (std::int64_t ky = 0; ky < kernel_; ++ky)
                    for (std::int64_t kx = 0; kx < kernel_; ++kx)
                        acc += px[(oy * kernel_ + ky) * w + ox * kernel_ + kx];
                py[oy * ow + ox] = acc * inv;
            }
        }
    }
    return y;
}

Tensor AvgPool2d::backward(const Tensor& gy, Context& ctx) {
    const State& st = ctx.state<State>(*this);
    const std::int64_t n = st.in_shape[0], c = st.in_shape[1], h = st.in_shape[2],
                       w = st.in_shape[3];
    const std::int64_t oh = h / kernel_, ow = w / kernel_;
    assert(gy.numel() == n * c * oh * ow);
    Tensor gx(st.in_shape);
    const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
    for (std::int64_t i = 0; i < n * c; ++i) {
        const float* pg = gy.data() + i * oh * ow;
        float* px = gx.data() + i * h * w;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
                const float g = pg[oy * ow + ox] * inv;
                for (std::int64_t ky = 0; ky < kernel_; ++ky)
                    for (std::int64_t kx = 0; kx < kernel_; ++kx)
                        px[(oy * kernel_ + ky) * w + ox * kernel_ + kx] += g;
            }
        }
    }
    return gx;
}

// --------------------------------------------------------------- Dropout --

Tensor Dropout::forward(const Tensor& x, Context& ctx) {
    auto& mask = ctx.state<State>(*this).mask;
    if (!training_ || p_ <= 0.0f) {
        mask.assign(static_cast<std::size_t>(x.numel()), 1.0f);
        return x;
    }
    Tensor y = x;
    mask.resize(static_cast<std::size_t>(x.numel()));
    const float keep_scale = 1.0f / (1.0f - p_);
    util::Rng& rng = ctx.rng();
    for (std::int64_t i = 0; i < y.numel(); ++i) {
        const float m = rng.bernoulli(p_) ? 0.0f : keep_scale;
        mask[static_cast<std::size_t>(i)] = m;
        y[i] *= m;
    }
    return y;
}

Tensor Dropout::backward(const Tensor& gy, Context& ctx) {
    const auto& mask = ctx.state<State>(*this).mask;
    assert(static_cast<std::size_t>(gy.numel()) == mask.size());
    Tensor gx = gy;
    for (std::int64_t i = 0; i < gx.numel(); ++i)
        gx[i] *= mask[static_cast<std::size_t>(i)];
    return gx;
}

// --------------------------------------------------------- GlobalAvgPool --

Tensor GlobalAvgPool::forward(const Tensor& x, Context& ctx) {
    assert(x.rank() == 4);
    ctx.state<State>(*this).in_shape = x.shape();
    const std::int64_t n = x.dim(0), c = x.dim(1), spatial = x.dim(2) * x.dim(3);
    Tensor y(Shape{n, c});
    for (std::int64_t i = 0; i < n * c; ++i) {
        const float* p = x.data() + i * spatial;
        float acc = 0.0f;
        for (std::int64_t s = 0; s < spatial; ++s) acc += p[s];
        y[i] = acc / static_cast<float>(spatial);
    }
    return y;
}

Tensor GlobalAvgPool::backward(const Tensor& gy, Context& ctx) {
    const State& st = ctx.state<State>(*this);
    const std::int64_t spatial = st.in_shape[2] * st.in_shape[3];
    Tensor gx(st.in_shape);
    const float inv = 1.0f / static_cast<float>(spatial);
    for (std::int64_t i = 0; i < gy.numel(); ++i) {
        float* p = gx.data() + i * spatial;
        const float g = gy[i] * inv;
        for (std::int64_t s = 0; s < spatial; ++s) p[s] = g;
    }
    return gx;
}

// --------------------------------------------------------------- Flatten --

Tensor Flatten::forward(const Tensor& x, Context& ctx) {
    ctx.state<State>(*this).in_shape = x.shape();
    const std::int64_t n = x.dim(0);
    return x.reshaped(Shape{n, x.numel() / n});
}

Tensor Flatten::backward(const Tensor& gy, Context& ctx) {
    return gy.reshaped(ctx.state<State>(*this).in_shape);
}

} // namespace amret::nn
