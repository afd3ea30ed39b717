#include "quant/quant.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace amret::quant {

float QuantParams::quantize(float v) const {
    const float q = std::nearbyint(v / scale + zero_point);
    return std::clamp(q, 0.0f, qmax());
}

float QuantParams::dequantize(float q) const { return scale * (q - zero_point); }

bool QuantParams::in_range(float v) const {
    const float q = v / scale + zero_point;
    return q > -0.5f && q < qmax() + 0.5f;
}

QuantParams choose_params(float lo, float hi, unsigned bits) {
    // Ensure zero is representable and the range is non-degenerate.
    lo = std::min(lo, 0.0f);
    hi = std::max(hi, 0.0f);
    if (hi - lo < 1e-8f) hi = lo + 1e-8f;

    QuantParams p;
    p.bits = bits;
    const float levels = p.qmax();
    p.scale = (hi - lo) / levels;
    p.zero_point = std::nearbyint(-lo / p.scale);
    p.zero_point = std::clamp(p.zero_point, 0.0f, levels);
    return p;
}

void EmaObserver::observe(const tensor::Tensor& t) {
    if (t.empty()) return;
    const double lo = t.min();
    const double hi = t.max();
    if (!initialized_) {
        lo_ = lo;
        hi_ = hi;
        initialized_ = true;
        return;
    }
    lo_ = momentum_ * lo_ + (1.0 - momentum_) * lo;
    hi_ = momentum_ * hi_ + (1.0 - momentum_) * hi;
}

QuantParams EmaObserver::params(unsigned bits) const {
    return choose_params(lo(), hi(), bits);
}

tensor::Tensor fake_quantize(const tensor::Tensor& t, const QuantParams& params) {
    tensor::Tensor out = t;
    for (std::int64_t i = 0; i < out.numel(); ++i)
        out[i] = params.dequantize(params.quantize(out[i]));
    return out;
}

FixedPointMultiplier quantize_multiplier(double m) {
    assert(m > 0.0);
    FixedPointMultiplier fpm;
    if (m >= 1.0) {
        // Rare (s_in*s_w > s_out); fold powers of two into a negative shift.
        int up = 0;
        while (m >= 1.0) {
            m /= 2.0;
            ++up;
        }
        fpm = quantize_multiplier(m);
        fpm.shift -= up;
        return fpm;
    }
    int shift = 0;
    while (m < 0.5) {
        m *= 2.0;
        ++shift;
    }
    // m in [0.5, 1): mult in [2^30, 2^31). Renormalize BEFORE narrowing to
    // int32 — lround can land exactly on 2^31 for m just below 1.0, which
    // would wrap to INT32_MIN and flip the sign of every rescale.
    std::int64_t mant = std::lround(m * (1ll << 31));
    if (mant == (1ll << 31)) {
        mant /= 2;
        --shift;
    }
    fpm.mult = static_cast<std::int32_t>(mant);
    fpm.shift = shift + 31;
    return fpm;
}

std::int32_t fixed_point_rescale(std::int64_t v, const FixedPointMultiplier& fpm) {
    const __int128 prod = static_cast<__int128>(v) * fpm.mult;
    if (fpm.shift <= 0) {
        return static_cast<std::int32_t>(prod << (-fpm.shift));
    }
    const __int128 rounding = __int128{1} << (fpm.shift - 1);
    return static_cast<std::int32_t>((prod + rounding) >> fpm.shift);
}

} // namespace amret::quant
