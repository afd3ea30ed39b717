// Order-faithful references for the LUT-GEMM kernels in
// src/kernels/lut_kernels.hpp: the naive loops over row-major codes, in the
// kernels' defining accumulation orders. The forward sums in int64 with the
// kernels' float epilogue expression, and the backward sums gx over output
// channels in ascending o and gw over positions in ascending p, so every
// kernel must equal them bit for bit (tests/test_layout.cpp,
// tests/test_simd.cpp, bench_micro --kernels-json).
#pragma once

#include "kernels/layout.hpp"
#include "kernels/lut_kernels.hpp"
#include "util/rng.hpp"

#include <cstdint>
#include <vector>

namespace amret::lut_oracle {

/// Weight code of filter \p oo at tap-major depth index \p kk: a.wq keeps
/// the (O, C, K, K) order, (c, ky, kx), the identity for a plain matrix.
inline std::uint16_t w_code(const kernels::LutGemmArgs& a, std::int64_t oo,
                            std::int64_t kk) {
    const std::int64_t taps = a.geom.kernel * a.geom.kernel, c_in = a.geom.in_ch;
    return a.wq[oo * a.k() + (kk % c_in) * taps + kk / c_in];
}

/// Naive forward: same int64 k-sum and the identical float epilogue
/// expression as the kernel, so equality is exact, not approximate.
inline void naive_forward(const kernels::LutGemmArgs& a, const float* bias,
                          float* y) {
    const std::int64_t p = a.p(), k = a.k();
    std::vector<std::int64_t> sum_w(static_cast<std::size_t>(a.o), 0);
    for (std::int64_t oo = 0; oo < a.o; ++oo)
        for (std::int64_t kk = 0; kk < k; ++kk)
            sum_w[static_cast<std::size_t>(oo)] += a.wq[oo * k + kk];
    for (std::int64_t pp = 0; pp < p; ++pp) {
        std::int64_t sum_x = 0;
        for (std::int64_t kk = 0; kk < k; ++kk) sum_x += a.xq[pp * k + kk];
        for (std::int64_t oo = 0; oo < a.o; ++oo) {
            std::int64_t acc = 0;
            for (std::int64_t kk = 0; kk < k; ++kk)
                acc += a.lut[(static_cast<std::uint32_t>(w_code(a, oo, kk))
                              << a.bits) |
                             a.xq[pp * k + kk]];
            const std::int32_t zw = a.row_zero_w(oo);
            const std::int64_t corrected =
                acc - static_cast<std::int64_t>(a.zero_x) *
                          sum_w[static_cast<std::size_t>(oo)] -
                static_cast<std::int64_t>(zw) * sum_x +
                k * static_cast<std::int64_t>(zw) * a.zero_x;
            const float ss = a.row_scale_w(oo) * a.scale_x;
            y[pp * a.o + oo] =
                ss * static_cast<float>(corrected) + (bias ? bias[oo] : 0.0f);
        }
    }
}

/// Naive backward in the kernels' defining accumulation orders, finished as
/// lut_backward_rows finishes it: gx sums output channels in ascending o
/// and is stored through a.x_in_range into \p gx, every element written,
/// padding taps included; gw sums positions in ascending p and folds into
/// the (O, C, K, K) \p grad_w, accumulated, as s_x * gw where a.w_in_range
/// passes. So equality is exact. \p grad_x_lut is indexed (w << bits) | x
/// (core::GradLut::dx_table()).
inline void naive_backward(const kernels::LutGemmArgs& a, const float* gyp,
                           const float* grad_w_lut, const float* grad_x_lut,
                           float* grad_w, float* gx) {
    const std::int64_t p = a.p(), k = a.k();
    const float zx = static_cast<float>(a.zero_x);
    std::vector<float> gw_raw(static_cast<std::size_t>(a.o * k), 0.0f);
    std::vector<float> gx_raw(static_cast<std::size_t>(p * k), 0.0f);
    for (std::int64_t pp = 0; pp < p; ++pp)
        for (std::int64_t oo = 0; oo < a.o; ++oo) {
            const float g = gyp[pp * a.o + oo];
            if (g == 0.0f) continue;
            const float zw = static_cast<float>(a.row_zero_w(oo));
            const float gx_scale = a.row_scale_w(oo);
            for (std::int64_t kk = 0; kk < k; ++kk) {
                const std::uint32_t idx =
                    (static_cast<std::uint32_t>(w_code(a, oo, kk)) << a.bits) |
                    a.xq[pp * k + kk];
                gx_raw[static_cast<std::size_t>(pp * k + kk)] +=
                    g * gx_scale * (grad_x_lut[idx] - zw);
            }
        }
    for (std::int64_t oo = 0; oo < a.o; ++oo)
        for (std::int64_t pp = 0; pp < p; ++pp) {
            const float g = gyp[pp * a.o + oo];
            if (g == 0.0f) continue;
            for (std::int64_t kk = 0; kk < k; ++kk) {
                const std::uint32_t idx =
                    (static_cast<std::uint32_t>(w_code(a, oo, kk)) << a.bits) |
                    a.xq[pp * k + kk];
                gw_raw[static_cast<std::size_t>(oo * k + kk)] +=
                    g * (grad_w_lut[idx] - zx);
            }
        }
    for (std::int64_t i = 0; i < p * k; ++i)
        gx[i] = a.x_in_range[i] ? gx_raw[static_cast<std::size_t>(i)] : 0.0f;
    const std::int64_t taps = a.geom.kernel * a.geom.kernel, c_in = a.geom.in_ch;
    for (std::int64_t oo = 0; oo < a.o; ++oo)
        for (std::int64_t c = 0; c < c_in; ++c)
            for (std::int64_t t = 0; t < taps; ++t) {
                const std::int64_t i = oo * k + c * taps + t;
                const auto raw = static_cast<std::size_t>(oo * k + t * c_in + c);
                if (a.w_in_range[i]) grad_w[i] += a.scale_x * gw_raw[raw];
            }
}

/// Whether depth index \p d, tap-major (ky, kx, c), of im2col row \p pp
/// (n, oy, ox) of \p g reads a pixel inside the image.
inline bool tap_in_image(const tensor::ConvGeom& g, std::int64_t pp, std::int64_t d) {
    const std::int64_t s = pp % (g.out_h() * g.out_w());
    const std::int64_t t = d / g.in_ch;
    const std::int64_t iy = (s / g.out_w()) * g.stride - g.pad + t / g.kernel;
    const std::int64_t ix = (s % g.out_w()) * g.stride - g.pad + t % g.kernel;
    return iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
}

/// Writes \p zero_x into every out-of-image tap of the (P, K) row codes
/// \p xq of \p g, as quantize_conv_panels does: the precondition
/// lut_backward_rows reads.
inline void write_pad_codes(const tensor::ConvGeom& g, std::int32_t zero_x,
                            std::uint16_t* xq) {
    const std::int64_t k = g.patch();
    for (std::int64_t pp = 0; pp < g.positions(); ++pp)
        for (std::int64_t d = 0; d < k; ++d)
            if (!tap_in_image(g, pp, d))
                xq[pp * k + d] = static_cast<std::uint16_t>(zero_x);
}

/// Draws clamp masks for \p a, about one element in eight stopped, into
/// \p w and \p x, and points a.w_in_range and a.x_in_range at them.
inline void draw_masks(kernels::LutGemmArgs& a, util::Rng& rng,
                       std::vector<std::uint8_t>& w, std::vector<std::uint8_t>& x) {
    w.resize(static_cast<std::size_t>(a.o * a.k()));
    x.resize(static_cast<std::size_t>(a.p() * a.k()));
    for (auto& v : w) v = rng.uniform_u64(8) == 0 ? 0 : 1;
    for (auto& v : x) v = rng.uniform_u64(8) == 0 ? 0 : 1;
    a.w_in_range = w.data();
    a.x_in_range = x.data();
}

/// \p a with its row-major codes packed as panels of tp x tk activation and
/// to x tk weight codes in \p ws: the operands of lut_forward_blocked that
/// naive_forward over \p a must equal. The rows are packed in their order,
/// so \p a must be a plain matrix (matrix_geom).
inline kernels::LutGemmArgs pack_blocked(kernels::LutGemmArgs a, std::int64_t tp,
                                         std::int64_t to, std::int64_t tk,
                                         kernels::Workspace& ws) {
    a.w = kernels::pack_conv_weight_panels(
        a.wq, a.bits, kernels::make_panel_plan(a.o, a.k(), to, tk), a.geom, a.lut,
        static_cast<std::uint16_t>(a.zero_x), ws);
    a.x = kernels::pack_activation_panels(
        a.xq, kernels::make_panel_plan(a.p(), a.k(), tp, tk), ws);
    return a;
}

} // namespace amret::lut_oracle
