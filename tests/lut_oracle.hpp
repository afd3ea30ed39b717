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

#include <cstdint>
#include <vector>

namespace amret::lut_oracle {

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
                acc += a.lut[(static_cast<std::uint32_t>(a.wq[oo * k + kk])
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

/// Naive backward in the kernels' defining accumulation orders: gx sums
/// output channels in ascending o, gw sums positions in ascending p, so
/// equality is exact. \p grad_x_lut is indexed (w << bits) | x
/// (core::GradLut::dx_table()); gw_raw and gx_raw must be zero-initialized.
inline void naive_backward(const kernels::LutGemmArgs& a, const float* gyp,
                           const float* grad_w_lut, const float* grad_x_lut,
                           float* gw_raw, float* gx_raw) {
    const std::int64_t p = a.p(), k = a.k();
    const float zx = static_cast<float>(a.zero_x);
    for (std::int64_t pp = 0; pp < p; ++pp)
        for (std::int64_t oo = 0; oo < a.o; ++oo) {
            const float g = gyp[pp * a.o + oo];
            if (g == 0.0f) continue;
            const float zw = static_cast<float>(a.row_zero_w(oo));
            const float gx_scale = a.row_scale_w(oo);
            for (std::int64_t kk = 0; kk < k; ++kk) {
                const std::uint32_t idx =
                    (static_cast<std::uint32_t>(a.wq[oo * k + kk]) << a.bits) |
                    a.xq[pp * k + kk];
                gx_raw[pp * k + kk] += g * gx_scale * (grad_x_lut[idx] - zw);
            }
        }
    for (std::int64_t oo = 0; oo < a.o; ++oo)
        for (std::int64_t pp = 0; pp < p; ++pp) {
            const float g = gyp[pp * a.o + oo];
            if (g == 0.0f) continue;
            for (std::int64_t kk = 0; kk < k; ++kk) {
                const std::uint32_t idx =
                    (static_cast<std::uint32_t>(a.wq[oo * k + kk]) << a.bits) |
                    a.xq[pp * k + kk];
                gw_raw[oo * k + kk] += g * (grad_w_lut[idx] - zx);
            }
        }
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
