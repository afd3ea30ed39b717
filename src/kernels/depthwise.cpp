#include "kernels/depthwise.hpp"

#include "kernels/tuning.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

#include <algorithm>

namespace amret::kernels {

namespace {

/// Padded-plane view of a depthwise geometry.
struct Planes {
    std::int64_t n, c, h, w, k, stride, pad;
    std::int64_t hp, wp, oh, ow, taps;

    explicit Planes(const tensor::ConvGeom& g)
        : n(g.batch), c(g.in_ch), h(g.in_h), w(g.in_w), k(g.kernel),
          stride(g.stride), pad(g.pad), hp(g.in_h + 2 * g.pad),
          wp(g.in_w + 2 * g.pad), oh(g.out_h()), ow(g.out_w()),
          taps(g.kernel * g.kernel) {}

    [[nodiscard]] std::int64_t plane() const { return hp * wp; }
    /// Offset of padded plane (channel ci, image ni).
    [[nodiscard]] std::int64_t plane_at(std::int64_t ci, std::int64_t ni) const {
        return (ci * n + ni) * plane();
    }
    /// Offset of the unpadded (image ni, channel ci) plane in NCHW.
    [[nodiscard]] std::int64_t nchw_at(std::int64_t ni, std::int64_t ci) const {
        return (ni * c + ci) * h * w;
    }
    /// Offset of output (ni, ci, 0, 0) in the (N, C, OH, OW) map.
    [[nodiscard]] std::int64_t out_at(std::int64_t ni, std::int64_t ci) const {
        return (ni * c + ci) * oh * ow;
    }
    /// Offset of an output's top-left tap inside its padded plane.
    [[nodiscard]] std::int64_t tap0(std::int64_t oy, std::int64_t ox) const {
        return oy * stride * wp + ox * stride;
    }
};

/// Fills the border ring of a padded plane with \p v.
template <typename T>
void fill_border(const Planes& g, T* plane, T v) {
    std::fill(plane, plane + g.pad * g.wp, v);
    for (std::int64_t iy = 0; iy < g.h; ++iy) {
        T* row = plane + (iy + g.pad) * g.wp;
        std::fill(row, row + g.pad, v);
        std::fill(row + g.pad + g.w, row + g.wp, v);
    }
    std::fill(plane + (g.pad + g.h) * g.wp, plane + g.plane(), v);
}

/// Tap offsets inside a padded plane, relative to a window's top-left tap.
const std::int64_t* tap_offsets(const Planes& g, Workspace& ws) {
    std::int64_t* off = ws.alloc<std::int64_t>(g.taps);
    for (std::int64_t ky = 0; ky < g.k; ++ky)
        for (std::int64_t kx = 0; kx < g.k; ++kx) off[ky * g.k + kx] = ky * g.wp + kx;
    return off;
}

/// Writes channel \p c's LUT rows (weight code << bits), one per tap.
void lut_rows(const Planes& g, const DepthwiseArgs& a, std::int64_t c,
              std::uint32_t* row) {
    for (std::int64_t t = 0; t < g.taps; ++t)
        row[t] = static_cast<std::uint32_t>(a.wq.codes[c * g.taps + t])
                 << a.xparams.bits;
}

} // namespace

DepthwisePlanes depthwise_forward(const DepthwiseArgs& a, const float* x,
                                  const float* bias, float* y, Workspace& ws) {
    AMRET_OBS_SPAN("kernels.depthwise_forward");
    const Planes g(a.geom);
    const bool quantized = a.quantized();
    const std::int64_t chunks = runtime::chunk_count(0, g.c, tune::kGrainChannel);
    const std::int64_t* off = tap_offsets(g, ws);
    std::uint32_t* rows = ws.alloc<std::uint32_t>(chunks * g.taps);
    std::uint16_t* codes = nullptr;
    std::uint8_t* in_range = nullptr;
    float* values = nullptr;
    if (quantized) {
        codes = ws.alloc<std::uint16_t>(g.c * g.n * g.plane());
        in_range = ws.alloc<std::uint8_t>(g.c * g.n * g.plane());
    } else {
        values = ws.alloc<float>(g.c * g.n * g.plane());
    }

    const quant::QuantParams& xp = a.xparams;
    const auto code0 = static_cast<std::uint16_t>(xp.quantize(0.0f));
    const std::uint8_t mask0 = xp.in_range(0.0f) ? 1 : 0;
    const auto zx = static_cast<std::int64_t>(xp.zero_point);
    const auto zw = static_cast<std::int64_t>(a.wq.params.zero_point);
    const float ss = a.wq.params.scale * xp.scale;

    runtime::parallel_for_chunks(0, g.c, tune::kGrainChannel,
                                 [&](std::int64_t cb, std::int64_t ce,
                                     std::size_t chunk) {
        std::uint32_t* row = rows + static_cast<std::int64_t>(chunk) * g.taps;
        for (std::int64_t c = cb; c < ce; ++c) {
            const float b = bias[c];
            const float* wrow = a.w + c * g.taps;
            // Eq. (8): the weight-sum terms are fixed per channel.
            std::int64_t fixed = 0;
            if (quantized) {
                lut_rows(g, a, c, row);
                std::int64_t sum_w = 0;
                for (std::int64_t t = 0; t < g.taps; ++t)
                    sum_w += a.wq.codes[c * g.taps + t];
                fixed = g.taps * zw * zx - zx * sum_w;
            }
            for (std::int64_t n = 0; n < g.n; ++n) {
                const std::int64_t at0 = g.plane_at(c, n);
                const float* src = x + g.nchw_at(n, c);
                float* out = y + g.out_at(n, c);
                if (!quantized) {
                    float* plane = values + at0;
                    fill_border(g, plane, 0.0f);
                    for (std::int64_t iy = 0; iy < g.h; ++iy)
                        std::copy(src + iy * g.w, src + (iy + 1) * g.w,
                                  plane + (iy + g.pad) * g.wp + g.pad);
                    for (std::int64_t oy = 0; oy < g.oh; ++oy)
                        for (std::int64_t ox = 0; ox < g.ow; ++ox) {
                            const float* at = plane + g.tap0(oy, ox);
                            float acc = b;
                            for (std::int64_t t = 0; t < g.taps; ++t)
                                acc += wrow[t] * at[off[t]];
                            out[oy * g.ow + ox] = acc;
                        }
                    continue;
                }

                // Each input pixel is quantized once; the border holds what
                // the zero-padded im2col quantized to.
                fill_border(g, codes + at0, code0);
                fill_border(g, in_range + at0, mask0);
                for (std::int64_t iy = 0; iy < g.h; ++iy) {
                    const std::int64_t o = at0 + (iy + g.pad) * g.wp + g.pad;
                    quantize_values(src + iy * g.w, g.w, xp, codes + o,
                                    in_range + o);
                }
                const std::uint16_t* plane = codes + at0;
                for (std::int64_t oy = 0; oy < g.oh; ++oy)
                    for (std::int64_t ox = 0; ox < g.ow; ++ox) {
                        const std::uint16_t* at = plane + g.tap0(oy, ox);
                        std::int64_t acc = 0, sum_x = 0;
                        for (std::int64_t t = 0; t < g.taps; ++t) {
                            const std::uint16_t code = at[off[t]];
                            acc += a.lut[row[t] | code];
                            sum_x += code;
                        }
                        const std::int64_t corrected = acc - zw * sum_x + fixed;
                        out[oy * g.ow + ox] = ss * static_cast<float>(corrected) + b;
                    }
            }
        }
    });
    return DepthwisePlanes{codes, in_range, values};
}

void depthwise_backward(const DepthwiseArgs& a, const DepthwisePlanes& in,
                        const float* gy, float* gw, float* gb, float* gx,
                        Workspace& ws) {
    AMRET_OBS_SPAN("kernels.depthwise_backward");
    const Planes g(a.geom);
    const bool quantized = a.quantized();
    const std::int64_t chunks = runtime::chunk_count(0, g.c, tune::kGrainChannel);
    const std::int64_t* off = tap_offsets(g, ws);
    std::uint32_t* rows = ws.alloc<std::uint32_t>(chunks * g.taps);
    float* sums = ws.alloc<float>(chunks * g.taps);
    float* folds = ws.alloc<float>(chunks * g.plane());
    const float sx = a.xparams.scale, zx = a.xparams.zero_point;
    const float sw = a.wq.params.scale, zw = a.wq.params.zero_point;

    runtime::parallel_for_chunks(0, g.c, tune::kGrainChannel,
                                 [&](std::int64_t cb, std::int64_t ce,
                                     std::size_t chunk) {
        const auto ci = static_cast<std::int64_t>(chunk);
        std::uint32_t* row = rows + ci * g.taps;
        float* gacc = sums + ci * g.taps;
        float* fold = folds + ci * g.plane();
        for (std::int64_t c = cb; c < ce; ++c) {
            const float* wrow = a.w + c * g.taps;
            const std::uint8_t* wok = quantized ? a.wq.in_range + c * g.taps : nullptr;
            if (quantized) lut_rows(g, a, c, row);
            std::copy(gw + c * g.taps, gw + (c + 1) * g.taps, gacc);
            float bsum = gb[c];
            for (std::int64_t n = 0; n < g.n; ++n) {
                // One pass in ascending (oy, ox): gw, gb and each gx pixel
                // receive their terms in the old fused loop's and col2im's
                // order; out-of-image taps land in the discarded border.
                std::fill(fold, fold + g.plane(), 0.0f);
                const std::int64_t at0 = g.plane_at(c, n);
                const float* gyn = gy + g.out_at(n, c);
                for (std::int64_t oy = 0; oy < g.oh; ++oy)
                    for (std::int64_t ox = 0; ox < g.ow; ++ox) {
                        const float gv = gyn[oy * g.ow + ox];
                        bsum += gv;
                        const std::int64_t p0 = g.tap0(oy, ox);
                        float* dx = fold + p0;
                        if (!quantized) {
                            const float* at = in.values + at0 + p0;
                            for (std::int64_t t = 0; t < g.taps; ++t) {
                                gacc[t] += gv * at[off[t]];
                                dx[off[t]] += gv * wrow[t];
                            }
                            continue;
                        }
                        const std::uint16_t* at = in.codes + at0 + p0;
                        const std::uint8_t* xok = in.in_range + at0 + p0;
                        const float gs_x = gv * sx, gs_w = gv * sw;
                        for (std::int64_t t = 0; t < g.taps; ++t) {
                            const std::uint32_t idx = row[t] | at[off[t]];
                            if (wok[t]) gacc[t] += gs_x * (a.grad_w_lut[idx] - zx);
                            dx[off[t]] +=
                                xok[off[t]] ? gs_w * (a.grad_x_lut[idx] - zw) : 0.0f;
                        }
                    }
                float* dst = gx + g.nchw_at(n, c);
                for (std::int64_t iy = 0; iy < g.h; ++iy) {
                    const float* src = fold + (iy + g.pad) * g.wp + g.pad;
                    std::copy(src, src + g.w, dst + iy * g.w);
                }
            }
            gb[c] = bsum;
            std::copy(gacc, gacc + g.taps, gw + c * g.taps);
        }
    });
}

} // namespace amret::kernels
