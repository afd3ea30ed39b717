#include "kernels/layout.hpp"

#include "kernels/quantize.hpp"
#include "kernels/tuning.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

#include <algorithm>
#include <cassert>

namespace amret::kernels {

namespace {

std::uint64_t fnv1a64(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 1099511628211ull;
    }
    return h;
}

/// Shared skeleton of the fused packers: walks the panel rows of one
/// row-block range, asks \p row_taps(row) once per row for that row's tap
/// reader, stores each tap(kk) code in its panel slot and accumulates the
/// row-sum header. Pad slots (rows beyond plan.rows, depth beyond
/// plan.depth) stay 0.
template <typename RowTaps>
void pack_rows_fused(const PanelPlan& plan, std::uint16_t* codes,
                     std::int64_t* sums, std::int64_t rb0, std::int64_t rb1,
                     RowTaps&& row_taps) {
    const std::int64_t tr = plan.tr, tk = plan.tk;
    const std::int64_t kblocks = plan.depth_blocks();
    for (std::int64_t rb = rb0; rb < rb1; ++rb) {
        std::uint16_t* block = codes + plan.panel_offset(rb, 0);
        std::fill(block, block + kblocks * plan.panel_elems(), std::uint16_t{0});
        const std::int64_t pr = plan.block_rows(rb);
        for (std::int64_t rr = 0; rr < pr; ++rr) {
            const std::int64_t row = rb * tr + rr;
            const auto tap = row_taps(row);
            std::int64_t sum = 0;
            for (std::int64_t kb = 0; kb < kblocks; ++kb) {
                std::uint16_t* panel = block + kb * plan.panel_elems();
                const std::int64_t kr = plan.block_depth(kb);
                const std::int64_t kbase = kb * tk;
                for (std::int64_t kk = 0; kk < kr; ++kk) {
                    const std::uint16_t code = tap(kbase + kk);
                    panel[kk * tr + rr] = code;
                    sum += code;
                }
            }
            sums[row] = sum;
        }
    }
}

/// The im2col taps in panel depth order, tap-major (ky, kx, then c): each
/// tap's kernel offsets and its element offset from a window's top-left
/// input pixel in the NCHW map. Built once per packing call.
struct TapTable {
    std::int32_t* ky = nullptr;
    std::int32_t* kx = nullptr;
    std::int64_t* off = nullptr;
};

TapTable make_tap_table(const tensor::ConvGeom& geom, Workspace& ws) {
    const std::int64_t patch = geom.patch();
    const std::int64_t k = geom.kernel;
    TapTable table;
    table.ky = ws.alloc<std::int32_t>(patch);
    table.kx = ws.alloc<std::int32_t>(patch);
    table.off = ws.alloc<std::int64_t>(patch);
    std::int64_t d = 0;
    for (std::int64_t ky = 0; ky < k; ++ky)
        for (std::int64_t kx = 0; kx < k; ++kx)
            for (std::int64_t c = 0; c < geom.in_ch; ++c, ++d) {
                table.ky[d] = static_cast<std::int32_t>(ky);
                table.kx[d] = static_cast<std::int32_t>(kx);
                table.off[d] = (c * geom.in_h + ky) * geom.in_w + kx;
            }
    return table;
}

/// Row-tap reader of the im2col packers, for pack_rows_fused. Each panel
/// row is location-major, row = (oy * OW + ox) * N + n; its im2col row
/// n * OH * OW + oy * OW + ox and window base offset are computed once. A
/// window inside the image reads every tap d through
/// at(im2col_row, d, base + off[d]); a border window checks each tap and
/// takes pad(im2col_row, d) outside the image.
template <typename At, typename Pad>
auto im2col_row_taps(const tensor::ConvGeom& geom, const TapTable& taps, At& at,
                     Pad& pad) {
    return [&geom, &taps, &at, &pad](std::int64_t row) {
        const std::int64_t ow = geom.out_w(), spatial = geom.out_h() * ow;
        const std::int64_t n = row % geom.batch, s = row / geom.batch;
        const std::int64_t src_row = n * spatial + s;
        const std::int64_t iy0 = (s / ow) * geom.stride - geom.pad;
        const std::int64_t ix0 = (s % ow) * geom.stride - geom.pad;
        const bool interior = iy0 >= 0 && ix0 >= 0 &&
                              iy0 + geom.kernel <= geom.in_h &&
                              ix0 + geom.kernel <= geom.in_w;
        const std::int64_t base =
            (n * geom.in_ch * geom.in_h + iy0) * geom.in_w + ix0;
        return [&, src_row, iy0, ix0, interior,
                base](std::int64_t d) -> std::uint16_t {
            if (!interior) {
                const std::int64_t iy = iy0 + taps.ky[d], ix = ix0 + taps.kx[d];
                if (iy < 0 || iy >= geom.in_h || ix < 0 || ix >= geom.in_w)
                    return pad(src_row, d);
            }
            return at(src_row, d, base + taps.off[d]);
        };
    };
}

/// The gather body of both fused im2col packers: allocates the panels and
/// their row-sum header, fills every panel row from its taps through
/// at/pad (im2col_row_taps) on chunks of \p grain position blocks, and
/// attaches the nibble mirror of <= 4-bit codes on the same chunks.
template <typename At, typename Pad>
ActPanels gather_im2col_panels(const tensor::ConvGeom& geom, const PanelPlan& plan,
                               unsigned bits, std::int64_t grain, Workspace& ws,
                               At at, Pad pad) {
    assert(plan.rows == geom.positions() && plan.depth == geom.patch());
    const TapTable taps = make_tap_table(geom, ws);
    ActPanels out;
    out.plan = plan;
    std::uint16_t* codes = ws.alloc<std::uint16_t>(plan.elems());
    std::int64_t* sums = ws.alloc<std::int64_t>(plan.rows);
    runtime::parallel_for(0, plan.row_blocks(), grain,
                          [&](std::int64_t b0, std::int64_t b1) {
        pack_rows_fused(plan, codes, sums, b0, b1,
                        im2col_row_taps(geom, taps, at, pad));
    });
    out.codes = codes;
    out.sum_x = sums;
    attach_packed4(out, bits, ws, grain);
    return out;
}

} // namespace

std::uint64_t PanelPlan::key() const {
    std::uint64_t h = 14695981039346656037ull;
    h = fnv1a64(h, static_cast<std::uint64_t>(rows));
    h = fnv1a64(h, static_cast<std::uint64_t>(depth));
    h = fnv1a64(h, static_cast<std::uint64_t>(tr));
    h = fnv1a64(h, static_cast<std::uint64_t>(tk));
    return h;
}

PanelPlan make_panel_plan(std::int64_t rows, std::int64_t depth, std::int64_t tr,
                          std::int64_t tk) {
    assert(rows >= 0 && depth >= 0 && tr >= 1 && tk >= 1);
    PanelPlan plan;
    plan.rows = rows;
    plan.depth = depth;
    plan.tr = std::min(tr, std::max<std::int64_t>(rows, 1));
    plan.tk = std::min(tk, std::max<std::int64_t>(depth, 1));
    return plan;
}

PanelPlan make_conv_act_plan(std::int64_t positions, std::int64_t patch,
                             std::int64_t tr, std::int64_t tk) {
    PanelPlan plan = make_panel_plan(positions, patch, tr, tk);
    if (positions < 8)
        plan.tr = 1;
    else if (positions > 16 && positions < tr)
        plan.tr = std::min(tr, (positions + 15) / 16 * 16);
    return plan;
}

void pack_weight_panels_into(const std::uint16_t* wq, unsigned bits,
                             const PanelPlan& plan, std::int64_t taps,
                             std::uint32_t* codes, std::int64_t* sum_w) {
    AMRET_OBS_SPAN("kernels.pack_weights");
    assert(taps >= 1 && plan.depth % taps == 0);
    const std::int64_t tr = plan.tr, tk = plan.tk;
    const std::int64_t channels = plan.depth / taps;
    const std::int64_t kblocks = plan.depth_blocks();
    const std::int64_t nblocks = plan.row_blocks();
    runtime::parallel_for(0, nblocks, runtime::grain_for(nblocks, 1),
                          [&](std::int64_t b0, std::int64_t b1) {
        for (std::int64_t rb = b0; rb < b1; ++rb) {
            std::uint32_t* block = codes + plan.panel_offset(rb, 0);
            std::fill(block, block + kblocks * plan.panel_elems(),
                      std::uint32_t{0});
            const std::int64_t pr = plan.block_rows(rb);
            for (std::int64_t rr = 0; rr < pr; ++rr) {
                const std::int64_t row = rb * tr + rr;
                const std::uint16_t* src = wq + row * plan.depth;
                std::int64_t sum = 0;
                for (std::int64_t kb = 0; kb < kblocks; ++kb) {
                    std::uint32_t* panel = block + kb * plan.panel_elems();
                    const std::int64_t kr = plan.block_depth(kb);
                    const std::int64_t kbase = kb * tk;
                    for (std::int64_t kk = 0; kk < kr; ++kk) {
                        // Panel depth d = t * C + c holds im2col column
                        // c * taps + t.
                        const std::int64_t d = kbase + kk;
                        const std::uint32_t code =
                            src[(d % channels) * taps + d / channels];
                        panel[kk * tr + rr] = code << bits;
                        sum += code;
                    }
                }
                sum_w[row] = sum;
            }
        }
    });
}

void pad_sums_into(const std::uint16_t* wq, unsigned bits, std::int64_t rows,
                   std::int64_t depth, std::int64_t taps,
                   const std::int32_t* lut, std::uint16_t z_pad,
                   std::int64_t* pad_sum) {
    runtime::parallel_for(0, rows, runtime::grain_for(rows, tune::kGrainSumRows),
                          [&](std::int64_t o0, std::int64_t o1) {
        for (std::int64_t o = o0; o < o1; ++o) {
            const std::uint16_t* src = wq + o * depth;
            std::int64_t* dst = pad_sum + o * taps;
            std::fill(dst, dst + taps, std::int64_t{0});
            for (std::int64_t kk = 0; kk < depth; ++kk)
                dst[kk % taps] +=
                    lut[(static_cast<std::uint32_t>(src[kk]) << bits) | z_pad];
        }
    });
}

WeightPanels pack_conv_weight_panels(const std::uint16_t* wq, unsigned bits,
                                     const PanelPlan& plan,
                                     const tensor::ConvGeom& geom,
                                     const std::int32_t* lut,
                                     std::uint16_t z_pad, Workspace& ws) {
    assert(plan.depth == geom.patch());
    const std::int64_t taps = geom.kernel * geom.kernel;
    std::uint32_t* codes = ws.alloc<std::uint32_t>(plan.elems());
    std::int64_t* sums = ws.alloc<std::int64_t>(plan.rows);
    pack_weight_panels_into(wq, bits, plan, taps, codes, sums);
    std::int64_t* pad_sum = nullptr;
    if (geom.pad > 0) {
        pad_sum = ws.alloc<std::int64_t>(plan.rows * taps);
        pad_sums_into(wq, bits, plan.rows, plan.depth, taps, lut, z_pad, pad_sum);
    }
    return WeightPanels{plan, codes, sums, pad_sum};
}

ActPanels pack_activation_panels(const std::uint16_t* xq, const PanelPlan& plan,
                                 Workspace& ws) {
    AMRET_OBS_SPAN("kernels.pack_acts");
    ActPanels x;
    x.plan = plan;
    std::uint16_t* codes = ws.alloc<std::uint16_t>(plan.elems());
    std::int64_t* sums = ws.alloc<std::int64_t>(plan.rows);
    const std::int64_t nblocks = plan.row_blocks();
    runtime::parallel_for(0, nblocks, runtime::grain_for(nblocks, 1),
                          [&](std::int64_t b0, std::int64_t b1) {
        pack_rows_fused(plan, codes, sums, b0, b1, [&](std::int64_t row) {
            const std::uint16_t* src = xq + row * plan.depth;
            return [src](std::int64_t kk) { return src[kk]; };
        });
    });
    x.codes = codes;
    x.sum_x = sums;
    return x;
}

void attach_packed4(ActPanels& x, unsigned bits, Workspace& ws,
                    std::int64_t grain) {
    const PanelPlan& plan = x.plan;
    if (bits > 4 || plan.tr % 16 != 0) return;
    AMRET_OBS_SPAN("kernels.pack_nibbles");
    std::uint8_t* packed = ws.alloc<std::uint8_t>(plan.elems() / 2);
    const std::int64_t tr = plan.tr, tk = plan.tk;
    const std::int64_t half = plan.panel_elems() / 2;
    const std::int64_t npanels = plan.row_blocks() * plan.depth_blocks();
    // Panels are row-block-major, so chunks of whole row blocks are
    // contiguous panel ranges.
    runtime::parallel_for(0, npanels, grain * plan.depth_blocks(),
                          [&](std::int64_t b0, std::int64_t b1) {
        for (std::int64_t pi = b0; pi < b1; ++pi) {
            const std::uint16_t* src = x.codes + pi * plan.panel_elems();
            std::uint8_t* dst = packed + pi * half;
            // Pad rows/lanes pack too (they hold code 0), so every byte of
            // the mirror is defined and the SIMD loop needs no edge cases.
            for (std::int64_t kk = 0; kk < tk; ++kk) {
                const std::uint16_t* srow = src + kk * tr;
                std::uint8_t* drow = dst + kk * (tr / 2);
                for (std::int64_t g0 = 0; g0 < tr; g0 += 16) {
                    std::uint8_t* gb = drow + (g0 / 16) * 8;
                    for (int j = 0; j < 8; ++j) {
                        assert(srow[g0 + j] < 16 && srow[g0 + 8 + j] < 16 &&
                               "attach_packed4 requires codes < 2^bits <= 16");
                        gb[j] = static_cast<std::uint8_t>(
                            (srow[g0 + j] & 0x0f) |
                            ((srow[g0 + 8 + j] & 0x0f) << 4));
                    }
                }
            }
        }
    });
    x.packed4 = packed;
}

void unpack_weight_panels(const WeightPanels& w, unsigned bits,
                          std::uint16_t* wq_out) {
    const PanelPlan& plan = w.plan;
    for (std::int64_t rb = 0; rb < plan.row_blocks(); ++rb) {
        const std::int64_t pr = plan.block_rows(rb);
        for (std::int64_t kb = 0; kb < plan.depth_blocks(); ++kb) {
            const std::uint32_t* panel = w.codes + plan.panel_offset(rb, kb);
            const std::int64_t kr = plan.block_depth(kb);
            for (std::int64_t kk = 0; kk < kr; ++kk)
                for (std::int64_t rr = 0; rr < pr; ++rr)
                    wq_out[(rb * plan.tr + rr) * plan.depth + kb * plan.tk + kk] =
                        static_cast<std::uint16_t>(panel[kk * plan.tr + rr] >> bits);
        }
    }
}

void unpack_activation_panels(const ActPanels& x, std::uint16_t* xq_out) {
    const PanelPlan& plan = x.plan;
    for (std::int64_t rb = 0; rb < plan.row_blocks(); ++rb) {
        const std::int64_t pr = plan.block_rows(rb);
        for (std::int64_t kb = 0; kb < plan.depth_blocks(); ++kb) {
            const std::uint16_t* panel = x.codes + plan.panel_offset(rb, kb);
            const std::int64_t kr = plan.block_depth(kb);
            for (std::int64_t kk = 0; kk < kr; ++kk)
                for (std::int64_t rr = 0; rr < pr; ++rr)
                    xq_out[(rb * plan.tr + rr) * plan.depth + kb * plan.tk + kk] =
                        panel[kk * plan.tr + rr];
        }
    }
}

ActPanels pack_im2col_panels_u8(const std::uint8_t* x,
                                const tensor::ConvGeom& geom,
                                std::uint16_t zero_point, const PanelPlan& plan,
                                Workspace& ws, unsigned bits,
                                std::int64_t grain) {
    AMRET_OBS_SPAN("kernels.im2col_panels");
    AMRET_OBS_COUNT("kernels.im2col.images", geom.batch);
    return gather_im2col_panels(
        geom, plan, bits, grain, ws,
        [x](std::int64_t, std::int64_t, std::int64_t i) {
            return static_cast<std::uint16_t>(x[i]);
        },
        [zero_point](std::int64_t, std::int64_t) { return zero_point; });
}

QuantPanels quantize_conv_panels(const float* x, const tensor::ConvGeom& geom,
                                 const quant::QuantParams& params,
                                 const PanelPlan& plan, std::int64_t grain,
                                 Workspace& ws) {
    AMRET_OBS_SPAN("kernels.im2col_panels");
    const std::int64_t depth = plan.depth;
    QuantPanels out;
    out.rows = QuantView{ws.alloc<std::uint16_t>(plan.rows * depth),
                         ws.alloc<std::uint8_t>(plan.rows * depth), params,
                         plan.rows * depth};
    // Each input element is quantized once into an NCHW code + mask plane,
    // and the taps are gathered from it. Out-of-image taps take the code and
    // mask of 0.0f, exactly what the zero-padded float im2col quantized to,
    // so codes and masks match im2col + quantize_into bit for bit.
    const QuantView plane = quantize_into(
        x, geom.batch * geom.in_ch * geom.in_h * geom.in_w, params, ws);
    const auto code0 = static_cast<std::uint16_t>(params.quantize(0.0f));
    const std::uint8_t mask0 = params.in_range(0.0f) ? 1 : 0;
    const QuantView& rows = out.rows;
    out.panels = gather_im2col_panels(
        geom, plan, params.bits, grain, ws,
        [&](std::int64_t row, std::int64_t d, std::int64_t i) {
            rows.codes[row * depth + d] = plane.codes[i];
            rows.in_range[row * depth + d] = plane.in_range[i];
            return plane.codes[i];
        },
        [&](std::int64_t row, std::int64_t d) {
            rows.codes[row * depth + d] = code0;
            rows.in_range[row * depth + d] = mask0;
            return code0;
        });
    return out;
}

} // namespace amret::kernels
