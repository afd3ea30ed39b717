#include "kernels/lut_kernels.hpp"

#include "kernels/simd/simd.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

namespace amret::kernels {

void lut_row_sums_x(const LutGemmArgs& args, std::int64_t p0, std::int64_t p1,
                    std::int64_t* sum_x) {
    for (std::int64_t pp = p0; pp < p1; ++pp) {
        const std::uint16_t* xrow = args.xq + pp * args.k;
        std::int64_t s = 0;
        for (std::int64_t kk = 0; kk < args.k; ++kk) s += xrow[kk];
        sum_x[pp] = s;
    }
}

void lut_row_sums_w(const LutGemmArgs& args, std::int64_t* sum_w) {
    runtime::parallel_for(0, args.o, runtime::grain_for(args.o, tune::kGrainSumRows),
                          [&](std::int64_t ob, std::int64_t oe) {
        for (std::int64_t i = ob; i < oe; ++i) {
            const std::uint16_t* row = args.wq + i * args.k;
            std::int64_t s = 0;
            for (std::int64_t kk = 0; kk < args.k; ++kk) s += row[kk];
            sum_w[i] = s;
        }
    });
}

void lut_forward(const LutGemmArgs& args, const float* bias, float* y,
                 Workspace& ws, const TileConfig& tile) {
    AMRET_OBS_SPAN("kernels.lut_forward");
    AMRET_OBS_COUNT("kernels.gemm.rows", args.p);
    AMRET_OBS_COUNT("kernels.gemm.tiles",
                    runtime::chunk_count(0, args.p,
                                         runtime::grain_for(args.p,
                                                            tune::kGrainGemmRows)) *
                        ((args.o + tile.to - 1) / tile.to));
    // Row sums for the Eq. (8) zero-point correction terms. Weight sums may
    // be hoisted by the caller (args.sum_w); activation sums are per call.
    const std::int64_t* sum_w = args.sum_w;
    if (sum_w == nullptr) {
        std::int64_t* sw = ws.alloc<std::int64_t>(args.o);
        lut_row_sums_w(args, sw);
        sum_w = sw;
    }
    std::int64_t* sum_x = ws.alloc<std::int64_t>(args.p);

    const std::int64_t grain = runtime::grain_for(args.p, tune::kGrainGemmRows);
    const std::int64_t chunks = runtime::chunk_count(0, args.p, grain);
    std::int64_t* acc = ws.alloc<std::int64_t>(chunks * tile.acc_elems());

    // Position rows of y are independent; each chunk owns a row range and
    // its own accumulator tile.
    runtime::parallel_for_chunks(0, args.p, grain,
                                 [&](std::int64_t pb, std::int64_t pe,
                                     std::size_t chunk) {
        lut_row_sums_x(args, pb, pe, sum_x);
        lut_gemm_tile(args, pb, pe, sum_w, sum_x, tile,
                      acc + static_cast<std::int64_t>(chunk) * tile.acc_elems(),
                      [&](std::int64_t pp, std::int64_t oo, std::int64_t corrected) {
            const float ss = args.row_scale_w(oo) * args.scale_x;
            y[pp * args.o + oo] =
                ss * static_cast<float>(corrected) + (bias ? bias[oo] : 0.0f);
        });
    });
}

void accumulate_bias_grad(const float* gyp, std::int64_t p, std::int64_t o,
                          float* bias_grad) {
    runtime::parallel_accumulate(
        0, p, runtime::grain_for(p, tune::kGrainBiasRows),
        static_cast<std::size_t>(o),
        [&](std::int64_t pidx, float* acc) {
            const float* row = gyp + pidx * o;
            for (std::int64_t c = 0; c < o; ++c) acc[c] += row[c];
        },
        bias_grad);
}

void lut_backward(const LutGemmArgs& args, const float* gyp,
                  const float* grad_w_lut, const float* grad_x_lut,
                  float* gw_raw, float* gx_raw, const TileConfig& tile) {
    AMRET_OBS_SPAN("kernels.lut_backward");
    AMRET_OBS_COUNT("kernels.gemm.backward_rows", args.p);
    const std::int64_t o_rows = args.o, p_rows = args.p, depth = args.k;
    const unsigned bits = args.bits;
    const float zx = static_cast<float>(args.zero_x);

    // Activation gradients: each position row of gx is owned by one chunk.
    // Output-channel blocks are visited in ascending order, so every
    // gx[p, k] element still accumulates over o in ascending order — the
    // float sums match the unblocked kernel bit for bit; blocking only keeps
    // the (to x tk) weight tile resident across the chunk's position rows.
    runtime::parallel_for(0, p_rows,
                          runtime::grain_for(p_rows, tune::kGrainGemmRows),
                          [&](std::int64_t pb, std::int64_t pe) {
        for (std::int64_t ob = 0; ob < o_rows; ob += tile.to) {
            const std::int64_t oe = std::min(ob + tile.to, o_rows);
            for (std::int64_t kb = 0; kb < depth; kb += tile.tk) {
                const std::int64_t ke = std::min(kb + tile.tk, depth);
                for (std::int64_t pp = pb; pp < pe; ++pp) {
                    const std::uint16_t* xrow = args.xq + pp * depth;
                    float* gxrow = gx_raw + pp * depth;
                    const float* gyrow = gyp + pp * o_rows;
                    for (std::int64_t oo = ob; oo < oe; ++oo) {
                        const float g = gyrow[oo];
                        if (g == 0.0f) continue;
                        // The row's weight scale is folded into the
                        // activation-gradient contribution here, since it
                        // varies per output channel in per-channel mode.
                        const float zw = static_cast<float>(args.row_zero_w(oo));
                        const float gx_scale = args.row_scale_w(oo);
                        const std::uint16_t* wrow = args.wq + oo * depth;
                        for (std::int64_t kk = kb; kk < ke; ++kk) {
                            const std::uint32_t idx =
                                (static_cast<std::uint32_t>(wrow[kk]) << bits) |
                                xrow[kk];
                            gxrow[kk] += g * gx_scale * (grad_x_lut[idx] - zw);
                        }
                    }
                }
            }
        }
    });

    // Weight gradients: iterate output channels outermost so each gw row is
    // owned by one chunk. Position blocks are visited in ascending order and
    // positions ascend within a block, so every gw[o, k] element accumulates
    // over p in the same ascending order as the unblocked kernel; blocking
    // keeps the (tp x tk) activation tile resident across the chunk's
    // output channels.
    runtime::parallel_for(0, o_rows,
                          runtime::grain_for(o_rows, tune::kGrainChannel),
                          [&](std::int64_t ob, std::int64_t oe) {
        for (std::int64_t pb = 0; pb < p_rows; pb += tile.tp) {
            const std::int64_t pe = std::min(pb + tile.tp, p_rows);
            for (std::int64_t oo = ob; oo < oe; ++oo) {
                const std::uint16_t* wrow = args.wq + oo * depth;
                float* gwrow = gw_raw + oo * depth;
                for (std::int64_t pp = pb; pp < pe; ++pp) {
                    const float g = gyp[pp * o_rows + oo];
                    if (g == 0.0f) continue;
                    const std::uint16_t* xrow = args.xq + pp * depth;
                    for (std::int64_t kk = 0; kk < depth; ++kk) {
                        const std::uint32_t idx =
                            (static_cast<std::uint32_t>(wrow[kk]) << bits) |
                            xrow[kk];
                        gwrow[kk] += g * (grad_w_lut[idx] - zx);
                    }
                }
            }
        }
    });
}

// ------------------------------------------------------ blocked kernels ----

bool lut_fits_u8(const std::int32_t* lut, unsigned bits) {
    if (bits > 4) return false;
    const std::int64_t n = std::int64_t{1} << (2 * bits);
    return std::all_of(lut, lut + n,
                       [](std::int32_t v) { return v >= 0 && v <= 255; });
}

void count_pad_skipped([[maybe_unused]] std::int64_t n) {
    AMRET_OBS_COUNT("kernels.gemm.pad_skipped", n);
}

void accumulate_panel_block_scalar(const BlockedGemmArgs& a, std::int64_t rb,
                                   std::int64_t ob, const DepthRuns& runs,
                                   std::int64_t* acc) {
    const PanelPlan& xp = a.x.plan;
    const PanelPlan& wp = a.w.plan;
    const std::int64_t tp = xp.tr, to = wp.tr;
    const std::int64_t pr = xp.block_rows(rb);
    const std::int64_t orr = wp.block_rows(ob);
    const std::int64_t kblocks = xp.depth_blocks();
    std::fill(acc, acc + orr * tp, std::int64_t{0});
    for (std::int64_t kb = 0; kb < kblocks; ++kb) {
        const std::int64_t kr = xp.block_depth(kb), kbase = kb * xp.tk;
        const std::uint16_t* xpan = a.x.codes + xp.panel_offset(rb, kb);
        const std::uint32_t* wpan = a.w.codes + wp.panel_offset(ob, kb);
        for (std::int64_t j = 0; j < runs.count; ++j) {
            const std::int64_t hi = runs.hi(j, kbase, kr);
            for (std::int64_t kk = runs.lo(j, kbase); kk < hi; ++kk) {
                const std::uint16_t* xv = xpan + kk * tp;
                const std::uint32_t* wv = wpan + kk * to;
                for (std::int64_t oo = 0; oo < orr; ++oo) {
                    const std::int32_t* lrow = a.lut + wv[oo];
                    std::int64_t* arow = acc + oo * tp;
                    for (std::int64_t pp = 0; pp < pr; ++pp)
                        arow[pp] += lrow[xv[pp]];
                }
            }
        }
    }
}

void accumulate_panel_block(const BlockedGemmArgs& a, bool lut_u8,
                            std::int64_t rb, std::int64_t ob,
                            const DepthRuns& runs, std::int64_t* acc) {
    if (!simd::accumulate_panel(a, lut_u8, rb, ob, runs, acc))
        accumulate_panel_block_scalar(a, rb, ob, runs, acc);
}

void lut_forward_blocked(const BlockedGemmArgs& args, const float* bias,
                         float* y, Workspace& ws) {
    AMRET_OBS_SPAN("kernels.lut_forward_blocked");
    AMRET_OBS_COUNT("kernels.gemm.rows", args.p);
    const std::int64_t nblocks = args.x.plan.row_blocks();
    const std::int64_t grain = runtime::grain_for(nblocks, 1);
    const std::int64_t chunks = runtime::chunk_count(0, nblocks, grain);
    const std::int64_t acc_elems = args.x.plan.tr * args.w.plan.tr;
    std::int64_t* acc = ws.alloc<std::int64_t>(chunks * acc_elems);
    // Position row-blocks write disjoint y rows; each chunk owns its own
    // accumulator tile. The epilogue matches the scalar kernel's float
    // expression exactly (per-element values are order-independent).
    runtime::parallel_for_chunks(0, nblocks, grain,
                                 [&](std::int64_t b0, std::int64_t b1,
                                     std::size_t chunk) {
        lut_gemm_blocked_tile(
            args, b0, b1, acc + static_cast<std::int64_t>(chunk) * acc_elems,
            [&](std::int64_t pp, std::int64_t oo, std::int64_t corrected) {
            const float ss = args.row_scale_w(oo) * args.scale_x;
            y[pp * args.o + oo] =
                ss * static_cast<float>(corrected) + (bias ? bias[oo] : 0.0f);
        });
    });
}

void lut_backward_rows(const LutGemmArgs& args, const float* gyp,
                       const float* grad_w_lut, const float* grad_x_lut_t,
                       float* gw_raw, float* gx_raw, Workspace& ws) {
    // Labelled for the blocked layout it serves; perfbench's trace fold
    // reads this name.
    AMRET_OBS_SPAN("kernels.lut_backward_blocked");
    AMRET_OBS_COUNT("kernels.gemm.backward_rows", args.p);
    const std::int64_t o_rows = args.o, p_rows = args.p, depth = args.k;

    // Activation gradients: one chunk owns each gx row. For every element
    // gx[p, k] the oracle accumulates g * s_w * (dX - Z_w) over output
    // channels in ascending o; here the row's nonzero gradients are
    // compacted once, in ascending o, and replayed per depth index — the
    // same float ops in the same order, so the sums match bit for bit.
    {
        const std::int64_t grain =
            runtime::grain_for(p_rows, tune::kGrainGemmRows);
        const std::int64_t chunks = runtime::chunk_count(0, p_rows, grain);
        std::int64_t* nz_off = ws.alloc<std::int64_t>(chunks * o_rows);
        float* nz_m = ws.alloc<float>(chunks * o_rows);
        float* nz_z = ws.alloc<float>(chunks * o_rows);
        runtime::parallel_for_chunks(0, p_rows, grain,
                                     [&](std::int64_t pb, std::int64_t pe,
                                         std::size_t chunk) {
            const std::int64_t base = static_cast<std::int64_t>(chunk) * o_rows;
            simd::GradRowArgs ga;
            ga.bits = args.bits;
            ga.ops = args.wq;
            ga.lut = grad_x_lut_t;
            ga.off = nz_off + base;
            ga.m = nz_m + base;
            ga.z = nz_z + base;
            ga.k = depth;
            for (std::int64_t pp = pb; pp < pe; ++pp) {
                const float* gyrow = gyp + pp * o_rows;
                std::int64_t cnt = 0;
                for (std::int64_t oo = 0; oo < o_rows; ++oo) {
                    if (gyrow[oo] == 0.0f) continue;
                    nz_off[base + cnt] = oo * depth;
                    nz_m[base + cnt] = gyrow[oo] * args.row_scale_w(oo);
                    nz_z[base + cnt] = static_cast<float>(args.row_zero_w(oo));
                    ++cnt;
                }
                if (cnt == 0) continue;
                ga.fixed = args.xq + pp * depth;
                ga.cnt = cnt;
                ga.out = gx_raw + pp * depth;
                simd::grad_x_row(ga);
            }
        });
    }

    // Weight gradients: one chunk owns each gw row. Per element gw[o, k] the
    // oracle accumulates g * (dW - Z_x) over positions in ascending p; the
    // column's nonzero gradients are compacted in ascending p and replayed
    // per depth index the same way.
    {
        const std::int64_t grain =
            runtime::grain_for(o_rows, tune::kGrainChannel);
        const std::int64_t chunks = runtime::chunk_count(0, o_rows, grain);
        std::int64_t* nz_off = ws.alloc<std::int64_t>(chunks * p_rows);
        float* nz_m = ws.alloc<float>(chunks * p_rows);
        float* nz_z = ws.alloc<float>(chunks * p_rows);
        const float zx = static_cast<float>(args.zero_x);
        runtime::parallel_for_chunks(0, o_rows, grain,
                                     [&](std::int64_t ob, std::int64_t oe,
                                         std::size_t chunk) {
            const std::int64_t base = static_cast<std::int64_t>(chunk) * p_rows;
            std::fill(nz_z + base, nz_z + base + p_rows, zx);
            simd::GradRowArgs ga;
            ga.bits = args.bits;
            ga.ops = args.xq;
            ga.lut = grad_w_lut;
            ga.off = nz_off + base;
            ga.m = nz_m + base;
            ga.z = nz_z + base;
            ga.k = depth;
            for (std::int64_t oo = ob; oo < oe; ++oo) {
                std::int64_t cnt = 0;
                for (std::int64_t pp = 0; pp < p_rows; ++pp) {
                    const float g = gyp[pp * o_rows + oo];
                    if (g == 0.0f) continue;
                    nz_off[base + cnt] = pp * depth;
                    nz_m[base + cnt] = g;
                    ++cnt;
                }
                if (cnt == 0) continue;
                ga.fixed = args.wq + oo * depth;
                ga.cnt = cnt;
                ga.out = gw_raw + oo * depth;
                simd::grad_w_row(ga);
            }
        });
    }
}

} // namespace amret::kernels
