#include "kernels/lut_kernels.hpp"

#include "kernels/simd/simd.hpp"
#include "kernels/tuning.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

namespace amret::kernels {

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

// ---------------------------------------------------------------- forward ----

bool lut_fits_u8(const std::int32_t* lut, unsigned bits) {
    if (bits > 4) return false;
    const std::int64_t n = std::int64_t{1} << (2 * bits);
    return std::all_of(lut, lut + n,
                       [](std::int32_t v) { return v >= 0 && v <= 255; });
}

void count_pad_skipped([[maybe_unused]] std::int64_t n) {
    AMRET_OBS_COUNT("kernels.gemm.pad_skipped", n);
}

void lut_forward_blocked(const LutGemmArgs& args, const float* bias,
                         float* y, Workspace& ws) {
    AMRET_OBS_SPAN("kernels.lut_forward_blocked");
    AMRET_OBS_COUNT("kernels.gemm.rows", args.p());
    // The epilogue is the naive forward's float expression (per-element
    // values are order-independent).
    lut_gemm_blocked(args, ws, [&](std::int64_t pp, std::int64_t oo,
                                   std::int64_t corrected) {
        const float ss = args.row_scale_w(oo) * args.scale_x;
        y[pp * args.o + oo] =
            ss * static_cast<float>(corrected) + (bias ? bias[oo] : 0.0f);
    });
}

void lut_backward_rows(const LutGemmArgs& args, const float* gyp,
                       const float* grad_w_lut, const float* grad_x_lut_t,
                       float* gw_raw, float* gx_raw, Workspace& ws) {
    // The span keeps the name perfbench's trace fold reads.
    AMRET_OBS_SPAN("kernels.lut_backward_blocked");
    AMRET_OBS_COUNT("kernels.gemm.backward_rows", args.p());
    const tensor::ConvGeom& geom = args.geom;
    const std::int64_t o_rows = args.o, p_rows = args.p(), depth = args.k();
    const std::int64_t spatial = geom.out_h() * geom.out_w();

    // Activation gradients: one chunk owns each gx row. For every element
    // gx[p, k] the oracle accumulates g * s_w * (dX - Z_w) over output
    // channels in ascending o; here the row's nonzero gradients are
    // compacted once, in ascending o, and replayed per depth index of the
    // row's in-image runs — the same float ops in the same order, so the
    // sums match bit for bit.
    {
        const std::int64_t grain = chunk_grain(p_rows, o_rows * depth);
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
            [[maybe_unused]] std::int64_t skipped = 0;
            for (std::int64_t pp = pb; pp < pe; ++pp) {
                // Im2col row n * OH * OW + s is location-major row s * N + n.
                const std::int64_t r =
                    (pp % spatial) * geom.batch + pp / spatial;
                const DepthRuns runs = TapBox::of_rows(geom, r, r + 1).runs(geom);
                skipped += depth - runs.depth();
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
                simd::grad_x_row(ga, runs);
            }
            AMRET_OBS_COUNT("kernels.gemm.grad_x_pad_skipped", skipped);
        });
    }

    // Weight gradients: one chunk owns each gw row. Per element gw[o, k] the
    // oracle accumulates g * (dW - Z_x) over positions in ascending p; the
    // column's nonzero gradients are compacted in ascending p and replayed
    // per depth index the same way.
    {
        const std::int64_t grain = chunk_grain(o_rows, p_rows * depth);
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
