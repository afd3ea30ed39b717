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

void lut_forward_blocked(const LutGemmArgs& args, const float* bias, float* y) {
    AMRET_OBS_SPAN("kernels.lut_forward_blocked");
    AMRET_OBS_COUNT("kernels.gemm.rows", args.p());
    // The epilogue is the naive forward's float expression (per-element
    // values are order-independent).
    lut_gemm_blocked(args, [&](std::int64_t pp, std::int64_t oo,
                               std::int64_t corrected) {
        const float ss = args.row_scale_w(oo) * args.scale_x;
        y[pp * args.o + oo] =
            ss * static_cast<float>(corrected) + (bias ? bias[oo] : 0.0f);
    });
}

namespace {

/// In-image taps of each output location s of \p geom, bit ky * K + kx,
/// into \p taps (OH * OW entries). Returns whether grad-W may skip by them:
/// only a padded conv has out-of-image taps, and only 32 taps (a 5x5
/// kernel) fit the bits.
bool location_taps(const tensor::ConvGeom& geom, std::uint32_t* taps) {
    const std::int64_t k = geom.kernel;
    const std::int64_t spatial = geom.out_h() * geom.out_w();
    if (geom.pad == 0 || k * k > 32) {
        std::fill(taps, taps + spatial, ~std::uint32_t{0});
        return false;
    }
    for (std::int64_t s = 0; s < spatial; ++s) {
        // Location-major row s * N is location s.
        const TapBox box = TapBox::of_rows(geom, s * geom.batch, s * geom.batch + 1);
        std::uint32_t bits = 0;
        for (std::int64_t ky = box.ky0; ky < box.ky1; ++ky)
            for (std::int64_t kx = box.kx0; kx < box.kx1; ++kx)
                bits |= std::uint32_t{1} << (ky * k + kx);
        taps[s] = bits;
    }
    return true;
}

} // namespace

void lut_backward_rows(const LutGemmArgs& args, const float* gyp,
                       const float* grad_w_lut, const float* grad_x_lut_t,
                       float* grad_w, float* gx, Workspace& ws) {
    // The span keeps the name perfbench's trace fold reads.
    AMRET_OBS_SPAN("kernels.lut_backward_blocked");
    AMRET_OBS_COUNT("kernels.gemm.backward_rows", args.p());
    assert(args.w_in_range != nullptr && args.x_in_range != nullptr);
    const tensor::ConvGeom& geom = args.geom;
    const std::int64_t o_rows = args.o, p_rows = args.p(), depth = args.k();
    const std::int64_t spatial = geom.out_h() * geom.out_w();
    const std::int64_t taps = geom.kernel * geom.kernel, c_in = geom.in_ch;
    // Both walks read the weight codes in the tap-major depth of the row
    // codes, which a 1x1 kernel's (O, C, K, K) order already is; for any
    // other kernel each grad-W chunk writes its filters' rows of a
    // tap-major copy, which grad-X reads after it.
    std::uint16_t* wq_copy =
        taps == 1 ? nullptr : ws.alloc<std::uint16_t>(o_rows * depth);
    const std::uint16_t* wq_taps = wq_copy ? wq_copy : args.wq;

    // Weight gradients: one chunk owns each filter. Per element gw[o, k]
    // the oracle accumulates g * (dW - Z_x) over positions in ascending p;
    // the column's nonzero gradients are compacted in ascending p, each
    // with its location's in-image taps, and replayed per depth index the
    // same way into the chunk's tap-major row, which is then folded into
    // the (O, C, K, K) weight gradient: times s_x where the weight's clamp
    // mask passes.
    {
        const std::int64_t grain = chunk_grain(o_rows, p_rows * depth);
        const std::int64_t chunks = runtime::chunk_count(0, o_rows, grain);
        std::uint32_t* loc_taps = ws.alloc<std::uint32_t>(spatial);
        const bool skip_pad = location_taps(geom, loc_taps);
        // Every term's zero point is Z_x: one array serves all chunks.
        float* zx = ws.alloc<float>(p_rows);
        std::fill(zx, zx + p_rows, static_cast<float>(args.zero_x));
        std::int64_t* nz_off = ws.alloc<std::int64_t>(chunks * p_rows);
        float* nz_m = ws.alloc<float>(chunks * p_rows);
        std::uint32_t* nz_taps = ws.alloc<std::uint32_t>(chunks * p_rows);
        float* rows = ws.alloc<float>(chunks * depth);
        runtime::parallel_for_chunks(0, o_rows, grain,
                                     [&](std::int64_t ob, std::int64_t oe,
                                         std::size_t chunk) {
            const std::int64_t base = static_cast<std::int64_t>(chunk) * p_rows;
            float* row = rows + static_cast<std::int64_t>(chunk) * depth;
            simd::GradRowArgs ga;
            ga.bits = args.bits;
            ga.ops = args.xq;
            ga.lut = grad_w_lut;
            ga.off = nz_off + base;
            ga.m = nz_m + base;
            ga.z = zx;
            ga.k = depth;
            ga.out = row;
            if (skip_pad) {
                ga.in_taps = nz_taps + base;
                ga.tap_lanes = c_in;
                ga.pad_code = static_cast<std::uint16_t>(args.zero_x);
            }
            [[maybe_unused]] std::int64_t skipped = 0;
            for (std::int64_t oo = ob; oo < oe; ++oo) {
                if (wq_copy)
                    for (std::int64_t c = 0; c < c_in; ++c)
                        for (std::int64_t t = 0; t < taps; ++t)
                            wq_copy[oo * depth + t * c_in + c] =
                                args.wq[oo * depth + c * taps + t];
                std::int64_t cnt = 0;
                for (std::int64_t n = 0, pp = 0; n < geom.batch; ++n)
                    for (std::int64_t s = 0; s < spatial; ++s, ++pp) {
                        const float g = gyp[pp * o_rows + oo];
                        if (g == 0.0f) continue;
                        nz_off[base + cnt] = pp * depth;
                        nz_m[base + cnt] = g;
                        nz_taps[base + cnt] = loc_taps[s];
                        ++cnt;
                    }
                if (cnt == 0) {
                    std::fill(row, row + depth, 0.0f);
                } else {
                    ga.fixed = wq_taps + oo * depth;
                    ga.cnt = cnt;
                    skipped += simd::grad_w_row(ga);
                }
                // Eq. (9)'s quantizer derivative: dW/dw = 1/s_w inside the
                // clamp range (0 outside), and dy/dY contributed s_w * s_x,
                // so the weight gradient's scale is s_x.
                float* wg = grad_w + oo * depth;
                const std::uint8_t* ok = args.w_in_range + oo * depth;
                for (std::int64_t c = 0; c < c_in; ++c)
                    for (std::int64_t t = 0; t < taps; ++t)
                        if (ok[c * taps + t])
                            wg[c * taps + t] += args.scale_x * row[t * c_in + c];
            }
            AMRET_OBS_COUNT("kernels.gemm.grad_w_pad_skipped", skipped);
        });
    }

    // Activation gradients: one chunk owns each gx row. For every element
    // gx[p, k] the oracle accumulates g * s_w * (dX - Z_w) over output
    // channels in ascending o; here the row's nonzero gradients are
    // compacted once, in ascending o, and replayed per depth index of the
    // row's in-image runs — the same float ops in the same order, so the
    // sums match bit for bit — and each sum is stored through the row's
    // clamp mask.
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
            ga.ops = wq_taps;
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
                float* out = gx + pp * depth;
                if (cnt == 0) {
                    for (std::int64_t j = 0; j < runs.count; ++j) {
                        float* run = out + runs.start + j * runs.stride;
                        std::fill(run, run + runs.len, 0.0f);
                    }
                    continue;
                }
                ga.fixed = args.xq + pp * depth;
                ga.cnt = cnt;
                ga.out = out;
                ga.mask = args.x_in_range + pp * depth;
                simd::grad_x_row(ga, runs);
            }
            AMRET_OBS_COUNT("kernels.gemm.grad_x_pad_skipped", skipped);
        });
    }
}

} // namespace amret::kernels
