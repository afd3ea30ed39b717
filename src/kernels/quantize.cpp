#include "kernels/quantize.hpp"

#include "kernels/tuning.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

#include <algorithm>
#include <cassert>

namespace amret::kernels {

// Adding and subtracting 1.5 * 2^23 rounds the quotient half to even, as
// std::nearbyint does in the default rounding mode: exactly below 2^22 in
// magnitude, and a larger or infinite quotient keeps its sign and clamps to
// the same end of the code range. So codes and masks equal the out-of-line
// calls' for every finite and infinite value, with no libm call on a
// baseline target that lacks roundss.
void quantize_values(const float* src, std::int64_t n,
                     const quant::QuantParams& params, std::uint16_t* codes,
                     std::uint8_t* in_range) {
    constexpr float kRoundHalfEven = 12582912.0f; // 1.5 * 2^23
    const float scale = params.scale, zero_point = params.zero_point;
    const float qmax = params.qmax();
    for (std::int64_t i = 0; i < n; ++i) {
        const float q = src[i] / scale + zero_point;
        const float r = (q + kRoundHalfEven) - kRoundHalfEven;
        codes[i] = static_cast<std::uint16_t>(std::clamp(r, 0.0f, qmax));
        in_range[i] = q > -0.5f && q < qmax + 0.5f ? 1 : 0;
    }
}

QuantView quantize_into(const float* src, std::int64_t n,
                        const quant::QuantParams& params, Workspace& ws) {
    AMRET_OBS_SPAN("kernels.quantize");
    AMRET_OBS_COUNT("kernels.quantize.elems", n);
    QuantView view;
    view.params = params;
    view.size = n;
    view.codes = ws.alloc<std::uint16_t>(n);
    view.in_range = ws.alloc<std::uint8_t>(n);
    runtime::parallel_for(0, n,
                          runtime::grain_for(n, tune::kGrainElementwiseWide),
                          [&](std::int64_t b, std::int64_t e) {
        quantize_values(src + b, e - b, params, view.codes + b, view.in_range + b);
    });
    return view;
}

std::pair<float, float> min_max(const float* v, std::int64_t n, Workspace& ws) {
    assert(n > 0);
    const std::int64_t grain = runtime::grain_for(n, tune::kGrainElementwiseWide);
    const std::int64_t chunks = runtime::chunk_count(0, n, grain);
    float* lo = ws.alloc<float>(chunks);
    float* hi = ws.alloc<float>(chunks);
    runtime::parallel_for_chunks(0, n, grain,
                                 [&](std::int64_t b, std::int64_t e,
                                     std::size_t chunk) {
        lo[chunk] = *std::min_element(v + b, v + e);
        hi[chunk] = *std::max_element(v + b, v + e);
    });
    // Ascending chunks with strict comparisons keep the first extreme.
    float mn = lo[0], mx = hi[0];
    for (std::int64_t c = 1; c < chunks; ++c) {
        if (lo[c] < mn) mn = lo[c];
        if (hi[c] > mx) mx = hi[c];
    }
    return {mn, mx};
}

QuantView quantize_weights_per_tensor(const float* w, std::int64_t n,
                                      unsigned bits, Workspace& ws) {
    const auto [lo, hi] = min_max(w, n, ws);
    return quantize_into(w, n, quant::choose_params(lo, hi, bits), ws);
}

QuantView quantize_weights_per_channel(const float* w, std::int64_t o,
                                       std::int64_t patch, unsigned bits,
                                       float* scale_per_o,
                                       std::int32_t* zero_per_o, Workspace& ws) {
    AMRET_OBS_SPAN("kernels.quantize");
    AMRET_OBS_COUNT("kernels.quantize.elems", o * patch);
    QuantView view;
    view.size = o * patch;
    view.codes = ws.alloc<std::uint16_t>(view.size);
    view.in_range = ws.alloc<std::uint8_t>(view.size);
    // Per-channel rows are independent: range scan + quantization of each
    // filter touch only that filter's slice of the buffers.
    runtime::parallel_for(0, o, runtime::grain_for(o, tune::kGrainChannel),
                          [&](std::int64_t ob, std::int64_t oe) {
        for (std::int64_t oo = ob; oo < oe; ++oo) {
            float lo = w[oo * patch], hi = w[oo * patch];
            for (std::int64_t k = 1; k < patch; ++k) {
                lo = std::min(lo, w[oo * patch + k]);
                hi = std::max(hi, w[oo * patch + k]);
            }
            const quant::QuantParams row = quant::choose_params(lo, hi, bits);
            scale_per_o[oo] = row.scale;
            zero_per_o[oo] = static_cast<std::int32_t>(row.zero_point);
            quantize_values(w + oo * patch, patch, row, view.codes + oo * patch,
                            view.in_range + oo * patch);
        }
    });
    return view;
}

} // namespace amret::kernels
