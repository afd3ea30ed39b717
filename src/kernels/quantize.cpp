#include "kernels/quantize.hpp"

#include "kernels/tuning.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

#include <algorithm>

namespace amret::kernels {

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
        for (std::int64_t i = b; i < e; ++i) {
            const float v = src[i];
            view.codes[i] = static_cast<std::uint16_t>(params.quantize(v));
            view.in_range[i] = params.in_range(v) ? 1 : 0;
        }
    });
    return view;
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
            for (std::int64_t k = 0; k < patch; ++k) {
                const float v = w[oo * patch + k];
                view.codes[oo * patch + k] =
                    static_cast<std::uint16_t>(row.quantize(v));
                view.in_range[oo * patch + k] = row.in_range(v) ? 1 : 0;
            }
        }
    });
    return view;
}

} // namespace amret::kernels
