#include "core/grad_lut.hpp"

#include "kernels/tuning.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

#include <cassert>
#include <fstream>

namespace amret::core {

const char* gradient_mode_name(GradientMode mode) {
    switch (mode) {
        case GradientMode::kSte: return "ste";
        case GradientMode::kDifference: return "diff";
        case GradientMode::kTrue: return "true";
        case GradientMode::kCustom: return "custom";
    }
    return "?";
}

GradLut::GradLut(unsigned bits, std::vector<float> d_dw, std::vector<float> d_dx)
    : bits_(bits), d_dw_(std::move(d_dw)), d_dx_(std::move(d_dx)) {
    const std::size_t n = std::size_t{1} << bits;
    assert(d_dw_.size() == n * n);
    assert(d_dx_.size() == n * n);
    d_dx_t_.resize(d_dx_.size());
    for (std::size_t w = 0; w < n; ++w)
        for (std::size_t x = 0; x < n; ++x)
            d_dx_t_[(x << bits) | w] = d_dx_[(w << bits) | x];
}

bool GradLut::save(const std::string& path) const {
    std::ofstream f(path, std::ios::binary);
    if (!f) return false;
    const char magic[8] = {'A', 'M', 'G', 'R', 'A', 'D', '1', 0};
    f.write(magic, sizeof(magic));
    const std::uint32_t b = bits_;
    f.write(reinterpret_cast<const char*>(&b), sizeof(b));
    f.write(reinterpret_cast<const char*>(d_dw_.data()),
            static_cast<std::streamsize>(d_dw_.size() * sizeof(float)));
    f.write(reinterpret_cast<const char*>(d_dx_.data()),
            static_cast<std::streamsize>(d_dx_.size() * sizeof(float)));
    return static_cast<bool>(f);
}

GradLut GradLut::load(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    GradLut lut;
    if (!f) return lut;
    char magic[8];
    f.read(magic, sizeof(magic));
    if (!f || std::string(magic, 6) != "AMGRAD") return lut;
    std::uint32_t b = 0;
    f.read(reinterpret_cast<char*>(&b), sizeof(b));
    if (!f || b < 2 || b > 10) return lut;
    const std::size_t n = std::size_t{1} << (2 * b);
    std::vector<float> dw(n), dx(n);
    f.read(reinterpret_cast<char*>(dw.data()),
           static_cast<std::streamsize>(n * sizeof(float)));
    f.read(reinterpret_cast<char*>(dx.data()),
           static_cast<std::streamsize>(n * sizeof(float)));
    if (!f) return lut;
    return GradLut(b, std::move(dw), std::move(dx));
}

GradLut build_ste_grad(unsigned bits) {
    AMRET_OBS_SPAN("core.grad_lut.build_ste");
    AMRET_OBS_COUNT("core.grad_lut.builds", 1);
    const std::uint64_t n = std::uint64_t{1} << bits;
    std::vector<float> d_dw(n * n), d_dx(n * n);
    const auto rows = static_cast<std::int64_t>(n);
    runtime::parallel_for(0, rows, runtime::grain_for(rows, kernels::tune::kGrainSumRows),
                          [&](std::int64_t wb, std::int64_t we) {
        for (std::int64_t wi = wb; wi < we; ++wi) {
            const auto w = static_cast<std::uint64_t>(wi);
            for (std::uint64_t x = 0; x < n; ++x) {
                d_dw[(w << bits) | x] = static_cast<float>(x);
                d_dx[(w << bits) | x] = static_cast<float>(w);
            }
        }
    });
    return GradLut(bits, std::move(d_dw), std::move(d_dx));
}

namespace {

/// Fills d_dx for every row W_f (and, via `transpose`, d_dw for every
/// column X_f) using the row-wise difference gradient.
void fill_from_rows(const appmult::AppMultLut& lut, unsigned hws, bool transpose,
                    std::vector<float>& out) {
    const unsigned bits = lut.bits();
    const std::uint64_t n = lut.domain();
    const auto rows = static_cast<std::int64_t>(n);
    // Each `fixed` row writes a disjoint slice of `out`; the scratch row
    // buffer lives inside the chunk so chunks never share state.
    runtime::parallel_for(0, rows, runtime::grain_for(rows, kernels::tune::kGrainLutRows),
                          [&](std::int64_t fb, std::int64_t fe) {
        std::vector<double> row(n);
        for (std::int64_t fi = fb; fi < fe; ++fi) {
            const auto fixed = static_cast<std::uint64_t>(fi);
            for (std::uint64_t v = 0; v < n; ++v) {
                row[v] = transpose ? static_cast<double>(lut(v, fixed))
                                   : static_cast<double>(lut(fixed, v));
            }
            const std::vector<double> grad = difference_gradient_row(row, hws);
            for (std::uint64_t v = 0; v < n; ++v) {
                const std::uint64_t idx =
                    transpose ? ((v << bits) | fixed) : ((fixed << bits) | v);
                out[idx] = static_cast<float>(grad[v]);
            }
        }
    });
}

} // namespace

GradLut build_difference_grad(const appmult::AppMultLut& lut, unsigned hws) {
    AMRET_OBS_SPAN("core.grad_lut.build_difference");
    AMRET_OBS_COUNT("core.grad_lut.builds", 1);
    const std::uint64_t n = lut.domain();
    std::vector<float> d_dw(n * n), d_dx(n * n);
    fill_from_rows(lut, hws, /*transpose=*/false, d_dx); // rows: W fixed, vary X
    fill_from_rows(lut, hws, /*transpose=*/true, d_dw);  // cols: X fixed, vary W
    return GradLut(lut.bits(), std::move(d_dw), std::move(d_dx));
}

GradLut build_true_grad(const appmult::AppMultLut& lut) {
    return build_difference_grad(lut, 0);
}

GradLut build_custom_grad(
    unsigned bits,
    const std::function<double(std::uint64_t, std::uint64_t)>& d_dw,
    const std::function<double(std::uint64_t, std::uint64_t)>& d_dx) {
    const std::uint64_t n = std::uint64_t{1} << bits;
    std::vector<float> tw(n * n), tx(n * n);
    for (std::uint64_t w = 0; w < n; ++w) {
        for (std::uint64_t x = 0; x < n; ++x) {
            tw[(w << bits) | x] = static_cast<float>(d_dw(w, x));
            tx[(w << bits) | x] = static_cast<float>(d_dx(w, x));
        }
    }
    return GradLut(bits, std::move(tw), std::move(tx));
}

GenericGradTables build_difference_grad_generic(
    std::int64_t lo, std::size_t n,
    const std::function<double(std::int64_t, std::int64_t)>& fn, unsigned hws) {
    AMRET_OBS_SPAN("core.grad_lut.build_difference_generic");
    AMRET_OBS_COUNT("core.grad_lut.builds", 1);
    GenericGradTables tables;
    tables.lo = lo;
    tables.n = n;
    tables.d_dw.resize(n * n);
    tables.d_dx.resize(n * n);

    // Signed domains need the signed boundary slope: with a negative fixed
    // operand the row decreases, and Eq. (6)'s magnitude-only estimate would
    // flip the gradient's sign at the domain edges.
    const BoundaryRule rule =
        lo < 0 ? BoundaryRule::kSignedSlope : BoundaryRule::kPaperEq6;

    const auto rows = static_cast<std::int64_t>(n);
    // d/dx rows: w fixed. Each wi writes its own d_dx row.
    runtime::parallel_for(0, rows, runtime::grain_for(rows, kernels::tune::kGrainLutRows),
                          [&](std::int64_t wb, std::int64_t we) {
        std::vector<double> row(n);
        for (std::int64_t wv = wb; wv < we; ++wv) {
            const auto wi = static_cast<std::size_t>(wv);
            const std::int64_t w = lo + static_cast<std::int64_t>(wi);
            for (std::size_t xi = 0; xi < n; ++xi)
                row[xi] = fn(w, lo + static_cast<std::int64_t>(xi));
            const auto grad = difference_gradient_row(row, hws, rule);
            for (std::size_t xi = 0; xi < n; ++xi)
                tables.d_dx[wi * n + xi] = static_cast<float>(grad[xi]);
        }
    });
    // d/dw rows: x fixed. Each xi writes its own d_dw column.
    runtime::parallel_for(0, rows, runtime::grain_for(rows, kernels::tune::kGrainLutRows),
                          [&](std::int64_t xb, std::int64_t xe) {
        std::vector<double> row(n);
        for (std::int64_t xv = xb; xv < xe; ++xv) {
            const auto xi = static_cast<std::size_t>(xv);
            const std::int64_t x = lo + static_cast<std::int64_t>(xi);
            for (std::size_t wi = 0; wi < n; ++wi)
                row[wi] = fn(lo + static_cast<std::int64_t>(wi), x);
            const auto grad = difference_gradient_row(row, hws, rule);
            for (std::size_t wi = 0; wi < n; ++wi)
                tables.d_dw[wi * n + xi] = static_cast<float>(grad[wi]);
        }
    });
    return tables;
}

GradLut build_blended_grad(const appmult::AppMultLut& lut, unsigned hws,
                           float alpha) {
    assert(alpha >= 0.0f && alpha <= 1.0f);
    const GradLut diff = build_difference_grad(lut, hws);
    const GradLut ste = build_ste_grad(lut.bits());
    std::vector<float> dw(diff.dw_table().size()), dx(diff.dx_table().size());
    const auto total = static_cast<std::int64_t>(dw.size());
    runtime::parallel_for(0, total, runtime::grain_for(total, kernels::tune::kGrainElementwiseWide),
                          [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t iv = b; iv < e; ++iv) {
            const auto i = static_cast<std::size_t>(iv);
            dw[i] = alpha * diff.dw_table()[i] + (1.0f - alpha) * ste.dw_table()[i];
            dx[i] = alpha * diff.dx_table()[i] + (1.0f - alpha) * ste.dx_table()[i];
        }
    });
    return GradLut(lut.bits(), std::move(dw), std::move(dx));
}

GradLut build_grad(const appmult::AppMultLut& lut, GradientMode mode, unsigned hws) {
    switch (mode) {
        case GradientMode::kSte: return build_ste_grad(lut.bits());
        case GradientMode::kDifference: return build_difference_grad(lut, hws);
        case GradientMode::kTrue: return build_true_grad(lut);
        case GradientMode::kCustom: break;
    }
    assert(false && "kCustom requires build_custom_grad");
    return GradLut{};
}

} // namespace amret::core
