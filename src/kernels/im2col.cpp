#include "kernels/im2col.hpp"

#include "kernels/tuning.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

#include <cassert>

namespace amret::kernels {

using tensor::ConvGeom;
using tensor::Shape;
using tensor::Tensor;

namespace {

/// Unfolds the receptive fields of one NCHW image's output pixels into
/// (out_h * out_w, patch) rows. Out-of-image taps read \p pad_value.
template <typename TIn, typename TOut>
void unfold_image(const TIn* px, const ConvGeom& geom, TOut pad_value, TOut* rows) {
    const std::int64_t oh = geom.out_h(), ow = geom.out_w();
    const std::int64_t patch = geom.patch();
    for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
            TOut* row = rows + (oy * ow + ox) * patch;
            std::int64_t idx = 0;
            for (std::int64_t c = 0; c < geom.in_ch; ++c) {
                const TIn* pc = px + c * geom.in_h * geom.in_w;
                for (std::int64_t ky = 0; ky < geom.kernel; ++ky) {
                    const std::int64_t iy = oy * geom.stride + ky - geom.pad;
                    for (std::int64_t kx = 0; kx < geom.kernel; ++kx, ++idx) {
                        const std::int64_t ix = ox * geom.stride + kx - geom.pad;
                        row[idx] = (iy >= 0 && iy < geom.in_h && ix >= 0 &&
                                    ix < geom.in_w)
                                       ? static_cast<TOut>(pc[iy * geom.in_w + ix])
                                       : pad_value;
                    }
                }
            }
        }
    }
}

} // namespace

void im2col(const float* x, const ConvGeom& geom, float* cols) {
    AMRET_OBS_SPAN("kernels.im2col");
    AMRET_OBS_COUNT("kernels.im2col.images", geom.batch);
    const std::int64_t image = geom.in_ch * geom.in_h * geom.in_w;
    const std::int64_t rows_per_image = geom.out_h() * geom.out_w();
    runtime::parallel_for(0, geom.batch, tune::kGrainChannel,
                          [&](std::int64_t nb, std::int64_t ne) {
        for (std::int64_t n = nb; n < ne; ++n)
            unfold_image(x + n * image, geom, 0.0f,
                         cols + n * rows_per_image * geom.patch());
    });
}

Tensor im2col(const Tensor& x, const ConvGeom& geom) {
    assert(x.rank() == 4);
    assert(x.dim(0) == geom.batch && x.dim(1) == geom.in_ch &&
           x.dim(2) == geom.in_h && x.dim(3) == geom.in_w);
    Tensor cols(Shape{geom.positions(), geom.patch()});
    im2col(x.data(), geom, cols.data());
    return cols;
}

void im2col_u8(const std::uint8_t* x, const ConvGeom& geom,
               std::uint16_t zero_point, std::uint16_t* cols) {
    AMRET_OBS_SPAN("kernels.im2col");
    AMRET_OBS_COUNT("kernels.im2col.images", geom.batch);
    const std::int64_t image = geom.in_ch * geom.in_h * geom.in_w;
    const std::int64_t rows_per_image = geom.out_h() * geom.out_w();
    runtime::parallel_for(0, geom.batch, tune::kGrainChannel,
                          [&](std::int64_t nb, std::int64_t ne) {
        for (std::int64_t n = nb; n < ne; ++n)
            unfold_image(x + n * image, geom, zero_point,
                         cols + n * rows_per_image * geom.patch());
    });
}

namespace {

/// The fold of col2im and col2im_tap_major: column (c, ky, kx) of a row is
/// at c * c_stride + (ky * K + kx) * t_stride. Images fold independently
/// (disjoint writes); within an image positions fold in ascending order,
/// and one position adds at most once to each pixel, so the tap order
/// within a row, and the thread count, leave every sum's order unchanged.
/// Out-of-image taps are skipped a whole tap (all channels) at a time.
void fold_columns(const float* cols, const ConvGeom& geom, std::int64_t c_stride,
                  std::int64_t t_stride, float* x) {
    AMRET_OBS_SPAN("kernels.col2im");
    AMRET_OBS_COUNT("kernels.col2im.images", geom.batch);
    const std::int64_t oh = geom.out_h(), ow = geom.out_w();
    const std::int64_t patch = geom.patch();
    const std::int64_t plane = geom.in_h * geom.in_w;
    const std::int64_t image = geom.in_ch * plane;
    runtime::parallel_for(0, geom.batch, tune::kGrainChannel,
                          [&](std::int64_t nb, std::int64_t ne) {
        for (std::int64_t n = nb; n < ne; ++n) {
            float* px = x + n * image;
            for (std::int64_t oy = 0; oy < oh; ++oy) {
                for (std::int64_t ox = 0; ox < ow; ++ox) {
                    const float* row = cols + ((n * oh + oy) * ow + ox) * patch;
                    for (std::int64_t ky = 0; ky < geom.kernel; ++ky) {
                        const std::int64_t iy = oy * geom.stride + ky - geom.pad;
                        if (iy < 0 || iy >= geom.in_h) continue;
                        for (std::int64_t kx = 0; kx < geom.kernel; ++kx) {
                            const std::int64_t ix = ox * geom.stride + kx - geom.pad;
                            if (ix < 0 || ix >= geom.in_w) continue;
                            const float* tap =
                                row + (ky * geom.kernel + kx) * t_stride;
                            float* dst = px + iy * geom.in_w + ix;
                            for (std::int64_t c = 0; c < geom.in_ch; ++c)
                                dst[c * plane] += tap[c * c_stride];
                        }
                    }
                }
            }
        }
    });
}

} // namespace

void col2im(const float* cols, const ConvGeom& geom, float* x) {
    fold_columns(cols, geom, geom.kernel * geom.kernel, 1, x);
}

void col2im_tap_major(const float* cols, const ConvGeom& geom, float* x) {
    fold_columns(cols, geom, 1, geom.in_ch, x);
}

Tensor col2im(const Tensor& cols, const ConvGeom& geom) {
    assert(cols.rank() == 2);
    assert(cols.dim(0) == geom.positions() && cols.dim(1) == geom.patch());
    Tensor x(Shape{geom.batch, geom.in_ch, geom.in_h, geom.in_w});
    col2im(cols.data(), geom, x.data());
    return x;
}

void scatter_positions(const float* po, std::int64_t n, std::int64_t o,
                       std::int64_t oh, std::int64_t ow, float* y) {
    const std::int64_t spatial = oh * ow;
    runtime::parallel_for(0, n * spatial,
                          runtime::grain_for(n * spatial, tune::kGrainCopyRows),
                          [&](std::int64_t pb, std::int64_t pe) {
        for (std::int64_t p = pb; p < pe; ++p) {
            const std::int64_t i = p / spatial, s = p % spatial;
            const float* row = po + p * o;
            for (std::int64_t c = 0; c < o; ++c) y[(i * o + c) * spatial + s] = row[c];
        }
    });
}

void gather_positions(const float* y, std::int64_t n, std::int64_t o,
                      std::int64_t oh, std::int64_t ow, float* po) {
    const std::int64_t spatial = oh * ow;
    runtime::parallel_for(0, n * spatial,
                          runtime::grain_for(n * spatial, tune::kGrainCopyRows),
                          [&](std::int64_t pb, std::int64_t pe) {
        for (std::int64_t p = pb; p < pe; ++p) {
            const std::int64_t i = p / spatial, s = p % spatial;
            float* row = po + p * o;
            for (std::int64_t c = 0; c < o; ++c) row[c] = y[(i * o + c) * spatial + s];
        }
    });
}

} // namespace amret::kernels
