// Tests for the tensor type and the conv layout transforms: reductions,
// elementwise ops, im2col/col2im. (im2col/col2im live in src/kernels; the
// GEMMs they feed are tested in test_gemm.cpp.)
#include "gemm_oracle.hpp"

#include "kernels/im2col.hpp"
#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

namespace {

using namespace amret;
using tensor::ConvGeom;
using tensor::Shape;
using tensor::Tensor;

TEST(Tensor, ConstructionAndFill) {
    Tensor t(Shape{2, 3});
    EXPECT_EQ(t.numel(), 6);
    EXPECT_EQ(t.rank(), 2u);
    for (std::int64_t i = 0; i < 6; ++i) EXPECT_EQ(t[i], 0.0f);
    t.fill(2.5f);
    EXPECT_FLOAT_EQ(t.sum(), 15.0f);
    EXPECT_FLOAT_EQ(t.mean(), 2.5f);
}

TEST(Tensor, ReshapePreservesData) {
    Tensor t = Tensor::from({1, 2, 3, 4, 5, 6});
    const Tensor r = t.reshaped(Shape{2, 3});
    EXPECT_EQ(r.dim(0), 2);
    EXPECT_EQ(r.dim(1), 3);
    EXPECT_FLOAT_EQ(r[5], 6.0f);
}

TEST(Tensor, ElementwiseOps) {
    Tensor a = Tensor::from({1, 2, 3});
    const Tensor b = Tensor::from({10, 20, 30});
    a.add_(b);
    EXPECT_FLOAT_EQ(a[2], 33.0f);
    a.axpy_(0.5f, b);
    EXPECT_FLOAT_EQ(a[0], 16.0f);
    a.scale(2.0f);
    EXPECT_FLOAT_EQ(a[0], 32.0f);
}

TEST(Tensor, Reductions) {
    const Tensor t = Tensor::from({-3, 4, 0});
    EXPECT_FLOAT_EQ(t.min(), -3.0f);
    EXPECT_FLOAT_EQ(t.max(), 4.0f);
    EXPECT_NEAR(t.rms(), std::sqrt(25.0f / 3.0f), 1e-6);
}

TEST(Tensor, RandnStatistics) {
    util::Rng rng(3);
    const Tensor t = Tensor::randn(Shape{10000}, rng, 2.0f);
    EXPECT_NEAR(t.mean(), 0.0f, 0.1f);
    EXPECT_NEAR(t.rms(), 2.0f, 0.1f);
}

TEST(Tensor, HeInitScale) {
    util::Rng rng(4);
    const Tensor t = Tensor::he_init(Shape{64, 50}, 50, rng);
    EXPECT_NEAR(t.rms(), std::sqrt(2.0f / 50.0f), 0.01f);
}

TEST(Im2col, IdentityKernelReproducesInput) {
    util::Rng rng(7);
    const Tensor x = Tensor::randn(Shape{2, 3, 4, 4}, rng);
    ConvGeom geom{2, 3, 4, 4, /*kernel=*/1, /*stride=*/1, /*pad=*/0};
    const Tensor cols = kernels::im2col(x, geom);
    EXPECT_EQ(cols.dim(0), 2 * 16);
    EXPECT_EQ(cols.dim(1), 3);
    // Row (n, y, x) col c equals x[n, c, y, x].
    for (std::int64_t n = 0; n < 2; ++n)
        for (std::int64_t y = 0; y < 4; ++y)
            for (std::int64_t xx = 0; xx < 4; ++xx)
                for (std::int64_t c = 0; c < 3; ++c)
                    EXPECT_FLOAT_EQ(cols[((n * 4 + y) * 4 + xx) * 3 + c],
                                    x[((n * 3 + c) * 4 + y) * 4 + xx]);
}

TEST(Im2col, PaddingProducesZeros) {
    const Tensor x = Tensor::full(Shape{1, 1, 2, 2}, 1.0f);
    ConvGeom geom{1, 1, 2, 2, 3, 1, 1};
    const Tensor cols = kernels::im2col(x, geom);
    // Top-left output position: kernel row 0 fully in padding.
    EXPECT_FLOAT_EQ(cols[0], 0.0f);
    EXPECT_FLOAT_EQ(cols[4], 1.0f); // center tap = x[0,0]
}

TEST(Im2col, StrideTwoGeometry) {
    ConvGeom geom{1, 2, 8, 8, 3, 2, 1};
    EXPECT_EQ(geom.out_h(), 4);
    EXPECT_EQ(geom.out_w(), 4);
    EXPECT_EQ(geom.patch(), 18);
    EXPECT_EQ(geom.positions(), 16);
}

TEST(Im2col, Col2imIsAdjoint) {
    // <u, im2col(v)> == <col2im(u), v> pins col2im as the exact transpose.
    util::Rng rng(8);
    ConvGeom geom{2, 3, 5, 5, 3, 2, 1};
    const Tensor v = Tensor::randn(Shape{2, 3, 5, 5}, rng);
    const Tensor iv = kernels::im2col(v, geom);
    const Tensor u = Tensor::randn(iv.shape(), rng);
    const Tensor cu = kernels::col2im(u, geom);

    double lhs = 0.0, rhs = 0.0;
    for (std::int64_t i = 0; i < u.numel(); ++i)
        lhs += static_cast<double>(u[i]) * iv[i];
    for (std::int64_t i = 0; i < v.numel(); ++i)
        rhs += static_cast<double>(cu[i]) * v[i];
    EXPECT_NEAR(lhs, rhs, 1e-3);

    // The tap-major fold is the transpose of the tap-major unfold: column
    // d = (ky * K + kx) * C + c of a row is im2col column c * K * K + ky * K
    // + kx. Over the same columns it is the same fold, bit for bit.
    const std::int64_t patch = geom.patch(), taps = geom.kernel * geom.kernel;
    Tensor ivt(iv.shape()), ut(u.shape());
    for (std::int64_t i = 0; i < u.numel(); ++i) {
        const std::int64_t p = i / patch, d = i % patch;
        const std::int64_t col =
            p * patch + (d % geom.in_ch) * taps + d / geom.in_ch;
        ivt[i] = iv[col];
        ut[i] = u[col];
    }
    Tensor cut(v.shape());
    kernels::col2im_tap_major(ut.data(), geom, cut.data());
    double lhs_t = 0.0, rhs_t = 0.0;
    for (std::int64_t i = 0; i < ut.numel(); ++i)
        lhs_t += static_cast<double>(ut[i]) * ivt[i];
    for (std::int64_t i = 0; i < v.numel(); ++i)
        rhs_t += static_cast<double>(cut[i]) * v[i];
    EXPECT_NEAR(lhs_t, rhs_t, 1e-3);
    EXPECT_EQ(std::memcmp(cut.data(), cu.data(),
                          static_cast<std::size_t>(cu.numel()) * sizeof(float)),
              0);
}

TEST(Im2col, ConvViaGemmMatchesDirectConv) {
    util::Rng rng(9);
    const std::int64_t n = 1, c = 2, h = 5, w = 5, o = 3, k = 3;
    const Tensor x = Tensor::randn(Shape{n, c, h, w}, rng);
    const Tensor wt = Tensor::randn(Shape{o, c, k, k}, rng);
    ConvGeom geom{n, c, h, w, k, 1, 1};

    const Tensor cols = kernels::im2col(x, geom);
    const Tensor w2d = wt.reshaped(Shape{o, c * k * k});
    const Tensor y = gemm_oracle::matmul_nt(cols, w2d); // (P, O)

    // Direct convolution reference.
    for (std::int64_t oy = 0; oy < h; ++oy) {
        for (std::int64_t ox = 0; ox < w; ++ox) {
            for (std::int64_t oc = 0; oc < o; ++oc) {
                float acc = 0.0f;
                for (std::int64_t ic = 0; ic < c; ++ic)
                    for (std::int64_t ky = 0; ky < k; ++ky)
                        for (std::int64_t kx = 0; kx < k; ++kx) {
                            const std::int64_t iy = oy + ky - 1, ix = ox + kx - 1;
                            if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                            acc += x[((0 * c + ic) * h + iy) * w + ix] *
                                   wt[(((oc * c + ic) * k + ky) * k + kx)];
                        }
                EXPECT_NEAR(y[(oy * w + ox) * o + oc], acc, 1e-4);
            }
        }
    }
}

TEST(Tensor, ShapeStr) {
    const Tensor t(Shape{2, 3, 4});
    EXPECT_EQ(t.shape_str(), "(2, 3, 4)");
}

} // namespace
