// Tests for the paper's core contribution: Eq. (4) smoothing, Eq. (5)/(6)
// difference-based gradients, the gradient LUT builders, and HWS selection.
#include "appmult/appmult.hpp"
#include "appmult/registry.hpp"
#include "core/grad_lut.hpp"
#include "core/hws.hpp"
#include "core/smoothing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <cstring>

namespace {

using namespace amret;
using appmult::AppMultLut;

// ------------------------------------------------------------- smoothing --

TEST(Smoothing, HwsZeroIsIdentity) {
    const std::vector<double> row = {3, 1, 4, 1, 5, 9, 2, 6};
    const auto s = core::smooth_row(row, 0);
    EXPECT_EQ(s, row);
}

TEST(Smoothing, ConstantRowUnchanged) {
    const std::vector<double> row(32, 7.5);
    const auto s = core::smooth_row(row, 4);
    for (double v : s) EXPECT_DOUBLE_EQ(v, 7.5);
}

TEST(Smoothing, MatchesNaiveWindowAverage) {
    std::vector<double> row(40);
    for (std::size_t i = 0; i < row.size(); ++i)
        row[i] = std::sin(0.3 * static_cast<double>(i)) * 10.0;
    const unsigned hws = 3;
    const auto s = core::smooth_row(row, hws);
    for (std::size_t x = hws; x + hws < row.size(); ++x) {
        double naive = 0.0;
        for (int d = -static_cast<int>(hws); d <= static_cast<int>(hws); ++d)
            naive += row[x + static_cast<std::size_t>(d + static_cast<int>(hws)) - hws];
        naive /= (2.0 * hws + 1.0);
        EXPECT_NEAR(s[x], naive, 1e-12) << "x=" << x;
    }
}

TEST(Smoothing, LinearRowPreservedInInterior) {
    // Moving average of a linear function is the same linear function.
    std::vector<double> row(64);
    for (std::size_t i = 0; i < row.size(); ++i) row[i] = 2.5 * static_cast<double>(i) + 1;
    const auto s = core::smooth_row(row, 5);
    for (std::size_t x = 5; x + 5 < row.size(); ++x)
        EXPECT_NEAR(s[x], row[x], 1e-9);
}

TEST(Smoothing, OversizedWindowGivesGlobalMean) {
    const std::vector<double> row = {0, 10};
    const auto s = core::smooth_row(row, 4);
    EXPECT_DOUBLE_EQ(s[0], 5.0);
    EXPECT_DOUBLE_EQ(s[1], 5.0);
}

TEST(Smoothing, EdgesKeepRawValues) {
    std::vector<double> row(16);
    for (std::size_t i = 0; i < row.size(); ++i) row[i] = static_cast<double>(i * i);
    const auto s = core::smooth_row(row, 3);
    for (std::size_t x = 0; x < 3; ++x) EXPECT_DOUBLE_EQ(s[x], row[x]);
    for (std::size_t x = 13; x < 16; ++x) EXPECT_DOUBLE_EQ(s[x], row[x]);
}

// -------------------------------------------------------------- gradient --

TEST(DiffGradient, LinearRowRecoversSlope) {
    std::vector<double> row(128);
    for (std::size_t i = 0; i < row.size(); ++i) row[i] = 3.0 * static_cast<double>(i);
    const auto g = core::difference_gradient_row(row, 4);
    for (std::size_t x = 5; x + 5 < row.size(); ++x)
        EXPECT_NEAR(g[x], 3.0, 1e-9) << "x=" << x;
}

TEST(DiffGradient, BoundaryUsesEqSix) {
    std::vector<double> row(32);
    for (std::size_t i = 0; i < row.size(); ++i) row[i] = static_cast<double>(i);
    const double eq6 = (31.0 - 0.0) / 32.0;
    const auto g = core::difference_gradient_row(row, 4);
    for (std::size_t x = 0; x <= 4; ++x) EXPECT_DOUBLE_EQ(g[x], eq6);
    for (std::size_t x = 27; x < 32; ++x) EXPECT_DOUBLE_EQ(g[x], eq6);
}

TEST(DiffGradient, StepRowPeaksAtStep) {
    // Stair: 0 for x < 32, 100 for x >= 32 (length 64).
    std::vector<double> row(64, 0.0);
    for (std::size_t i = 32; i < 64; ++i) row[i] = 100.0;
    const auto g = core::difference_gradient_row(row, 4);
    const auto peak = std::max_element(g.begin() + 5, g.end() - 5) - g.begin();
    EXPECT_NEAR(static_cast<double>(peak), 32.0, 1.5);
    // Far from the step the smoothed gradient vanishes.
    EXPECT_NEAR(g[16], 0.0, 1e-9);
    EXPECT_NEAR(g[48], 0.0, 1e-9);
}

TEST(DiffGradient, SmoothingSpreadsTheStep) {
    std::vector<double> row(64, 0.0);
    for (std::size_t i = 32; i < 64; ++i) row[i] = 90.0;
    const auto sharp = core::difference_gradient_row(row, 1);
    const auto smooth = core::difference_gradient_row(row, 8);
    // Larger window -> lower peak, wider support.
    const double sharp_peak = *std::max_element(sharp.begin(), sharp.end());
    const double smooth_peak = *std::max_element(smooth.begin(), smooth.end());
    EXPECT_GT(sharp_peak, smooth_peak);
    EXPECT_GT(smooth[26], 0.0); // nonzero before the step under wide smoothing
    EXPECT_DOUBLE_EQ(sharp[20], 0.0);
}

TEST(DiffGradient, OversizedWindowAllBoundary) {
    std::vector<double> row(16);
    for (std::size_t i = 0; i < row.size(); ++i) row[i] = static_cast<double>(2 * i);
    const auto g = core::difference_gradient_row(row, 8);
    const double eq6 = (30.0 - 0.0) / 16.0;
    for (double v : g) EXPECT_DOUBLE_EQ(v, eq6);
}

TEST(DiffGradient, MonotoneRowGivesNonNegativeGradient) {
    auto& reg = appmult::Registry::instance();
    const auto& lut = reg.lut("mul7u_rm6");
    // Truncated multipliers are monotone non-decreasing in X for fixed W.
    for (std::uint64_t wf : {10ull, 63ull, 127ull}) {
        std::vector<double> row(128);
        for (std::uint64_t x = 0; x < 128; ++x)
            row[x] = static_cast<double>(lut(wf, x));
        for (double g : core::difference_gradient_row(row, 4))
            EXPECT_GE(g, 0.0) << "wf=" << wf;
    }
}

TEST(SteGradient, ConstantRow) {
    const auto g = core::ste_gradient_row(10.0, 128);
    EXPECT_EQ(g.size(), 128u);
    for (double v : g) EXPECT_DOUBLE_EQ(v, 10.0);
}

// -------------------------------------------------------------- GradLut --

TEST(GradLut, SteTables) {
    const auto g = core::build_ste_grad(6);
    for (std::uint64_t w = 0; w < 64; w += 7)
        for (std::uint64_t x = 0; x < 64; x += 5) {
            EXPECT_FLOAT_EQ(g.dw(w, x), static_cast<float>(x));
            EXPECT_FLOAT_EQ(g.dx(w, x), static_cast<float>(w));
        }
}

// For the exact multiplier the smoothed difference gradient must coincide
// with the STE gradient in the window interior for every width/HWS combo.
class ExactGradEquivalence
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(ExactGradEquivalence, DiffEqualsSteInInterior) {
    const auto [bits, hws] = GetParam();
    const auto lut = AppMultLut::exact(bits);
    const auto diff = core::build_difference_grad(lut, hws);
    const std::uint64_t n = lut.domain();
    if (2 * static_cast<std::uint64_t>(hws) + 2 >= n) GTEST_SKIP();
    for (std::uint64_t w = 0; w < n; w += 3) {
        for (std::uint64_t x = hws + 1; x + hws + 1 < n; ++x) {
            ASSERT_NEAR(diff.dx(w, x), static_cast<float>(w), 1e-3)
                << "bits=" << bits << " hws=" << hws << " w=" << w << " x=" << x;
        }
        for (std::uint64_t ww = hws + 1; ww + hws + 1 < n; ++ww) {
            ASSERT_NEAR(diff.dw(ww, w), static_cast<float>(w), 1e-3);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndWindows, ExactGradEquivalence,
    ::testing::Combine(::testing::Values(4u, 6u, 7u),
                       ::testing::Values(1u, 2u, 4u, 8u)));

TEST(GradLut, ExactBoundaryCloseToSte) {
    const auto lut = AppMultLut::exact(7);
    const auto diff = core::build_difference_grad(lut, 4);
    // Eq. (6) for the exact multiplier row W_f: (W_f*(2^B-1) - 0)/2^B.
    for (std::uint64_t w : {5ull, 60ull, 127ull}) {
        const double expected = static_cast<double>(w) * 127.0 / 128.0;
        EXPECT_NEAR(diff.dx(w, 0), expected, 1e-3);
        EXPECT_NEAR(diff.dx(w, 127), expected, 1e-3);
    }
}

TEST(GradLut, Figure3Shape) {
    // Fig. 3: mul7u_rm6, W_f = 10, HWS = 4. The AppMult function jumps near
    // X = 31, 63, 95; the difference gradient must peak there and the STE
    // gradient is the constant 10.
    auto& reg = appmult::Registry::instance();
    const auto& lut = reg.lut("mul7u_rm6");
    const auto diff = core::build_difference_grad(lut, 4);
    const auto ste = core::build_ste_grad(7);

    std::vector<double> g(128);
    for (std::uint64_t x = 0; x < 128; ++x) g[x] = diff.dx(10, x);

    // Largest interior gradients cluster at the three jump points, clearly
    // exceeding the constant STE value of 10.
    for (std::uint64_t center : {32ull, 64ull, 96ull}) {
        double near_peak = 0.0;
        for (std::uint64_t x = center - 4; x <= center + 4; ++x)
            near_peak = std::max(near_peak, g[x]);
        EXPECT_GT(near_peak, 14.0) << "center " << center;
        EXPECT_GT(near_peak, g[center - 12]);
        EXPECT_GT(near_peak, g[center + 12]);
    }
    for (std::uint64_t x = 0; x < 128; ++x)
        EXPECT_FLOAT_EQ(ste.dx(10, x), 10.0f);
}

TEST(GradLut, TrueGradEqualsHwsZero) {
    auto& reg = appmult::Registry::instance();
    const auto& lut = reg.lut("mul6u_rm4");
    const auto a = core::build_true_grad(lut);
    const auto b = core::build_difference_grad(lut, 0);
    EXPECT_EQ(a.dx_table(), b.dx_table());
    EXPECT_EQ(a.dw_table(), b.dw_table());
}

TEST(GradLut, CustomBuilder) {
    const auto g = core::build_custom_grad(
        4, [](std::uint64_t w, std::uint64_t x) { return static_cast<double>(w + x); },
        [](std::uint64_t w, std::uint64_t x) { return static_cast<double>(w * x); });
    EXPECT_FLOAT_EQ(g.dw(3, 5), 8.0f);
    EXPECT_FLOAT_EQ(g.dx(3, 5), 15.0f);
}

TEST(GradLut, BuildGradDispatch) {
    const auto lut = AppMultLut::exact(5);
    const auto ste = core::build_grad(lut, core::GradientMode::kSte, 2);
    const auto diff = core::build_grad(lut, core::GradientMode::kDifference, 2);
    EXPECT_FLOAT_EQ(ste.dx(7, 9), 7.0f);
    EXPECT_NEAR(diff.dx(7, 9), 7.0f, 1e-3);
}

TEST(GradLut, GenericSignedBuilder) {
    // Signed exact multiplier over [-16, 16): interior d/dx equals w.
    const auto tables = core::build_difference_grad_generic(
        -16, 32,
        [](std::int64_t w, std::int64_t x) { return static_cast<double>(w * x); }, 2);
    EXPECT_EQ(tables.n, 32u);
    for (std::int64_t w = -16; w < 16; w += 5) {
        for (std::int64_t x = -12; x < 12; ++x) {
            const std::size_t idx = static_cast<std::size_t>((w + 16) * 32 + (x + 16));
            EXPECT_NEAR(tables.d_dx[idx], static_cast<double>(w), 1e-3)
                << "w=" << w << " x=" << x;
        }
    }
}

TEST(GradLut, ModeNames) {
    EXPECT_STREQ(core::gradient_mode_name(core::GradientMode::kSte), "ste");
    EXPECT_STREQ(core::gradient_mode_name(core::GradientMode::kDifference), "diff");
    EXPECT_STREQ(core::gradient_mode_name(core::GradientMode::kTrue), "true");
    EXPECT_STREQ(core::gradient_mode_name(core::GradientMode::kCustom), "custom");
}

// ------------------------------------------------------------------ HWS --

TEST(Hws, DefaultCandidatesMatchPaper) {
    const auto c = core::default_hws_candidates();
    EXPECT_EQ(c, (std::vector<unsigned>{1, 2, 4, 8, 16, 32, 64}));
}

TEST(Hws, SelectsArgmin) {
    const auto sel = core::select_hws({1, 2, 4, 8}, [](unsigned hws) {
        return std::abs(static_cast<double>(hws) - 4.2); // minimum at 4
    });
    EXPECT_EQ(sel.best_hws, 4u);
    EXPECT_EQ(sel.losses.size(), 4u);
    EXPECT_NEAR(sel.best_loss, 0.2, 1e-12);
}

TEST(Hws, EvaluatesEveryCandidateOnce) {
    int calls = 0;
    core::select_hws({1, 2, 4}, [&](unsigned) {
        ++calls;
        return 1.0;
    });
    EXPECT_EQ(calls, 3);
}

} // namespace

namespace {

TEST(GradLut, SaveLoadRoundTrip) {
    auto& reg = appmult::Registry::instance();
    const auto grad = core::build_difference_grad(reg.lut("mul6u_rm4"), 4);
    const std::string path = ::testing::TempDir() + "/amret_gradlut_rt.bin";
    ASSERT_TRUE(grad.save(path));
    const auto loaded = core::GradLut::load(path);
    ASSERT_FALSE(loaded.empty());
    EXPECT_EQ(loaded.bits(), 6u);
    EXPECT_EQ(loaded.dw_table(), grad.dw_table());
    EXPECT_EQ(loaded.dx_table(), grad.dx_table());
    std::remove(path.c_str());
}

TEST(GradLut, LoadMissingOrCorruptFails) {
    EXPECT_TRUE(core::GradLut::load("/no/such/grad.bin").empty());
}

/// True when dx_t_table() holds every dx_table() entry, bit for bit, at the
/// transposed index (x << bits) | w.
bool dx_t_is_exact_transpose(const core::GradLut& g) {
    const std::uint64_t n = std::uint64_t{1} << g.bits();
    if (g.dx_t_table().size() != g.dx_table().size()) return false;
    for (std::uint64_t w = 0; w < n; ++w)
        for (std::uint64_t x = 0; x < n; ++x)
            if (std::memcmp(&g.dx_t_table()[(x << g.bits()) | w],
                            &g.dx_table()[(w << g.bits()) | x],
                            sizeof(float)) != 0)
                return false;
    return true;
}

TEST(GradLut, TransposedDxTableIsTheExactTranspose) {
    auto& reg = appmult::Registry::instance();
    EXPECT_TRUE(dx_t_is_exact_transpose(core::build_ste_grad(8)));
    const auto diff = core::build_difference_grad(reg.lut("mul8u_rm8"), 8);
    EXPECT_TRUE(dx_t_is_exact_transpose(diff));
    const auto diff6 = core::build_difference_grad(reg.lut("mul6u_rm4"), 4);
    const std::string path = ::testing::TempDir() + "/amret_gradlut_t.bin";
    ASSERT_TRUE(diff6.save(path));
    const auto loaded = core::GradLut::load(path);
    std::remove(path.c_str());
    ASSERT_FALSE(loaded.empty());
    EXPECT_TRUE(dx_t_is_exact_transpose(loaded));
    EXPECT_EQ(loaded.dx_t_table(), diff6.dx_t_table());
}

} // namespace

namespace {

TEST(DiffGradient, SignedBoundarySlopeOnDecreasingRow) {
    std::vector<double> row(32);
    for (std::size_t i = 0; i < row.size(); ++i)
        row[i] = -3.0 * static_cast<double>(i);
    // Paper rule returns the magnitude; signed rule keeps the direction.
    EXPECT_DOUBLE_EQ(core::boundary_gradient(row), 93.0 / 32.0);
    EXPECT_DOUBLE_EQ(core::signed_boundary_gradient(row), -93.0 / 32.0);
    const auto g_paper =
        core::difference_gradient_row(row, 3, core::BoundaryRule::kPaperEq6);
    const auto g_signed =
        core::difference_gradient_row(row, 3, core::BoundaryRule::kSignedSlope);
    EXPECT_GT(g_paper[0], 0.0);
    EXPECT_LT(g_signed[0], 0.0);
    // The Eq. (5) interior is identical under both rules.
    for (std::size_t x = 4; x + 4 < row.size(); ++x)
        EXPECT_DOUBLE_EQ(g_paper[x], g_signed[x]);
}

TEST(DiffGradient, RulesCoincideOnMonotoneNonDecreasingRow) {
    std::vector<double> row(24);
    for (std::size_t i = 0; i < row.size(); ++i)
        row[i] = static_cast<double>(i * i);
    const auto a = core::difference_gradient_row(row, 2, core::BoundaryRule::kPaperEq6);
    const auto b =
        core::difference_gradient_row(row, 2, core::BoundaryRule::kSignedSlope);
    for (std::size_t x = 0; x < row.size(); ++x) EXPECT_DOUBLE_EQ(a[x], b[x]);
}

} // namespace

namespace {

TEST(GradLut, BlendedGradEndpoints) {
    auto& reg = appmult::Registry::instance();
    const auto& lut = reg.lut("mul6u_rm4");
    const auto diff = core::build_difference_grad(lut, 4);
    const auto ste = core::build_ste_grad(6);
    const auto pure_ste = core::build_blended_grad(lut, 4, 0.0f);
    const auto pure_diff = core::build_blended_grad(lut, 4, 1.0f);
    EXPECT_EQ(pure_ste.dx_table(), ste.dx_table());
    EXPECT_EQ(pure_diff.dx_table(), diff.dx_table());
}

TEST(GradLut, BlendedGradMidpointIsAverage) {
    auto& reg = appmult::Registry::instance();
    const auto& lut = reg.lut("mul6u_rm4");
    const auto diff = core::build_difference_grad(lut, 2);
    const auto ste = core::build_ste_grad(6);
    const auto half = core::build_blended_grad(lut, 2, 0.5f);
    for (std::uint64_t w = 0; w < 64; w += 9)
        for (std::uint64_t x = 0; x < 64; x += 7)
            EXPECT_NEAR(half.dx(w, x), 0.5f * (diff.dx(w, x) + ste.dx(w, x)), 1e-5f);
}

} // namespace
