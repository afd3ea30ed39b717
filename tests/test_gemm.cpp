// Tests for the float GEMMs (src/kernels/gemm.hpp): each kernel memcmp-equals
// its order-faithful naive reference (tests/gemm_oracle.hpp) at every
// runnable SIMD level, over shapes with row and column tails and inputs
// holding signed zeros, subnormals and infinities; a row computed alone
// equals the same row computed in a batch.
#include "gemm_oracle.hpp"

#include "kernels/gemm.hpp"
#include "kernels/simd/simd.hpp"
#include "kernels/workspace.hpp"
#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace {

using namespace amret;
using tensor::Shape;
using tensor::Tensor;
namespace simd = kernels::simd;

// ------------------------------------------------------- tensor wrappers --

Tensor gemm_nn(const Tensor& a, const Tensor& b) {
    Tensor c(Shape{a.dim(0), b.dim(1)});
    kernels::gemm_nn(a.data(), b.data(), a.dim(0), b.dim(1), a.dim(1), c.data());
    return c;
}

Tensor gemm_tn(const Tensor& a, const Tensor& b) {
    Tensor c(Shape{a.dim(1), b.dim(1)});
    kernels::gemm_tn(a.data(), b.data(), a.dim(1), b.dim(1), a.dim(0), c.data());
    return c;
}

Tensor gemm_nt(const Tensor& a, const Tensor& b, kernels::GemmEpilogue ep = {}) {
    kernels::Workspace ws;
    Tensor c(Shape{a.dim(0), b.dim(0)});
    kernels::gemm_nt(a.data(), b.data(), a.dim(0), b.dim(0), a.dim(1), c.data(),
                     ws, ep);
    return c;
}

bool same_bits(const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// randn with exact +0.0, -0.0 and subnormals mixed in, and one infinity
/// of sign \p inf_sign at (\p inf_row, cols / 2) when that row exists
/// (\p inf_sign == 0: none). Infinities stay rare, so most outputs remain
/// finite and their bits still say something.
Tensor special_randn(std::int64_t rows, std::int64_t cols, util::Rng& rng,
                     std::int64_t inf_row, float inf_sign) {
    Tensor t = Tensor::randn(Shape{rows, cols}, rng);
    const float tiny = std::numeric_limits<float>::denorm_min();
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        if (i % 7 == 3)
            t[i] = 0.0f;
        else if (i % 11 == 5)
            t[i] = -0.0f;
        else if (i % 13 == 6)
            t[i] = (i % 2 ? -1.0f : 1.0f) * tiny * static_cast<float>(1 + i % 1000);
    }
    if (inf_sign != 0.0f && inf_row < rows)
        t[inf_row * cols + cols / 2] = inf_sign * std::numeric_limits<float>::infinity();
    return t;
}

/// The SIMD levels this machine can run; the float GEMM maps kScalar and
/// kSsse3 to its baseline copy.
std::vector<simd::Isa> runnable_levels() {
    std::vector<simd::Isa> out;
    for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kSsse3,
                                simd::Isa::kAvx2, simd::Isa::kAvx512})
        if (simd::supported(isa)) out.push_back(isa);
    return out;
}

struct IsaScope {
    explicit IsaScope(simd::Isa isa) { simd::set_isa_for_test(isa); }
    ~IsaScope() { simd::clear_isa_override(); }
    IsaScope(const IsaScope&) = delete;
    IsaScope& operator=(const IsaScope&) = delete;
};

constexpr std::int64_t kMs[] = {1, 2, 3, 4, 5, 33};
constexpr std::int64_t kNs[] = {1, 10, 15, 16, 17, 130};
constexpr std::int64_t kKs[] = {1, 2, 27, 128, 1153};

std::string shape_tag(std::int64_t m, std::int64_t n, std::int64_t k) {
    return "m=" + std::to_string(m) + " n=" + std::to_string(n) +
           " k=" + std::to_string(k);
}

// ------------------------------------------------------------- matmul ----

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
    const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Tensor c(Shape{m, n});
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (std::int64_t kk = 0; kk < k; ++kk)
                acc += a[i * k + kk] * b[kk * n + j];
            c[i * n + j] = acc;
        }
    return c;
}

TEST(Matmul, MatchesNaive) {
    util::Rng rng(5);
    const Tensor a = Tensor::randn(Shape{7, 11}, rng);
    const Tensor b = Tensor::randn(Shape{11, 5}, rng);
    const Tensor c = gemm_nn(a, b);
    const Tensor ref = naive_matmul(a, b);
    for (std::int64_t i = 0; i < c.numel(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4);
}

TEST(Matmul, TransposedVariantsAgree) {
    util::Rng rng(6);
    const Tensor a = Tensor::randn(Shape{6, 9}, rng);  // (m, k)
    const Tensor b = Tensor::randn(Shape{9, 4}, rng);  // (k, n)
    const Tensor c = gemm_nn(a, b);

    // a^T stored as (k, m): gemm_tn(aT, b) == a b.
    Tensor at(Shape{9, 6});
    for (std::int64_t i = 0; i < 6; ++i)
        for (std::int64_t k = 0; k < 9; ++k) at[k * 6 + i] = a[i * 9 + k];
    const Tensor c_tn = gemm_tn(at, b);
    for (std::int64_t i = 0; i < c.numel(); ++i) EXPECT_NEAR(c_tn[i], c[i], 1e-4);

    // b^T stored as (n, k): gemm_nt(a, bT) == a b.
    Tensor bt(Shape{4, 9});
    for (std::int64_t k = 0; k < 9; ++k)
        for (std::int64_t j = 0; j < 4; ++j) bt[j * 9 + k] = b[k * 4 + j];
    const Tensor c_nt = gemm_nt(a, bt);
    for (std::int64_t i = 0; i < c.numel(); ++i) EXPECT_NEAR(c_nt[i], c[i], 1e-4);
}

// ----------------------------------------------------------- bitwise ----

TEST(GemmBitwise, NtMatchesOracleAtEveryLevel) {
    for (const simd::Isa isa : runnable_levels()) {
        const IsaScope scope(isa);
        for (const std::int64_t m : kMs)
            for (const std::int64_t n : kNs)
                for (const std::int64_t k : kKs) {
                    util::Rng rng(static_cast<std::uint64_t>(m * 1000003 + n * 1009 + k));
                    const Tensor a = special_randn(m, k, rng, 1, 1.0f);
                    const Tensor b = special_randn(n, k, rng, 2, -1.0f);
                    ASSERT_TRUE(same_bits(gemm_nt(a, b), gemm_oracle::matmul_nt(a, b)))
                        << simd::isa_name(isa) << " " << shape_tag(m, n, k);
                }
    }
}

TEST(GemmBitwise, NtEpilogueMatchesBiasThenMax) {
    // The fused epilogue is the naive `v = acc + bias; v = std::max(v, 0)`.
    for (const simd::Isa isa : runnable_levels()) {
        const IsaScope scope(isa);
        for (const std::int64_t n : kNs)
            for (const bool relu : {false, true}) {
                const std::int64_t m = 5, k = 27;
                util::Rng rng(static_cast<std::uint64_t>(n * 31 + relu));
                const Tensor a = special_randn(m, k, rng, 3, -1.0f);
                const Tensor b = special_randn(n, k, rng, 0, 1.0f);
                const Tensor bias = special_randn(1, n, rng, 0, n > 2 ? -1.0f : 0.0f);
                Tensor ref = gemm_oracle::matmul_nt(a, b);
                for (std::int64_t i = 0; i < m; ++i)
                    for (std::int64_t j = 0; j < n; ++j) {
                        float v = ref[i * n + j] + bias[j];
                        if (relu) v = std::max(v, 0.0f);
                        ref[i * n + j] = v;
                    }
                ASSERT_TRUE(same_bits(gemm_nt(a, b, {bias.data(), relu}), ref))
                    << simd::isa_name(isa) << " n=" << n << " relu=" << relu;
            }
    }
}

TEST(GemmBitwise, NnAndTnMatchOracle) {
    for (const std::int64_t m : kMs)
        for (const std::int64_t n : kNs)
            for (const std::int64_t k : kKs) {
                util::Rng rng(static_cast<std::uint64_t>(m * 7919 + n * 104729 + k));
                // Zeros in a meet infinities in b: the skip keeps 0 * inf
                // from turning a sum into NaN.
                const Tensor a = special_randn(m, k, rng, 1, 1.0f);
                const Tensor b = special_randn(k, n, rng, k / 2, -1.0f);
                ASSERT_TRUE(same_bits(gemm_nn(a, b), gemm_oracle::matmul(a, b)))
                    << shape_tag(m, n, k);
                const Tensor at = special_randn(k, m, rng, k / 3, 1.0f);
                ASSERT_TRUE(same_bits(gemm_tn(at, b), gemm_oracle::matmul_tn(at, b)))
                    << shape_tag(m, n, k);
            }
}

/// Row \p i of a (rows, cols) tensor as a (1, cols) tensor.
Tensor row_of(const Tensor& t, std::int64_t i) {
    Tensor r(Shape{1, t.dim(1)});
    std::copy_n(t.data() + i * t.dim(1), t.dim(1), r.data());
    return r;
}

TEST(GemmBitwise, RowAloneEqualsRowInBatch) {
    const std::int64_t m = 33, n = 130, k = 1153;
    util::Rng rng(42);
    const Tensor a = special_randn(m, k, rng, 1, 1.0f);
    const Tensor bt = special_randn(n, k, rng, 2, -1.0f); // (n, k)
    const Tensor b = special_randn(k, n, rng, 3, 1.0f);   // (k, n)
    const Tensor bias = special_randn(1, n, rng, 0, 0.0f);
    for (const simd::Isa isa : runnable_levels()) {
        const IsaScope scope(isa);
        const Tensor nt = gemm_nt(a, bt, {bias.data(), true});
        const Tensor nn = gemm_nn(a, b);
        for (std::int64_t i = 0; i < m; ++i) {
            const Tensor ai = row_of(a, i);
            EXPECT_TRUE(same_bits(gemm_nt(ai, bt, {bias.data(), true}), row_of(nt, i)))
                << simd::isa_name(isa) << " nt row " << i;
            EXPECT_TRUE(same_bits(gemm_nn(ai, b), row_of(nn, i))) << "nn row " << i;
        }
    }
    // gemm_tn's row i reads column i of its (k, m) operand.
    const Tensor at = special_randn(k, m, rng, 4, -1.0f);
    const Tensor tn = gemm_tn(at, b);
    for (std::int64_t i = 0; i < m; ++i) {
        Tensor col(Shape{k, 1});
        for (std::int64_t kk = 0; kk < k; ++kk) col[kk] = at[kk * m + i];
        EXPECT_TRUE(same_bits(gemm_tn(col, b), row_of(tn, i))) << "tn row " << i;
    }
}

TEST(GemmPack, PanelLayoutAndZeroTail) {
    const std::int64_t n = 20, k = 3;
    Tensor b(Shape{n, k});
    for (std::int64_t i = 0; i < b.numel(); ++i) b[i] = static_cast<float>(i + 1);
    ASSERT_EQ(kernels::gemm_packed_size(n, k), 2 * 16 * k);
    std::vector<float> packed(static_cast<std::size_t>(kernels::gemm_packed_size(n, k)), -1.0f);
    kernels::gemm_pack_b(b.data(), n, k, packed.data());
    for (std::int64_t j = 0; j < 32; ++j)
        for (std::int64_t kk = 0; kk < k; ++kk) {
            const float got =
                packed[static_cast<std::size_t>((j / 16) * k * 16 + kk * 16 + j % 16)];
            EXPECT_EQ(got, j < n ? b[j * k + kk] : 0.0f) << j << "," << kk;
        }
}

TEST(GemmShapes, EmptyDimensionsWriteNothingOrZeros) {
    // k == 0: every output is the empty chain, +0.0f.
    Tensor a(Shape{3, 0}), bt(Shape{5, 0});
    const Tensor c = gemm_nt(a, bt);
    for (std::int64_t i = 0; i < c.numel(); ++i) {
        EXPECT_EQ(c[i], 0.0f);
        EXPECT_FALSE(std::signbit(c[i]));
    }
    // m == 0: nothing to write.
    Tensor a0(Shape{0, 4}), b4(Shape{6, 4});
    EXPECT_EQ(gemm_nt(a0, b4).numel(), 0);
}

} // namespace
