// Order-faithful references for the float GEMMs in src/kernels/gemm.hpp:
// the naive loops the library used before the panel-packed kernel, kept
// verbatim. Each output's float ops, and their order, are the contract the
// kernels must reproduce bit for bit (tests/test_gemm.cpp); other tests use
// them as plain float references.
#pragma once

#include "tensor/tensor.hpp"

#include <cassert>
#include <cstdint>

namespace amret::gemm_oracle {

using tensor::Shape;
using tensor::Tensor;

/// c = a @ b for a: (m, k), b: (k, n). Skips zero a-elements.
inline Tensor matmul(const Tensor& a, const Tensor& b) {
    assert(a.rank() == 2 && b.rank() == 2);
    const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    assert(b.dim(0) == k);
    Tensor c(Shape{m, n});
    const float* pa = a.data();
    const float* pb = b.data();
    float* pc = c.data();
    // ikj loop order: streams over b and c rows, cache-friendly.
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t kk = 0; kk < k; ++kk) {
            const float av = pa[i * k + kk];
            if (av == 0.0f) continue;
            const float* brow = pb + kk * n;
            float* crow = pc + i * n;
            for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
    }
    return c;
}

/// c = a^T @ b for a: (k, m), b: (k, n). Skips zero a-elements.
inline Tensor matmul_tn(const Tensor& a, const Tensor& b) {
    assert(a.rank() == 2 && b.rank() == 2);
    const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
    assert(b.dim(0) == k);
    Tensor c(Shape{m, n});
    const float* pa = a.data();
    const float* pb = b.data();
    float* pc = c.data();
    for (std::int64_t kk = 0; kk < k; ++kk) {
        const float* arow = pa + kk * m;
        const float* brow = pb + kk * n;
        for (std::int64_t i = 0; i < m; ++i) {
            const float av = arow[i];
            if (av == 0.0f) continue;
            float* crow = pc + i * n;
            for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
    }
    return c;
}

/// c = a @ b^T for a: (m, k), b: (n, k). One ascending-k chain per output.
inline Tensor matmul_nt(const Tensor& a, const Tensor& b) {
    assert(a.rank() == 2 && b.rank() == 2);
    const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    assert(b.dim(1) == k);
    Tensor c(Shape{m, n});
    const float* pa = a.data();
    const float* pb = b.data();
    float* pc = c.data();
    for (std::int64_t i = 0; i < m; ++i) {
        const float* arow = pa + i * k;
        for (std::int64_t j = 0; j < n; ++j) {
            const float* brow = pb + j * k;
            float acc = 0.0f;
            for (std::int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
            pc[i * n + j] = acc;
        }
    }
    return c;
}

} // namespace amret::gemm_oracle
