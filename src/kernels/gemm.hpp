/// \file gemm.hpp
/// \brief The float GEMMs of the float path: the panel-packed forward
/// product c = a @ b^T with a fused bias/ReLU epilogue, and the two
/// backward products.
///
/// One kernel serves every float dot-product GEMM: float-mode ApproxConv2d
/// and ApproxLinear, nn::Linear, the integer engine's calibration conv and
/// its float head. B (n, k) is packed once into k-major panels of 16
/// columns; a register block of rows walks the depth and accumulates 16
/// outputs per row in one vector.
///
/// Numerical contract (DESIGN.md §15.8). Every output c[i][j] is one chain
///   acc = +0.0f; for kk ascending: acc = acc + a[i][kk] * b[j][kk]
/// of separate multiplies and adds (the kernels build with
/// -ffp-contract=off), then `acc + bias[j]` and `acc < 0 ? +0 : acc` when
/// asked — the naive dot product's float ops in its order. Lanes split
/// only across outputs and rows are independent, so the bits do not depend
/// on the ISA, the thread count or how many rows share a call: a batch
/// computes each row exactly as a batch of one does.
///
/// gemm_nn and gemm_tn are the backward's row-major products. They keep
/// the naive loops' zero-operand skip (a zero a-element contributes no
/// term, so a -0.0 sum stays -0.0) and per-element k order, and split
/// across chunks of output rows only.
#pragma once

#include "kernels/workspace.hpp"

#include <cstdint>

namespace amret::kernels {

/// Output columns per packed B panel.
inline constexpr std::int64_t kGemmPanelWidth = 16;

/// Floats a packed (n, k) B occupies: ceil(n / 16) panels of k x 16.
std::int64_t gemm_packed_size(std::int64_t n, std::int64_t k);

/// Packs row-major B (n, k) into k-major 16-column panels: element (j, kk)
/// lands at [(j / 16) * k * 16 + kk * 16 + j % 16]. Columns past n in the
/// last panel are zero-filled. \p packed holds gemm_packed_size(n, k).
void gemm_pack_b(const float* b, std::int64_t n, std::int64_t k, float* packed);

/// Optional epilogue of gemm_nt, applied to each finished dot product.
struct GemmEpilogue {
    const float* bias = nullptr; ///< (n) added to every row, or none
    bool relu = false;           ///< then v < 0 ? +0 : v, i.e. std::max(v, 0.0f)
};

/// c (m, n) = a (m, k) @ B^T from B packed by gemm_pack_b, then the
/// epilogue. a and c are row-major; c is overwritten. Parallel over chunks
/// of rows once the call is large enough; small calls run serially on the
/// caller.
void gemm_nt_packed(const float* a, const float* packed, std::int64_t m,
                    std::int64_t n, std::int64_t k, float* c,
                    GemmEpilogue epilogue = {});

/// gemm_nt_packed for a row-major B (n, k), packed into \p ws first.
void gemm_nt(const float* a, const float* b, std::int64_t m, std::int64_t n,
             std::int64_t k, float* c, Workspace& ws,
             GemmEpilogue epilogue = {});

/// c (m, n) = a (m, k) @ b (k, n); c is overwritten. Row i accumulates
/// a[i][kk] * b[kk][:] for kk ascending, skipping a[i][kk] == 0.
void gemm_nn(const float* a, const float* b, std::int64_t m, std::int64_t n,
             std::int64_t k, float* c);

/// c (m, n) = a^T @ b for a (k, m), b (k, n); c is overwritten. Element
/// (i, j) accumulates a[kk][i] * b[kk][j] for kk ascending, skipping
/// a[kk][i] == 0.
void gemm_tn(const float* a, const float* b, std::int64_t m, std::int64_t n,
             std::int64_t k, float* c);

} // namespace amret::kernels
