/// \file gemm.cpp
/// \brief Float GEMMs (contract in gemm.hpp). Built with -ffp-contract=off:
/// this TU holds the baseline copy of the register-block walk and the
/// backward loops, whose multiply-then-add must never fuse into an FMA.

#include "kernels/gemm.hpp"

#include "kernels/simd/simd_internal.hpp"
#include "kernels/tuning.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

#include <algorithm>

#include "kernels/simd/gemm_f32.inl"

namespace amret::kernels {

void simd::detail::gemm_f32_rows_baseline(const simd::GemmF32Args& g,
                                          std::int64_t r0, std::int64_t r1) {
    simd::detail::gemm_f32_rows_impl<2, 4>(g, r0, r1);
}

namespace {

/// Side of gemm_tn's square output tile (16 KB of float accumulators).
constexpr std::int64_t kTnTile = 64;

/// fn(begin, end) over chunks of [0, count) at \p grain (chunk_grain, so a
/// call under tune::kMinChunkWork multiply-adds, e.g. a batch-1 head, is one
/// chunk); one direct call when a single chunk covers every item. Outputs
/// are independent, so the split never changes a bit.
template <class Fn>
void for_chunks(std::int64_t count, std::int64_t grain, const Fn& fn) {
    if (count <= 0) return;
    if (grain >= count) {
        fn(std::int64_t{0}, count);
        return;
    }
    runtime::parallel_for(0, count, grain, fn);
}

} // namespace

std::int64_t gemm_packed_size(std::int64_t n, std::int64_t k) {
    return (n + kGemmPanelWidth - 1) / kGemmPanelWidth * kGemmPanelWidth * k;
}

void gemm_pack_b(const float* b, std::int64_t n, std::int64_t k, float* packed) {
    const std::int64_t panels = (n + kGemmPanelWidth - 1) / kGemmPanelWidth;
    for (std::int64_t p = 0; p < panels; ++p) {
        float* panel = packed + p * k * kGemmPanelWidth;
        for (std::int64_t c = 0; c < kGemmPanelWidth; ++c) {
            const std::int64_t j = p * kGemmPanelWidth + c;
            if (j < n) {
                const float* brow = b + j * k;
                for (std::int64_t kk = 0; kk < k; ++kk)
                    panel[kk * kGemmPanelWidth + c] = brow[kk];
            } else {
                for (std::int64_t kk = 0; kk < k; ++kk)
                    panel[kk * kGemmPanelWidth + c] = 0.0f;
            }
        }
    }
}

void gemm_nt_packed(const float* a, const float* packed, std::int64_t m,
                    std::int64_t n, std::int64_t k, float* c,
                    GemmEpilogue epilogue) {
    AMRET_OBS_SPAN("kernels.gemm_f32");
    simd::GemmF32Args g;
    g.a = a;
    g.packed = packed;
    g.bias = epilogue.bias;
    g.relu = epilogue.relu;
    g.n = n;
    g.k = k;
    g.c = c;
    // Chunks hold whole 4-row blocks, the widest register block of any
    // level; the work per row counts the zero-filled tail columns too.
    const std::int64_t grain =
        chunk_grain(m, gemm_packed_size(n, k), /*align=*/4);
    for_chunks(m, grain, [&](std::int64_t r0, std::int64_t r1) {
        simd::gemm_f32_rows(g, r0, r1);
    });
}

void gemm_nt(const float* a, const float* b, std::int64_t m, std::int64_t n,
             std::int64_t k, float* c, Workspace& ws, GemmEpilogue epilogue) {
    float* packed = ws.alloc<float>(gemm_packed_size(n, k));
    gemm_pack_b(b, n, k, packed);
    gemm_nt_packed(a, packed, m, n, k, c, epilogue);
}

void gemm_nn(const float* a, const float* b, std::int64_t m, std::int64_t n,
             std::int64_t k, float* c) {
    AMRET_OBS_SPAN("kernels.gemm_f32");
    for_chunks(m, chunk_grain(m, n * k, 1), [&](std::int64_t ib, std::int64_t ie) {
        // ikj loop order: streams over b and c rows, cache-friendly.
        for (std::int64_t i = ib; i < ie; ++i) {
            float* crow = c + i * n;
            std::fill(crow, crow + n, 0.0f);
            for (std::int64_t kk = 0; kk < k; ++kk) {
                const float av = a[i * k + kk];
                if (av == 0.0f) continue;
                const float* brow = b + kk * n;
                for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
            }
        }
    });
}

void gemm_tn(const float* a, const float* b, std::int64_t m, std::int64_t n,
             std::int64_t k, float* c) {
    AMRET_OBS_SPAN("kernels.gemm_f32");
    // Every element of c reads all k rows of a and b, so the work splits
    // into tiles of c, each accumulated in an L1-resident stack buffer and
    // stored once: a chunk of whole rows would stream b once per chunk, and
    // a chunk of columns would write cache lines a neighbour chunk writes too.
    const std::int64_t row_tiles = (m + kTnTile - 1) / kTnTile;
    const std::int64_t col_tiles = (n + kTnTile - 1) / kTnTile;
    const std::int64_t tiles = row_tiles * col_tiles;
    for_chunks(tiles, chunk_grain(tiles, kTnTile * kTnTile * k, 1),
               [&](std::int64_t tb, std::int64_t te) {
        float acc[kTnTile * kTnTile];
        for (std::int64_t t = tb; t < te; ++t) {
            const std::int64_t i0 = t / col_tiles * kTnTile, j0 = t % col_tiles * kTnTile;
            const std::int64_t rows = std::min(kTnTile, m - i0);
            const std::int64_t cols = std::min(kTnTile, n - j0);
            std::fill(acc, acc + rows * kTnTile, 0.0f);
            for (std::int64_t kk = 0; kk < k; ++kk) {
                const float* arow = a + kk * m + i0;
                const float* brow = b + kk * n + j0;
                for (std::int64_t i = 0; i < rows; ++i) {
                    const float av = arow[i];
                    if (av == 0.0f) continue;
                    float* crow = acc + i * kTnTile;
                    for (std::int64_t j = 0; j < cols; ++j) crow[j] += av * brow[j];
                }
            }
            for (std::int64_t i = 0; i < rows; ++i)
                std::copy_n(acc + i * kTnTile, cols, c + (i0 + i) * n + j0);
        }
    });
}

} // namespace amret::kernels
