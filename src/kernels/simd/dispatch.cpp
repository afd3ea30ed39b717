/// \file dispatch.cpp
/// \brief Runtime ISA selection and eligibility routing for the SIMD
/// LUT-GEMM leaves (contract in simd.hpp; DESIGN.md section 17).

#include "kernels/simd/simd.hpp"

#include "kernels/simd/simd_internal.hpp"
#include "obs/obs.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

namespace amret::kernels::simd {

namespace {

constexpr int kIsaCount = 4;

const char* const kIsaNames[kIsaCount] = {"scalar", "ssse3", "avx2", "avx512"};

} // namespace

const char* isa_name(Isa isa) { return kIsaNames[static_cast<int>(isa)]; }

bool parse_isa(const char* s, Isa* out) {
    if (s == nullptr) return false;
    for (int i = 0; i < kIsaCount; ++i) {
        if (std::strcmp(s, kIsaNames[i]) == 0) {
            *out = static_cast<Isa>(i);
            return true;
        }
    }
    return false;
}

bool compiled(Isa isa) {
    switch (isa) {
    case Isa::kScalar: return true;
    case Isa::kSsse3: return detail::compiled_ssse3();
    case Isa::kAvx2: return detail::compiled_avx2();
    case Isa::kAvx512: return detail::compiled_avx512();
    }
    return false;
}

bool cpu_supports(Isa isa) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    switch (isa) {
    case Isa::kScalar: return true;
    case Isa::kSsse3: return __builtin_cpu_supports("ssse3") != 0;
    case Isa::kAvx2: return __builtin_cpu_supports("avx2") != 0;
    // The level's plane leaf needs byte shuffles and masks (BW) and
    // two-table byte permutes (VBMI); a CPU without them runs AVX2.
    case Isa::kAvx512:
        return __builtin_cpu_supports("avx512f") != 0 &&
               __builtin_cpu_supports("avx512bw") != 0 &&
               __builtin_cpu_supports("avx512vbmi") != 0;
    }
    return false;
#else
    return isa == Isa::kScalar;
#endif
}

bool supported(Isa isa) { return compiled(isa) && cpu_supports(isa); }

Isa max_supported() {
    for (int i = kIsaCount - 1; i > 0; --i) {
        if (supported(static_cast<Isa>(i))) return static_cast<Isa>(i);
    }
    return Isa::kScalar;
}

Isa resolve_request(const char* value) {
    const Isa best = max_supported();
    if (value == nullptr || value[0] == '\0') return best;
    Isa req = Isa::kScalar;
    if (!parse_isa(value, &req)) {
        obs::warn_once("simd.env_unknown",
                       std::string("AMRET_SIMD=") + value + // invariant-ok: once-per-process warning, not a kernel loop
                           " is not one of scalar|ssse3|avx2|avx512; using " +
                           isa_name(best));
        return best;
    }
    if (supported(req)) return req;
    // The env var is a cap, not a promise: fall back to the best supported
    // level at or below the request so CI matrices can set AMRET_SIMD
    // unconditionally and machines without the ISA still run correctly.
    Isa got = Isa::kScalar;
    for (int i = static_cast<int>(req) - 1; i > 0; --i) {
        if (supported(static_cast<Isa>(i))) {
            got = static_cast<Isa>(i);
            break;
        }
    }
    obs::warn_once("simd.env_unsupported",
                   std::string("AMRET_SIMD=") + value + // invariant-ok: once-per-process warning, not a kernel loop
                       " is not supported on this machine/build; using " +
                       isa_name(got));
    return got;
}

namespace {

// select() state: -1 = unresolved, otherwise an Isa. The test override sits
// in a second slot so clear_isa_override restores the cached env resolution.
std::atomic<int> g_selected{-1};
std::atomic<int> g_override{-1};

} // namespace

Isa select() {
    const int ov = g_override.load(std::memory_order_relaxed);
    if (ov >= 0) return static_cast<Isa>(ov);
    int sel = g_selected.load(std::memory_order_relaxed);
    if (sel < 0) {
        sel = static_cast<int>(resolve_request(std::getenv("AMRET_SIMD")));
        g_selected.store(sel, std::memory_order_relaxed);
    }
    return static_cast<Isa>(sel);
}

void set_isa_for_test(Isa isa) {
    g_override.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void clear_isa_override() { g_override.store(-1, std::memory_order_relaxed); }

void detail::acc_panel_scalar(const LutGemmArgs& a, std::int64_t rb,
                              std::int64_t ob, const DepthRuns& runs,
                              std::int64_t* acc) {
    const PanelPlan& xp = a.x.plan;
    const PanelPlan& wp = a.w.plan;
    const std::int64_t tp = xp.tr, to = wp.tr;
    const std::int64_t pr = xp.block_rows(rb);
    const std::int64_t orr = wp.block_rows(ob);
    const std::int64_t kblocks = xp.depth_blocks();
    std::fill(acc, acc + orr * tp, std::int64_t{0});
    for (std::int64_t kb = 0; kb < kblocks; ++kb) {
        const std::int64_t kr = xp.block_depth(kb), kbase = kb * xp.tk;
        const std::uint16_t* xpan = a.x.codes + xp.panel_offset(rb, kb);
        const std::uint32_t* wpan = a.w.codes + wp.panel_offset(ob, kb);
        for (std::int64_t j = 0; j < runs.count; ++j) {
            const std::int64_t hi = runs.hi(j, kbase, kr);
            for (std::int64_t kk = runs.lo(j, kbase); kk < hi; ++kk) {
                const std::uint16_t* xv = xpan + kk * tp;
                const std::uint32_t* wv = wpan + kk * to;
                for (std::int64_t oo = 0; oo < orr; ++oo) {
                    const std::int32_t* lrow = a.lut + wv[oo];
                    std::int64_t* arow = acc + oo * tp;
                    for (std::int64_t pp = 0; pp < pr; ++pp)
                        arow[pp] += lrow[xv[pp]];
                }
            }
        }
    }
}

void accumulate_panel(const LutGemmArgs& a, bool lut_u8, std::int64_t rb,
                      std::int64_t ob, const DepthRuns& runs, std::int64_t* acc) {
    const Isa isa = select();
    const bool nibble = a.bits <= 4 && a.x.packed4 != nullptr &&
                        a.x.plan.tr % 16 == 0 && lut_u8;
    // Leaves are chosen by the block's real rows: a ragged tail block runs
    // the leaf of its own width.
    const std::int64_t rows = a.x.plan.block_rows(rb);
    switch (isa) {
    case Isa::kScalar: break;
    case Isa::kSsse3:
        if (!nibble) break;
        detail::acc_panel_nibble_ssse3(a, rb, ob, runs, acc);
        AMRET_OBS_COUNT("kernels.simd.panels.ssse3", 1);
        return;
    case Isa::kAvx2:
        if (nibble)
            detail::acc_panel_nibble_avx2(a, rb, ob, runs, acc);
        else if (rows < 8)
            detail::acc_panel_olanes_avx2(a, rb, ob, runs, acc);
        else
            detail::acc_panel_gather_avx2(a, rb, ob, runs, acc);
        AMRET_OBS_COUNT("kernels.simd.panels.avx2", 1);
        return;
    case Isa::kAvx512:
        // The byte-table path beats gathers even at 512-bit width, and the
        // 8-lane output-channel leaf beat a 16-lane copy on narrow blocks;
        // the AVX2-TU copies run VEX-encoded, which is fine under AVX-512.
        // The plane leaf loads a weight's planes once per 64 lanes, so it
        // takes blocks of 32 rows or more; narrower ones gather, where 16
        // lanes pay for each lookup they make.
        if (nibble) {
            detail::acc_panel_nibble_avx2(a, rb, ob, runs, acc);
        } else if (rows < 8) {
            detail::acc_panel_olanes_avx2(a, rb, ob, runs, acc);
        } else if (rows >= 32 && a.lut_planes != nullptr) {
            detail::acc_panel_planes_avx512(a, rb, ob, runs, acc);
            AMRET_OBS_COUNT("kernels.simd.plane_tiles", 1);
        } else {
            detail::acc_panel_gather_avx512(a, rb, ob, runs, acc);
        }
        AMRET_OBS_COUNT("kernels.simd.panels.avx512", 1);
        return;
    }
    detail::acc_panel_scalar(a, rb, ob, runs, acc);
}

std::int64_t detail::grad_row_scalar(const GradRowArgs& a, std::int64_t kk0) {
    std::int64_t skipped = 0;
    for (std::int64_t kk = kk0; kk < a.k; ++kk) {
        const std::uint32_t row = static_cast<std::uint32_t>(a.fixed[kk])
                                  << a.bits;
        const std::uint32_t tap = a.in_taps && a.cnt > 0 ? a.taps_of(kk, 1) : 0;
        const float d = tap != 0 ? a.lut[row | a.pad_code] - a.z[0] : 0.0f;
        float acc = 0.0f;
        for (std::int64_t j = 0; j < a.cnt; ++j) {
            if (tap != 0 && (a.in_taps[j] & tap) == 0) {
                acc += a.m[j] * d;
                ++skipped;
            } else {
                acc += a.m[j] * (a.lut[row | a.ops[a.off[j] + kk]] - a.z[j]);
            }
        }
        a.out[kk] = a.mask && a.mask[kk] == 0 ? 0.0f : acc;
    }
    return skipped;
}

namespace {

/// Walks the row with the widest leaf level \p isa has.
std::int64_t grad_row(Isa isa, const GradRowArgs& a) {
    if (isa == Isa::kAvx512) return detail::grad_row_avx512(a);
    if (isa == Isa::kAvx2) return detail::grad_row_avx2(a, 0);
    return detail::grad_row_scalar(a, 0);
}

} // namespace

void grad_x_row(const GradRowArgs& a, const DepthRuns& runs) {
    const Isa isa = select();
    for (std::int64_t j = 0; j < runs.count; ++j) {
        const std::int64_t start = runs.start + j * runs.stride;
        GradRowArgs run = a;
        run.fixed += start;
        run.ops += start;
        run.out += start;
        if (run.mask) run.mask += start;
        run.k = runs.len;
        grad_row(isa, run);
    }
    switch (isa) {
    case Isa::kAvx512:
        AMRET_OBS_COUNT("kernels.simd.grad_x_blocks.avx512", 1);
        break;
    case Isa::kAvx2:
        AMRET_OBS_COUNT("kernels.simd.grad_x_blocks.avx2", 1);
        break;
    default: break;
    }
}

std::int64_t grad_w_row(const GradRowArgs& a) {
    const Isa isa = select();
    const std::int64_t skipped = grad_row(isa, a);
    switch (isa) {
    case Isa::kAvx512:
        AMRET_OBS_COUNT("kernels.simd.grad_w_blocks.avx512", 1);
        break;
    case Isa::kAvx2:
        AMRET_OBS_COUNT("kernels.simd.grad_w_blocks.avx2", 1);
        break;
    default: break;
    }
    return skipped;
}

void gemm_f32_rows(const GemmF32Args& g, std::int64_t r0, std::int64_t r1) {
    switch (select()) {
    case Isa::kAvx512: detail::gemm_f32_rows_avx512(g, r0, r1); return;
    case Isa::kAvx2: detail::gemm_f32_rows_avx2(g, r0, r1); return;
    default: detail::gemm_f32_rows_baseline(g, r0, r1); return;
    }
}

} // namespace amret::kernels::simd
