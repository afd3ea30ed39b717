/// \file simd.hpp
/// \brief Runtime-dispatched SIMD kernels for the blocked LUT-GEMM family.
///
/// The LUT-GEMM kernels make one product-LUT load per MAC in the forward
/// (over panels) and one gradient-LUT load per (grad, tap) in the backward
/// (over row-major codes). This subtree vectorizes those walks a la T-MAC /
/// DeepGEMM:
///
///   - a pshufb-style in-register 16-entry LUT path for small-operand
///     multipliers (bits <= 4): the activation codes are nibble-packed two
///     per byte at panel-pack time (layout.hpp, ActPanels::packed4), the
///     weight's 2^bits-entry product-LUT row is packed into one 16-byte
///     register (all entries of a <=4-bit product LUT fit uint8), and one
///     pshufb yields 16 products per instruction;
///   - a gather path for 8x8 multipliers: 8/16 activation codes are widened,
///     OR'd with the pre-shifted weight code and looked up with a vector
///     gather, accumulating into 4 (AVX2) or 8 (AVX-512) independent int64
///     lanes per step; a position block narrower than 8 rows (batch-1 convs
///     at 2x2 or 1x1) puts 8 consecutive output channels in the lanes
///     instead, against one broadcast activation code;
///   - gather-vectorized gradient-LUT walks for the backward over
///     row-major codes (8 lanes on AVX2, 16 on AVX-512): lanes run across
///     the depth axis, every LUT index comes from contiguous widening loads,
///     and the compacted nonzero-gradient replay stays serial per lane, so
///     every gx/gw element performs the scalar oracle's float additions in
///     the scalar oracle's order.
///
/// The float GEMM of the float path (kernels/gemm.hpp) has its register
/// blocks here too: one source compiled per level at the level's native
/// vector width (gemm_f32_rows).
///
/// Dispatch contract (DESIGN.md section 17). select() probes the CPU once
/// (SSSE3 / AVX2 / AVX-512F via cpuid) and honours AMRET_SIMD=
/// scalar|ssse3|avx2|avx512 as a *cap*: requesting a level the machine or
/// build lacks falls back to the best supported level below it, with a typed
/// warning through src/obs. Every entry point always does its work: when
/// the active level has no eligible vector leaf for the operands, it runs
/// the scalar leaf (the forward's scalar block loop, the backward's
/// grad_row_scalar). Every path memcmp-matches the naive forward and backward
/// of tests/lut_oracle.hpp:
///   - the forward accumulator is int64, so any lane split is exact and
///     SIMD forward output memcmp-equals the scalar oracle;
///   - the backward lanes preserve the per-element float op order, so
///     gx/gw memcmp-equal the oracle too (tests/test_simd.cpp).
///
/// Raw vector intrinsics are confined to src/kernels/simd/ by
/// scripts/check_invariants.py (rule simd-intrinsics); everything else goes
/// through this seam.
#pragma once

#include "kernels/lut_kernels.hpp"

#include <cstdint>

namespace amret::kernels::simd {

/// Instruction-set levels in dispatch order. kScalar always works and means
/// "no vector kernels: scalar loops only".
enum class Isa : int {
    kScalar = 0,
    kSsse3 = 1,
    kAvx2 = 2,
    kAvx512 = 3,
};

/// Lowercase level name ("scalar", "ssse3", "avx2", "avx512").
const char* isa_name(Isa isa);

/// Parses an AMRET_SIMD value. Returns false (out untouched) on an unknown
/// string.
bool parse_isa(const char* s, Isa* out);

/// True when the level's kernels were compiled into this binary (x86 builds
/// compile every level; other targets only kScalar).
bool compiled(Isa isa);

/// True when the running CPU reports the level's feature bits.
bool cpu_supports(Isa isa);

/// compiled() && cpu_supports() — the level select() may return.
bool supported(Isa isa);

/// Highest supported level on this machine/build.
Isa max_supported();

/// The process-wide dispatch level: AMRET_SIMD cap applied to the probed
/// maximum, resolved once and cached. Overridable with set_isa_for_test.
Isa select();

/// Pure resolution of one AMRET_SIMD value against this machine (no cache,
/// no env read): nullptr or unknown -> max_supported(); a known level ->
/// the highest supported level <= it. Unknown/unsupported values emit a
/// typed warning through src/obs. select() caches resolve_request(getenv).
Isa resolve_request(const char* value);

/// Test/tool hook: overrides select() process-wide. Call only while no
/// kernels are running.
void set_isa_for_test(Isa isa);
void clear_isa_override();

// ---------------------------------------------------------------- seams ----
// Called by the kernels in lut_kernels and gemm.

// The forward's seam, accumulate_panel, is declared in lut_kernels.hpp,
// whose lut_gemm_blocked template calls it for every (rb, ob) tile.

/// One row of the row-major backward walk (lut_backward_rows): for kk in
/// [0, k), out[kk] accumulates, over the compacted nonzero output gradients
/// j in ascending order,
///   m[j] * (lut[(fixed[kk] << bits) | ops[off[j] + kk]] - z[j])
/// one multiply, then one add, per term — the oracle's float ops in the
/// oracle's order. Lanes run across kk, so each lane's table row
/// (fixed[kk] << bits) stays put while j advances. grad-X passes the
/// activation row as `fixed`, the weight codes as `ops`, the transposed
/// ∂AM/∂X table, m = g * s_w and z = Z_w; grad-W passes the weight row, the
/// activation codes, the ∂AM/∂W table, m = g and z = Z_x.
struct GradRowArgs {
    unsigned bits = 8;
    const std::uint16_t* fixed = nullptr; ///< row codes, one per lane (k)
    const std::uint16_t* ops = nullptr;   ///< row-major codes of the other operand
    const float* lut = nullptr;           ///< indexed (fixed << bits) | op
    const std::int64_t* off = nullptr;    ///< per-j row offsets into ops
    const float* m = nullptr;             ///< per-j multipliers
    const float* z = nullptr;             ///< per-j zero points
    std::int64_t cnt = 0, k = 0;
    float* out = nullptr; ///< k accumulators, read and written back
};

/// grad-X and grad-W entry points of the same walk. Each runs the widest
/// leaf the selected level has, or scalar code below AVX2, and a vector
/// level bumps its counter once per row
/// (kernels.simd.grad_{x,w}_blocks.<isa>). grad-X walks only the depth
/// \p runs of the row, the in-image taps of a conv row: each run is the
/// walk of \p a with fixed, ops and out offset to the run's start and
/// a.k = runs.len; a.k is not read. grad-W walks all a.k lanes.
void grad_x_row(const GradRowArgs& a, const DepthRuns& runs);
void grad_w_row(const GradRowArgs& a);

/// Operands of the float GEMM's row walk (kernels::gemm_nt_packed).
struct GemmF32Args {
    const float* a = nullptr;      ///< (m, k) row-major
    const float* packed = nullptr; ///< B (n, k) in 16-column k-major panels
    const float* bias = nullptr;   ///< (n), or nullptr for no bias
    bool relu = false;
    std::int64_t n = 0, k = 0;
    float* c = nullptr; ///< (m, n) row-major, written
};

/// Rows [r0, r1) of c with the widest copy the selected level has: the
/// AVX-512 or AVX2 leaf, else the baseline copy in kernels/gemm.cpp. All
/// copies compile one source (gemm_f32.inl) and give identical bits.
void gemm_f32_rows(const GemmF32Args& g, std::int64_t r0, std::int64_t r1);

} // namespace amret::kernels::simd
