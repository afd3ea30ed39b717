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
///   - an in-register product-plane path for 5- to 8-bit multipliers whose
///     products fit 16 bits (AVX-512 F+BW+VBMI, blocks of 32 rows or more):
///     each weight code's product row is two 256-byte planes of low and
///     high bytes (kernels/lut_planes.hpp), built with the table and
///     carried in LutGemmArgs::lut_planes; per (filter, depth index) the
///     leaf loads them into eight zmm registers and looks up 64 activation
///     codes with two vpermi2b per plane and a blend on bit 7;
///   - a gather path for 8x8 multipliers: 8/16 activation codes are widened,
///     OR'd with the pre-shifted weight code and looked up with a vector
///     gather, accumulating into 4 (AVX2) or 8 (AVX-512) independent int64
///     lanes per step; a position block narrower than 8 rows (batch-1 convs
///     at 2x2 or 1x1) puts 8 consecutive output channels in the lanes
///     instead, against one broadcast activation code. The forward routes
///     each tile by its block's real rows;
///   - gather-vectorized gradient-LUT walks for the backward over
///     row-major codes (8 lanes on AVX2, 16 on AVX-512): lanes run across
///     the depth axis, every LUT index comes from contiguous widening loads,
///     and the compacted nonzero-gradient replay stays serial per lane, so
///     every gx/gw element performs the scalar oracle's float additions in
///     the scalar oracle's order; a grad-W lane group that reads only
///     padding in a row adds its per-lane constant instead of gathering,
///     and every sum is stored once, through its clamp mask.
///
/// The float GEMM of the float path (kernels/gemm.hpp) has its register
/// blocks here too: one source compiled per level at the level's native
/// vector width (gemm_f32_rows).
///
/// Dispatch contract (DESIGN.md section 17). select() probes the CPU once
/// (SSSE3 / AVX2 / AVX-512 F+BW+VBMI via cpuid) and honours AMRET_SIMD=
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

/// True when the running CPU reports the level's feature bits; kAvx512
/// needs AVX-512 F, BW and VBMI.
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
/// [0, k), out[kk] is written with the sum from +0.0f, over the compacted
/// nonzero output gradients j in ascending order, of
///   m[j] * (lut[(fixed[kk] << bits) | ops[off[j] + kk]] - z[j])
/// one multiply, then one add, per term — the oracle's float ops in the
/// oracle's order. Lanes run across kk, so each lane's table row
/// (fixed[kk] << bits) stays put while j advances. grad-X passes the
/// activation row as `fixed`, the weight codes as `ops`, the transposed
/// ∂AM/∂X table, m = g * s_w, z = Z_w and the row's clamp mask; grad-W
/// passes the weight row, the activation codes, the ∂AM/∂W table, m = g,
/// z = Z_x and, for a padded conv, the rows' in-image taps.
struct GradRowArgs {
    unsigned bits = 8;
    const std::uint16_t* fixed = nullptr; ///< row codes, one per lane (k)
    const std::uint16_t* ops = nullptr;   ///< row-major codes of the other operand
    const float* lut = nullptr;           ///< indexed (fixed << bits) | op
    const std::int64_t* off = nullptr;    ///< per-j row offsets into ops
    const float* m = nullptr;             ///< per-j multipliers
    const float* z = nullptr;             ///< per-j zero points
    std::int64_t cnt = 0, k = 0;
    float* out = nullptr; ///< k sums, written
    /// Store mask, one per lane: a lane whose mask is 0 stores +0.0f. Null
    /// stores every sum.
    const std::uint8_t* mask = nullptr;
    /// Per-j in-image taps of the walk's ops rows: bit t is set when kernel
    /// tap t, lanes [t * tap_lanes, (t + 1) * tap_lanes), reads a pixel of
    /// row j. Where every tap of a lane group is out of the image, row j
    /// holds pad_code in all its lanes, and the walk adds m[j] * d with the
    /// group's per-lane constant d = lut[(fixed << bits) | pad_code] - z[0]
    /// instead of loading and gathering: the same bits, for z is one value
    /// (grad-W's Z_x) whenever in_taps is set. Null gathers every lane.
    const std::uint32_t* in_taps = nullptr;
    std::int64_t tap_lanes = 1;
    std::uint16_t pad_code = 0;

    /// The in_taps bits of lanes [kk0, kk0 + n): the taps they belong to.
    [[nodiscard]] std::uint32_t taps_of(std::int64_t kk0, std::int64_t n) const {
        const auto t0 = static_cast<unsigned>(kk0 / tap_lanes);
        const auto t1 = static_cast<unsigned>((kk0 + n - 1) / tap_lanes);
        return ((std::uint32_t{2} << t1) - 1) & ~((std::uint32_t{1} << t0) - 1);
    }
};

/// grad-X and grad-W entry points of the same walk. Each runs the widest
/// leaf the selected level has, or scalar code below AVX2, and a vector
/// level bumps its counter once per row
/// (kernels.simd.grad_{x,w}_blocks.<isa>). grad-X walks only the depth
/// \p runs of the row, the in-image taps of a conv row: each run is the
/// walk of \p a with fixed, ops, out and mask offset to the run's start and
/// a.k = runs.len; a.k is not read, and out is not written outside the
/// runs. grad-W walks all a.k lanes and returns the lookups the in_taps
/// skip saved.
void grad_x_row(const GradRowArgs& a, const DepthRuns& runs);
std::int64_t grad_w_row(const GradRowArgs& a);

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
