/// \file lut_simd_ssse3.cpp
/// \brief SSSE3 leaf kernels (compiled with -mssse3; legacy SSE encoding).
///
/// SSSE3 contributes exactly one capability over scalar: _mm_shuffle_epi8
/// for the 16-entry in-register LUT path. Wide-operand forwards and the
/// backward walks need gathers and stay on the scalar oracle at this level.

#include "kernels/simd/simd_internal.hpp"

#if defined(__SSSE3__)

#include <immintrin.h>

#include <algorithm>

#include "kernels/simd/acc_panel_nibble.inl"

namespace amret::kernels::simd::detail {

bool compiled_ssse3() { return true; }

void acc_panel_nibble_ssse3(const LutGemmArgs& a, std::int64_t rb,
                            std::int64_t ob, const DepthRuns& runs,
                            std::int64_t* acc) {
    acc_panel_nibble_impl(a, rb, ob, runs, acc);
}

} // namespace amret::kernels::simd::detail

#else // !defined(__SSSE3__)

namespace amret::kernels::simd::detail {

bool compiled_ssse3() { return false; }

// Unreachable: dispatch.cpp never routes to a level compiled() rejects.
void acc_panel_nibble_ssse3(const LutGemmArgs&, std::int64_t, std::int64_t,
                            const DepthRuns&, std::int64_t*) {}

} // namespace amret::kernels::simd::detail

#endif // __SSSE3__
