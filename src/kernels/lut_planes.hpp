/// \file lut_planes.hpp
/// \brief Product-LUT planes: the byte tables the AVX-512 forward leaf
///        holds in registers instead of gathering from the product LUT.
///
/// For a 5- to 8-bit multiplier whose products fit 16 bits, the 2^bits
/// products of one weight code split into two 256-byte planes, the low
/// bytes and the high bytes. Four zmm registers hold one plane, so a leaf
/// that loads a weight's row once can look up 64 activation codes with
/// two vpermi2b per plane and a blend on bit 7 of the code
/// (simd/lut_simd_avx512.cpp, acc_panel_planes_avx512). The planes belong
/// to their table: appmult::AppMultLut builds them when it builds its
/// table, and LutGemmArgs::lut_planes carries them beside LutGemmArgs::lut.
/// Nothing keys planes by a table's address.
#pragma once

#include <cstdint>

namespace amret::kernels {

/// One weight code's row of the planes: byte x of lo is the low byte of
/// LUT[w, x], of hi its high byte; bytes x >= 2^bits are 0. Aligned so each
/// 64-byte register load reads one cache line.
struct alignas(64) LutPlaneRow {
    std::uint8_t lo[256];
    std::uint8_t hi[256];
};

/// Whether the 2^(2*bits)-entry product LUT \p lut has planes: 5 <= bits
/// <= 8 and every entry lies in [0, 65535]. A table without them gathers.
inline bool lut_has_planes(const std::int32_t* lut, unsigned bits) {
    if (bits < 5 || bits > 8) return false;
    const std::uint32_t n = std::uint32_t{1} << (2 * bits);
    for (std::uint32_t i = 0; i < n; ++i)
        if (lut[i] < 0 || lut[i] > 0xffff) return false;
    return true;
}

/// Writes the planes of \p lut into \p rows, one row per weight code
/// (2^bits rows of 512 bytes, 128 KB at 8 bits, in caller storage: the
/// table's owner keeps them). Requires lut_has_planes(lut, bits).
inline void fill_lut_planes(const std::int32_t* lut, unsigned bits,
                            LutPlaneRow* rows) {
    const std::uint32_t n = std::uint32_t{1} << bits;
    for (std::uint32_t w = 0; w < n; ++w)
        for (std::uint32_t x = 0; x < 256; ++x) {
            const auto v = x < n ? static_cast<std::uint32_t>(lut[(w << bits) | x]) : 0u;
            rows[w].lo[x] = static_cast<std::uint8_t>(v & 0xff);
            rows[w].hi[x] = static_cast<std::uint8_t>(v >> 8);
        }
}

} // namespace amret::kernels
