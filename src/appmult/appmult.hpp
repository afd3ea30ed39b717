/// \file appmult.hpp
/// \brief Lookup-table representation of integer multipliers (Eq. 1) and
///        the ER / NMED / MaxED error metrics (Eq. 2).
///
/// Mirrors the paper's CUDA-LUT method: the full function AM(W, X) of a
/// B-bit unsigned multiplier is precomputed into a 2^(2B)-entry table that
/// both the forward pass and the gradient construction consume.
#pragma once

#include "kernels/lut_planes.hpp"
#include "netlist/netlist.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace amret::appmult {

/// Product lookup table of a B-bit unsigned multiplier.
/// Entry index is (W << B) | X; values are the (possibly approximate)
/// products in [0, 2^(2B)).
class AppMultLut {
public:
    AppMultLut() = default;

    /// Builds from an arbitrary behavioural function over the full domain.
    AppMultLut(unsigned bits, const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>& fn);

    /// Builds by exhaustive simulation of a multiplier netlist whose inputs
    /// are w bits then x bits (LSB-first) and whose outputs are the product
    /// bits (LSB-first) — the layout produced by multgen::build_netlist.
    static AppMultLut from_netlist(unsigned bits, const netlist::Netlist& netlist);

    /// Exact multiplier LUT.
    static AppMultLut exact(unsigned bits);

    [[nodiscard]] unsigned bits() const { return bits_; }
    [[nodiscard]] std::uint64_t domain() const { return std::uint64_t{1} << bits_; }
    [[nodiscard]] bool empty() const { return table_.empty(); }

    /// AM(w, x); requires w, x < 2^B.
    [[nodiscard]] std::int64_t operator()(std::uint64_t w, std::uint64_t x) const {
        return table_[(w << bits_) | x];
    }

    /// Raw table access (size 2^(2B)); used by the GEMM kernels.
    [[nodiscard]] const std::vector<std::int32_t>& table() const { return table_; }

    /// The table's product planes (kernels/lut_planes.hpp), built with the
    /// table, or null when the table has none (bits outside 5..8, or an
    /// entry outside [0, 65535]); the GEMM kernels' AVX-512 forward reads
    /// them through kernels::LutGemmArgs::lut_planes.
    [[nodiscard]] const kernels::LutPlaneRow* planes() const {
        return planes_.empty() ? nullptr : planes_.data();
    }

    /// Serializes to a small binary file; returns false on I/O error.
    bool save(const std::string& path) const;

    /// Loads a LUT written by save(); returns an empty LUT on failure.
    static AppMultLut load(const std::string& path);

private:
    /// Sets the table and builds its planes.
    void set_table(unsigned bits, std::vector<std::int32_t> table);

    unsigned bits_ = 0;
    std::vector<std::int32_t> table_;
    std::vector<kernels::LutPlaneRow> planes_;
};

/// Error metrics of Eq. (2), measured against the exact product under a
/// uniform input distribution by full enumeration.
struct ErrorMetrics {
    double error_rate = 0.0;    ///< ER, fraction in [0, 1]
    double nmed = 0.0;          ///< NMED, normalized to 2^(2B) - 1, in [0, 1]
    std::int64_t max_ed = 0;    ///< MaxED, absolute error distance
    double mean_error = 0.0;    ///< signed mean error (bias), unnormalized
};

/// Computes Eq. (2) for \p lut versus the exact B-bit product.
ErrorMetrics measure_error(const AppMultLut& lut);

/// Computes Eq. (2) between two arbitrary product tables of the same width.
ErrorMetrics measure_error(unsigned bits, const std::vector<std::int32_t>& approx,
                           const std::vector<std::int32_t>& reference);

} // namespace amret::appmult
