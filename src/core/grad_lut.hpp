/// \file grad_lut.hpp
/// \brief Precomputed gradient lookup tables ∂AM/∂W and ∂AM/∂X (Sec. IV).
///
/// The retraining framework consumes multiplier gradients exclusively
/// through these tables, exactly like the paper's CUDA-LUT kernels: for a
/// B-bit multiplier both tables have 2^(2B) float entries indexed by
/// (W << B) | X. Builders are provided for
///   - the STE baseline (gradient of the accurate multiplier, Eq. 3),
///   - the paper's difference-based approximation (Eqs. 4-6), and
///   - arbitrary user-defined gradients (the framework hook mentioned in
///     Sec. IV), including signed-domain functions via the generic builder.
#pragma once

#include "appmult/appmult.hpp"
#include "core/smoothing.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace amret::core {

/// Which gradient approximation drives the backward pass.
enum class GradientMode {
    kSte,        ///< ∂AM/∂W = X, ∂AM/∂X = W (prior art, Eq. 3)
    kDifference, ///< the paper's smoothed central difference (Eqs. 4-6)
    kTrue,       ///< raw finite difference of the un-smoothed AppMult
    kCustom,     ///< caller-supplied tables
};

/// Human-readable name of a GradientMode ("ste", "diff", ...).
const char* gradient_mode_name(GradientMode mode);

/// Gradient tables of one B-bit multiplier.
class GradLut {
public:
    GradLut() = default;
    GradLut(unsigned bits, std::vector<float> d_dw, std::vector<float> d_dx);

    [[nodiscard]] unsigned bits() const { return bits_; }
    [[nodiscard]] bool empty() const { return d_dw_.empty(); }

    /// ∂AM/∂W evaluated at (w, x).
    [[nodiscard]] float dw(std::uint64_t w, std::uint64_t x) const {
        return d_dw_[(w << bits_) | x];
    }
    /// ∂AM/∂X evaluated at (w, x).
    [[nodiscard]] float dx(std::uint64_t w, std::uint64_t x) const {
        return d_dx_[(w << bits_) | x];
    }

    [[nodiscard]] const std::vector<float>& dw_table() const { return d_dw_; }
    [[nodiscard]] const std::vector<float>& dx_table() const { return d_dx_; }
    /// ∂AM/∂X transposed, indexed (X << B) | W: the row-major backward
    /// kernel (kernels::lut_backward_rows) walks W with X fixed per lane,
    /// which keeps each lane inside one 2^B-entry row of this copy. Built
    /// once by the constructor.
    [[nodiscard]] const std::vector<float>& dx_t_table() const { return d_dx_t_; }

    /// Serializes both tables to a small binary file; false on I/O error.
    bool save(const std::string& path) const;

    /// Loads tables written by save(); returns an empty GradLut on failure.
    static GradLut load(const std::string& path);

private:
    unsigned bits_ = 0;
    std::vector<float> d_dw_;
    std::vector<float> d_dx_;
    std::vector<float> d_dx_t_;
};

/// STE baseline: ∂AM/∂W = X and ∂AM/∂X = W regardless of the AppMult.
GradLut build_ste_grad(unsigned bits);

/// The paper's difference-based gradient for \p lut with half window size
/// \p hws: for ∂AM/∂X each row W_f of the LUT is smoothed (Eq. 4) and
/// differentiated (Eq. 5) with the boundary rule (Eq. 6); ∂AM/∂W uses the
/// transposed rows.
GradLut build_difference_grad(const appmult::AppMultLut& lut, unsigned hws);

/// Raw central difference of the unsmoothed LUT (hws = 0 interior rule,
/// Eq. 6 at the two domain edges). Exposes the stair-step pathology that
/// motivates smoothing; used by the ablation bench.
GradLut build_true_grad(const appmult::AppMultLut& lut);

/// Arbitrary user-defined gradient functions (the Sec. IV extension hook).
GradLut build_custom_grad(
    unsigned bits,
    const std::function<double(std::uint64_t w, std::uint64_t x)>& d_dw,
    const std::function<double(std::uint64_t w, std::uint64_t x)>& d_dx);

/// Generic difference-based gradient over any integer-domain function
/// f : [lo, lo+n) x [lo, lo+n) -> R (e.g. a *signed* multiplier with
/// lo = -2^(B-1), n = 2^B). Returned tables are indexed by
/// ((w - lo) * n + (x - lo)).
struct GenericGradTables {
    std::int64_t lo = 0;
    std::size_t n = 0;
    std::vector<float> d_dw;
    std::vector<float> d_dx;
};
/// `fn` is sampled row-parallel and must tolerate concurrent calls (pure
/// functions and stateless behavioural models qualify).
GenericGradTables build_difference_grad_generic(
    std::int64_t lo, std::size_t n,
    const std::function<double(std::int64_t w, std::int64_t x)>& fn, unsigned hws);

/// Convex blend of the difference-based and STE gradients:
/// alpha * diff + (1 - alpha) * ste. alpha = 0 is pure STE, alpha = 1 the
/// paper's method; intermediate values trade gradient fidelity against the
/// stair-noise the difference tables carry (an ablation axis).
GradLut build_blended_grad(const appmult::AppMultLut& lut, unsigned hws, float alpha);

/// Builds the gradient tables for \p mode (kCustom is invalid here).
GradLut build_grad(const appmult::AppMultLut& lut, GradientMode mode, unsigned hws);

} // namespace amret::core
