/// \file graph.hpp
/// \brief Static interval analysis of the compiled integer inference graph.
///
/// The integer deployment path (approx::IntInferenceEngine) chains
/// im2col → LUT-GEMM → zero-point correction → bias → fixed-point rescale →
/// requantize/clamp per conv, with integer pooling in between. All of its
/// compiled parameters (quantized weights, LUT contents, requantization
/// multipliers, zero points) are static after compilation, and the activation
/// codes that flow between ops are clamped to known ranges — so accumulator
/// magnitudes, rescale inputs and LUT indices can be *proved* in bounds for
/// every possible input, not just the test vectors (DESIGN.md §14).
///
/// analyze_graph() walks a GraphDesc — a plain-data description of the
/// compiled graph, exported by IntInferenceEngine::describe() or built by
/// hand in tests — propagating one activation-code interval through the ops
/// and deriving per-channel accumulator intervals from the actual LUT
/// contents and weight codes. Findings are reported with the src/verify
/// diagnostic types; the result is a machine-checkable Certificate.
#pragma once

#include "analysis/certificate.hpp"
#include "analysis/interval.hpp"
#include "appmult/appmult.hpp"
#include "quant/quant.hpp"
#include "verify/diagnostics.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace amret::analysis {

/// Static parameters of one compiled conv (or linear-as-1x1-conv) op — the
/// exact values the integer kernel consumes at run time. The engine's conv
/// op keeps its compiled parameters in one and runs on it, so
/// IntInferenceEngine::describe() hands the analyzer a copy.
struct ConvOpDesc {
    // Identity metadata (EXCLUDED from the content digest, like the panel
    // fields below): which assignment entry produced this op. The digest
    // already covers the multiplier's *semantics* through the LUT contents,
    // so renaming a registry entry does not invalidate certificates.
    std::string multiplier; ///< registry name of this op's multiplier ("" = unknown)
    unsigned hws = 0;       ///< gradient HWS of this op's assignment entry

    unsigned bits = 8;          ///< LUT operand width
    bool relu = false;
    std::int64_t out_ch = 0;
    std::int64_t k = 0;         ///< reduction depth (in_ch * kernel^2)
    std::shared_ptr<const appmult::AppMultLut> lut;
    std::vector<std::uint16_t> wq;       ///< (out_ch, k) weight codes
    std::vector<std::int64_t> sum_w;     ///< hoisted per-channel weight sums
    std::vector<std::int64_t> bias_raw;  ///< lround(b / acc_scale) BEFORE the
                                         ///< int32 narrowing the kernel applies
    std::int32_t zero_w = 0;
    std::int32_t zero_x = 0;    ///< input zero point of this op
    quant::FixedPointMultiplier requant;
    std::int32_t out_zero = 0;
    std::int32_t out_qmax = 255;

    // Blocked-layout view of the same weights (kernels/layout.hpp panels).
    // Derived data, EXCLUDED from the content digest: the panels are a
    // repacking of wq, the padding constant a function of wq, the LUT and
    // zero_x, and the tile dims a tuning choice, not a semantic parameter —
    // two engines that differ only in blocking share a certificate. When
    // wq_panels is non-empty the analyzer independently re-derives the
    // tap-major panel indexing and the padding constant and cross-checks
    // them against wq / sum_w ("panel-pack-mismatch" / "panel-sum-mismatch"
    // / "pad-sum-mismatch"), so the certificate also covers the fused
    // blocked path the engine actually runs.
    std::int64_t panel_tr = 0;            ///< rows per weight panel (0 = no panels)
    std::int64_t panel_tk = 0;            ///< depth per weight panel
    std::int64_t panel_taps = 1;          ///< kernel taps per channel (kernel^2);
                                          ///< panel depth is tap-major
    std::vector<std::uint32_t> wq_panels; ///< pre-shifted (w << bits) panel codes
    /// Padding constant, (out_ch, panel_taps): the sum over channels of
    /// LUT[(w << bits) | zero_x] per tap, which the blocked forward adds back
    /// for the taps a position block skips.
    std::vector<std::int64_t> pad_sum;
};

/// Integer pooling op (scale/zero preserved; no multiplies).
struct PoolOpDesc {
    enum class Kind { kMax, kAvg, kGlobalAvg };
    Kind kind = Kind::kMax;
    std::int64_t kernel = 2;
};

/// One op of the compiled graph (tagged union kept deliberately dumb so
/// tests can mutate any field).
struct OpDesc {
    enum class Kind { kConv, kPool };
    Kind kind = Kind::kConv;
    std::string label;
    ConvOpDesc conv;
    PoolOpDesc pool;
};

/// Plain-data description of one compiled integer graph.
struct GraphDesc {
    // Identity metadata (not part of the content digest).
    std::string model;
    std::string multiplier; ///< uniform configs; "mixed" under an assignment
    std::string checkpoint;
    std::string assignment; ///< MultiplierAssignment::key() of the deployed
                            ///< config ("" = uniform default; caller-filled)
    unsigned hws = 0; ///< gradient HWS of the deployed config (metadata only;
                      ///< the integer forward path does not consume it)

    unsigned act_bits = 8; ///< network-wide activation code width
    std::vector<OpDesc> ops;
};

/// Content digest of the graph's *structural* parameters (shapes, codes,
/// LUT contents, requantization constants — everything the integer kernels
/// consume; identity strings are metadata and excluded). Two engines with
/// identical compiled parameters share a digest, like the serve registry's
/// content-addressed model keys.
std::uint64_t digest(const GraphDesc& graph);

/// 16-hex-digit rendering of digest() — the certificate/cache key.
std::string digest_key(const GraphDesc& graph);

/// Runs the interval dataflow over \p graph and returns the certificate
/// (including all diagnostics; Certificate::safe reflects has_errors).
/// Never throws on malformed descriptions — inconsistencies become typed
/// diagnostics ("desc-inconsistent") so mutation tests and corrupted caches
/// degrade to failed certificates, not crashes.
Certificate analyze_graph(const GraphDesc& graph);

} // namespace amret::analysis
