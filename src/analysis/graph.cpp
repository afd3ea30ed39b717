#include "analysis/graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace amret::analysis {

namespace {

using verify::Diagnostic;
using verify::Diagnostics;
using verify::Severity;

void add(Diagnostics& diags, Severity severity, std::string check,
         std::uint64_t object, std::string message) {
    diags.push_back(Diagnostic{severity, std::move(check), object, std::move(message)});
}

// ----------------------------------------------------------- digesting ----

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

template <typename T>
std::uint64_t fnv_value(std::uint64_t h, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return fnv1a(h, &v, sizeof(v));
}

template <typename T>
std::uint64_t fnv_vector(std::uint64_t h, const std::vector<T>& v) {
    h = fnv_value(h, v.size());
    if (!v.empty()) h = fnv1a(h, v.data(), v.size() * sizeof(T));
    return h;
}

// ---------------------------------------------------- conv bound helper ----

/// Per-op working state of the conv transfer function.
struct ConvBounds {
    Interval acc = Interval::point(0);
    Interval pre_rescale = Interval::point(0);
    Interval rescaled = Interval::point(0);
    bool acc_overflow = false;
    bool rescale_overflow = false;
    bool bias_overflow = false;
};

/// Headroom in bits between max |v| over the interval and INT32_MAX: the
/// number of doublings the bound could still absorb. 0 when already at (or
/// past) the limit.
int int32_headroom_bits(const Interval& v) {
    if (v.overflowed) return 0;
    const std::int64_t m = std::max<std::int64_t>(v.max_abs(), 1);
    int bits = 0;
    std::int64_t cur = m;
    while (cur * 2 <= std::numeric_limits<std::int32_t>::max() && bits < 31) {
        cur *= 2;
        ++bits;
    }
    return m > std::numeric_limits<std::int32_t>::max() ? 0 : bits;
}

} // namespace

std::uint64_t digest(const GraphDesc& graph) {
    std::uint64_t h = kFnvOffset;
    h = fnv_value(h, Certificate::kVersion);
    h = fnv_value(h, graph.act_bits);
    h = fnv_value(h, graph.ops.size());
    for (const OpDesc& op : graph.ops) {
        h = fnv_value(h, op.kind);
        if (op.kind == OpDesc::Kind::kPool) {
            h = fnv_value(h, op.pool.kind);
            h = fnv_value(h, op.pool.kernel);
            continue;
        }
        const ConvOpDesc& c = op.conv;
        h = fnv_value(h, c.bits);
        h = fnv_value(h, c.relu);
        h = fnv_value(h, c.out_ch);
        h = fnv_value(h, c.k);
        h = fnv_value(h, c.zero_w);
        h = fnv_value(h, c.zero_x);
        h = fnv_value(h, c.requant.mult);
        h = fnv_value(h, c.requant.shift);
        h = fnv_value(h, c.out_zero);
        h = fnv_value(h, c.out_qmax);
        h = fnv_vector(h, c.wq);
        h = fnv_vector(h, c.sum_w);
        h = fnv_vector(h, c.bias_raw);
        // panel_tr/panel_tk/panel_taps/wq_panels/pad_sum are deliberately
        // not hashed: they are derived from wq under a tuning choice (see
        // ConvOpDesc).
        if (c.lut && !c.lut->empty()) {
            h = fnv_value(h, c.lut->bits());
            h = fnv_vector(h, c.lut->table());
        } else {
            h = fnv_value(h, std::uint32_t{0});
        }
    }
    return h;
}

std::string digest_key(const GraphDesc& graph) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest(graph)));
    return std::string(buf);
}

namespace {

/// Transfer function of one conv op over the incoming activation-code
/// interval \p x_codes. Appends diagnostics, fills \p op_cert, and returns
/// the outgoing code interval.
Interval analyze_conv(const OpDesc& op, std::size_t op_index, Interval x_codes,
                      Diagnostics& diags, OpCertificate& op_cert) {
    const ConvOpDesc& c = op.conv;
    const std::uint64_t obj = op_index;
    const Interval fallback_out = Interval::range(0, std::max<std::int32_t>(c.out_qmax, 0));

    // --- description sanity -------------------------------------------------
    if (c.bits == 0 || c.bits > 15 || c.out_ch <= 0 || c.k <= 0) {
        add(diags, Severity::kError, "desc-inconsistent", obj,
            op.label + ": bits/out_ch/k are not a valid conv configuration");
        return fallback_out;
    }
    const std::int64_t domain = std::int64_t{1} << c.bits;
    const bool has_wq = !c.wq.empty();
    if (has_wq &&
        c.wq.size() != static_cast<std::size_t>(c.out_ch) * static_cast<std::size_t>(c.k)) {
        add(diags, Severity::kError, "desc-inconsistent", obj,
            op.label + ": wq has " + std::to_string(c.wq.size()) +
                " codes, expected out_ch*k = " + std::to_string(c.out_ch * c.k));
        return fallback_out;
    }
    if (!c.sum_w.empty() && c.sum_w.size() != static_cast<std::size_t>(c.out_ch)) {
        add(diags, Severity::kError, "desc-inconsistent", obj,
            op.label + ": sum_w size mismatch");
        return fallback_out;
    }
    if (!c.bias_raw.empty() && c.bias_raw.size() != static_cast<std::size_t>(c.out_ch)) {
        add(diags, Severity::kError, "desc-inconsistent", obj,
            op.label + ": bias_raw size mismatch");
        return fallback_out;
    }
    if (!c.lut || c.lut->empty() || c.lut->bits() != c.bits) {
        add(diags, Severity::kError, "desc-inconsistent", obj,
            op.label + ": product LUT missing or width-mismatched");
        return fallback_out;
    }

    // --- LUT index bounds ---------------------------------------------------
    // x codes index the low half of (w << bits) | x; w codes the high half.
    if (x_codes.hi >= domain) {
        add(diags, Severity::kError, "lut-index-bounds", obj,
            op.label + ": activation codes reach " + std::to_string(x_codes.hi) +
                " but the " + std::to_string(c.bits) + "-bit LUT holds indices < " +
                std::to_string(domain));
        x_codes = clamp(x_codes, 0, domain - 1); // continue with the safe part
    }
    std::int64_t wq_max = 0;
    if (has_wq) {
        for (std::uint16_t w : c.wq) wq_max = std::max<std::int64_t>(wq_max, w);
        if (wq_max >= domain) {
            add(diags, Severity::kError, "lut-index-bounds", obj,
                op.label + ": weight code " + std::to_string(wq_max) +
                    " exceeds the LUT operand domain");
        }
    }

    // --- blocked-panel cross-check ------------------------------------------
    // The engine's blocked kernel reads wq_panels, not wq, so the interval
    // proof over wq only covers the deployed path if the panels really are a
    // faithful repacking. The indexing below is re-derived from the layout
    // contract (panel (rb, kb) at (rb*kb_n + kb)*tr*tk, slot kk*tr + rr,
    // codes pre-shifted by bits, and depth tap-major: im2col column
    // c*taps + t sits at panel depth t*C + c) independently of
    // kernels/layout.cpp, so a packer bug cannot vouch for itself.
    if (!c.wq_panels.empty()) {
        if (!has_wq || c.panel_tr <= 0 || c.panel_tk <= 0 || c.panel_taps <= 0 ||
            c.k % c.panel_taps != 0) {
            add(diags, Severity::kError, "desc-inconsistent", obj,
                op.label + ": panel codes present without wq or valid tile dims");
            return fallback_out;
        }
        const std::int64_t tr = c.panel_tr, tk = c.panel_tk;
        const std::int64_t taps = c.panel_taps, channels = c.k / taps;
        const std::int64_t rb_n = (c.out_ch + tr - 1) / tr;
        const std::int64_t kb_n = (c.k + tk - 1) / tk;
        if (c.wq_panels.size() !=
            static_cast<std::size_t>(rb_n * kb_n * tr * tk)) {
            add(diags, Severity::kError, "desc-inconsistent", obj,
                op.label + ": wq_panels has " + std::to_string(c.wq_panels.size()) +
                    " slots, expected " + std::to_string(rb_n * kb_n * tr * tk) +
                    " for " + std::to_string(tr) + "x" + std::to_string(tk) +
                    " panels");
            return fallback_out;
        }
        // Slot of weight (o, im2col column col) in the panels.
        const auto slot = [&](std::int64_t o, std::int64_t col) {
            const std::int64_t d = (col % taps) * channels + col / taps;
            return static_cast<std::size_t>((o / tr * kb_n + d / tk) * tr * tk +
                                            d % tk * tr + o % tr);
        };
        std::int64_t pack_bad = -1;
        for (std::int64_t o = 0; o < c.out_ch && pack_bad < 0; ++o) {
            for (std::int64_t col = 0; col < c.k; ++col) {
                const std::uint32_t expect =
                    static_cast<std::uint32_t>(c.wq[static_cast<std::size_t>(
                        o * c.k + col)])
                    << c.bits;
                if (c.wq_panels[slot(o, col)] != expect) { // invariant-ok: analyzer re-derives the interleave independently
                    pack_bad = o;
                    break;
                }
            }
        }
        if (pack_bad >= 0) {
            add(diags, Severity::kError, "panel-pack-mismatch", obj,
                op.label + ": blocked weight panels disagree with the row-major "
                           "codes at output channel " + std::to_string(pack_bad));
        } else if (!c.sum_w.empty()) {
            // Header check: the hoisted Eq. (8) sums the blocked epilogue
            // consumes must equal the per-channel reduction of the packed
            // codes (recomputed here from the panels, not copied from wq).
            for (std::int64_t o = 0; o < c.out_ch; ++o) {
                std::int64_t s = 0;
                for (std::int64_t col = 0; col < c.k; ++col)
                    s += c.wq_panels[slot(o, col)] >> c.bits; // invariant-ok: analyzer re-derives the interleave independently
                if (s != c.sum_w[static_cast<std::size_t>(o)]) {
                    add(diags, Severity::kError, "panel-sum-mismatch", obj,
                        op.label + ": panel header sum " + std::to_string(s) +
                            " != hoisted sum_w " +
                            std::to_string(c.sum_w[static_cast<std::size_t>(o)]) +
                            " at output channel " + std::to_string(o));
                    break;
                }
            }
        }
        // Padding constant: the blocked forward skips the lookups of taps
        // that are padding for a whole position block and adds pad_sum back,
        // so it must equal the lookups it replaces, recomputed from wq, the
        // LUT and the input zero point (clamped into the table; the bounds
        // checks above report out-of-domain codes, and an out-of-domain
        // weight code leaves nothing to recompute).
        const auto& table = c.lut->table();
        const std::int64_t zx = std::clamp<std::int64_t>(c.zero_x, 0, domain - 1);
        if (c.pad_sum.size() != static_cast<std::size_t>(c.out_ch * taps)) {
            add(diags, Severity::kError, "pad-sum-mismatch", obj,
                op.label + ": pad_sum has " + std::to_string(c.pad_sum.size()) +
                    " entries, expected out_ch*taps = " +
                    std::to_string(c.out_ch * taps));
        } else if (wq_max < domain) {
            bool pad_ok = true;
            for (std::int64_t o = 0; o < c.out_ch && pad_ok; ++o) {
                for (std::int64_t t = 0; t < taps && pad_ok; ++t) {
                    std::int64_t s = 0;
                    for (std::int64_t ch = 0; ch < channels; ++ch) {
                        const std::int64_t w = c.wq[static_cast<std::size_t>(
                            o * c.k + ch * taps + t)];
                        s += table[static_cast<std::size_t>((w << c.bits) | zx)];
                    }
                    const std::int64_t have =
                        c.pad_sum[static_cast<std::size_t>(o * taps + t)];
                    pad_ok = s == have;
                    if (!pad_ok)
                        add(diags, Severity::kError, "pad-sum-mismatch", obj,
                            op.label + ": padding constant " +
                                std::to_string(have) + " != recomputed " +
                                std::to_string(s) + " at output channel " +
                                std::to_string(o) + ", tap " + std::to_string(t));
                }
            }
        }
    }

    // --- per-weight-code LUT column extrema over the x range ----------------
    // colmin/colmax[w] bound LUT[w, x] for x in the incoming interval; the
    // per-channel accumulator is then the sum of its codes' column extrema.
    const std::int64_t xlo = std::clamp<std::int64_t>(x_codes.lo, 0, domain - 1);
    const std::int64_t xhi = std::clamp<std::int64_t>(x_codes.hi, 0, domain - 1);
    const auto& table = c.lut->table();
    std::vector<std::int32_t> colmin(static_cast<std::size_t>(domain));
    std::vector<std::int32_t> colmax(static_cast<std::size_t>(domain));
    for (std::int64_t w = 0; w < domain; ++w) {
        const std::int32_t* row = table.data() + (w << c.bits);
        std::int32_t mn = row[xlo], mx = row[xlo];
        for (std::int64_t x = xlo + 1; x <= xhi; ++x) {
            mn = std::min(mn, row[x]);
            mx = std::max(mx, row[x]);
        }
        colmin[static_cast<std::size_t>(w)] = mn;
        colmax[static_cast<std::size_t>(w)] = mx;
    }

    // Worst-case column extrema (used when weight codes are unknown).
    const std::int32_t lut_min = *std::min_element(colmin.begin(), colmin.end());
    const std::int32_t lut_max = *std::max_element(colmax.begin(), colmax.end());

    // --- per-channel dataflow ----------------------------------------------
    const Interval sum_x = mul(x_codes, c.k); // [k*xlo, k*xhi]
    const Interval worst_sum_w = mul(Interval::range(0, domain - 1), c.k);
    const std::int64_t kzwzx_term =
        static_cast<std::int64_t>(c.zero_w) * c.zero_x; // |.| < 2^30, safe
    ConvBounds bounds;
    bool first = true;

    for (std::int64_t o = 0; o < c.out_ch; ++o) {
        Interval acc_o;
        if (has_wq) {
            // Tight per-channel accumulator: sum of the channel's column
            // extrema. Plain int64 sums cannot wrap here (k * 2^31 needs
            // k >= 2^32, excluded by the wq size check above).
            std::int64_t alo = 0, ahi = 0;
            const std::uint16_t* row = c.wq.data() + o * c.k;
            for (std::int64_t kk = 0; kk < c.k; ++kk) {
                const std::size_t w =
                    std::min<std::size_t>(row[kk], static_cast<std::size_t>(domain - 1));
                alo += colmin[w];
                ahi += colmax[w];
            }
            acc_o = Interval::range(alo, ahi);
        } else {
            // Weight codes unknown: every one of the k terms ranges over the
            // full LUT extrema (checked multiply — an oversized k poisons).
            acc_o = join(mul(Interval::point(lut_min), c.k),
                         mul(Interval::point(lut_max), c.k));
        }

        const Interval sum_w_o =
            c.sum_w.empty() ? worst_sum_w : Interval::point(c.sum_w[o]);

        // corrected = acc - Z_x * sum_w[o] - Z_w * sum_x + k * Z_w * Z_x
        Interval corrected = sub(acc_o, mul(sum_w_o, c.zero_x));
        corrected = sub(corrected, mul(sum_x, c.zero_w));
        corrected = add(corrected, mul(Interval::point(kzwzx_term), c.k));

        const std::int64_t bias = c.bias_raw.empty() ? 0 : c.bias_raw[o];
        if (!Interval::point(bias).fits_int32()) bounds.bias_overflow = true;
        const Interval pre = add(corrected, bias);
        if (pre.overflowed || acc_o.overflowed) bounds.acc_overflow = true;

        // Rescale + output zero; must land in int32 before the clamp.
        Interval resc = rescale(pre, c.requant.mult, c.requant.shift);
        resc = add(resc, c.out_zero);
        if (!resc.fits_int32()) bounds.rescale_overflow = true;

        if (first) {
            bounds.acc = acc_o;
            bounds.pre_rescale = pre;
            bounds.rescaled = resc;
            first = false;
        } else {
            bounds.acc = join(bounds.acc, acc_o);
            bounds.pre_rescale = join(bounds.pre_rescale, pre);
            bounds.rescaled = join(bounds.rescaled, resc);
        }
    }

    if (c.requant.mult <= 0) {
        add(diags, Severity::kError, "requant-mult", obj,
            op.label + ": fixed-point multiplier mantissa " +
                std::to_string(c.requant.mult) +
                " is not positive (quantize_multiplier emits [2^30, 2^31))");
        bounds.rescale_overflow = true;
    }
    if (bounds.acc_overflow) {
        add(diags, Severity::kError, "acc-overflow", obj,
            op.label + ": int64 accumulator bound is not provable (k = " +
                std::to_string(c.k) + ", LUT extrema [" + std::to_string(lut_min) +
                ", " + std::to_string(lut_max) + "])");
    }
    if (bounds.bias_overflow) {
        add(diags, Severity::kError, "bias-overflow", obj,
            op.label + ": integer bias exceeds int32 (the kernel narrows "
                       "lround(b/acc_scale) to int32)");
    }
    if (bounds.rescale_overflow) {
        add(diags, Severity::kError, "rescale-overflow", obj,
            op.label + ": rescaled accumulator " + bounds.rescaled.to_string() +
                " can escape int32 before the requantization clamp");
    }
    if (c.out_qmax > 255) {
        add(diags, Severity::kError, "act-width", obj,
            op.label + ": out_qmax " + std::to_string(c.out_qmax) +
                " does not fit the uint8 activation storage");
    }

    op_cert.k = c.k;
    op_cert.acc = bounds.acc;
    op_cert.pre_rescale = bounds.pre_rescale;
    op_cert.rescaled = bounds.rescaled;
    op_cert.headroom_bits = int32_headroom_bits(bounds.rescaled);
    if (!bounds.rescale_overflow && op_cert.headroom_bits < 2) {
        add(diags, Severity::kWarning, "low-headroom", obj,
            op.label + ": only " + std::to_string(op_cert.headroom_bits) +
                " bit(s) of int32 headroom on the rescale output");
    }

    // Outgoing codes: optional ReLU floor at the zero point, then the
    // unconditional clamp to [0, out_qmax].
    Interval out = bounds.rescaled;
    if (c.relu && !out.overflowed) out.lo = std::max<std::int64_t>(out.lo, c.out_zero);
    out = clamp(out, 0, std::max<std::int32_t>(c.out_qmax, 0));
    op_cert.out_codes = out;
    return out;
}

/// Pool transfer function: max pooling is the identity on the code interval;
/// average pooling stays within the input interval (the rounded integer mean
/// of values in [lo, hi] is in [lo, hi]) and additionally clamps to uint8.
Interval analyze_pool(const OpDesc& op, Interval x_codes, OpCertificate& op_cert) {
    Interval out = x_codes;
    if (op.pool.kind != PoolOpDesc::Kind::kMax) out = clamp(out, 0, 255);
    op_cert.acc = x_codes;
    op_cert.pre_rescale = out;
    op_cert.rescaled = out;
    op_cert.out_codes = out;
    op_cert.headroom_bits = 31;
    return out;
}

} // namespace

Certificate analyze_graph(const GraphDesc& graph) {
    Certificate cert;
    cert.key = digest_key(graph);
    cert.model = graph.model;
    cert.multiplier = graph.multiplier;
    cert.checkpoint = graph.checkpoint;
    cert.assignment = graph.assignment;
    cert.hws = graph.hws;
    cert.act_bits = graph.act_bits;

    if (graph.act_bits == 0 || graph.act_bits > 8) {
        // quantize_input stores codes in uint8; wider codes would truncate.
        add(cert.diags, Severity::kError, "act-width", verify::kNoObject,
            "activation width " + std::to_string(graph.act_bits) +
                " does not fit the uint8 activation storage");
    }
    if (graph.ops.empty()) {
        add(cert.diags, Severity::kWarning, "desc-inconsistent", verify::kNoObject,
            "graph has no integer ops (nothing to prove)");
    }

    // The input quantizer clamps to [0, 2^act_bits - 1].
    const unsigned in_bits = std::min(graph.act_bits, 8u);
    Interval codes = Interval::range(0, (std::int64_t{1} << in_bits) - 1);

    for (std::size_t i = 0; i < graph.ops.size(); ++i) {
        const OpDesc& op = graph.ops[i];
        OpCertificate op_cert;
        op_cert.label = op.label.empty() ? ("op" + std::to_string(i)) : op.label;
        if (op.kind == OpDesc::Kind::kConv) {
            op_cert.kind = "conv";
            op_cert.multiplier = op.conv.multiplier;
            codes = analyze_conv(op, i, codes, cert.diags, op_cert);
        } else {
            switch (op.pool.kind) {
                case PoolOpDesc::Kind::kMax: op_cert.kind = "maxpool"; break;
                case PoolOpDesc::Kind::kAvg: op_cert.kind = "avgpool"; break;
                case PoolOpDesc::Kind::kGlobalAvg: op_cert.kind = "gavgpool"; break;
            }
            codes = analyze_pool(op, codes, op_cert);
        }
        cert.ops.push_back(std::move(op_cert));
    }

    cert.safe = !verify::has_errors(cert.diags);
    return cert;
}

} // namespace amret::analysis
