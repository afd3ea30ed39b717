#include "approx/inference.hpp"

#include "kernels/gemm.hpp"
#include "kernels/im2col.hpp"
#include "kernels/layout.hpp"
#include "kernels/lut_kernels.hpp"
#include "kernels/tuning.hpp"
#include "nn/loss.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace amret::approx {

namespace tune = kernels::tune;

// ---------------------------------------------------------------- ops ----

struct IntInferenceEngine::Op {
    virtual ~Op() = default;
    /// Interned span label ("engine.op03.conv"), set once the graph is built.
    const char* span = nullptr;
    /// \p ws is the engine's scratch arena, reset before each op.
    virtual QTensor run(const QTensor& in, kernels::Workspace& ws) const = 0;
    /// Float twin used during calibration; updates recorded ranges. \p ws is
    /// the calibration pass's scratch arena (packed weights); the op may
    /// reset it.
    virtual tensor::Tensor run_float(const tensor::Tensor& in,
                                     kernels::Workspace& ws) = 0;
};

namespace {

struct ConvOp final : IntInferenceEngine::Op {
    // Static configuration.
    std::shared_ptr<const appmult::AppMultLut> lut;
    std::string mult_name; ///< assignment identity metadata ("" = ad-hoc)
    unsigned mult_hws = 0;
    unsigned bits = 8;
    std::int64_t in_ch = 0, out_ch = 0, kernel = 3, stride = 1, pad = 1;
    bool relu = false;
    tensor::Tensor folded_w; // (O, C, K, K) float, BN folded
    tensor::Tensor folded_b; // (O)

    // Calibration state.
    float out_lo = 0.0f, out_hi = 0.0f;
    bool calibrated = false;

    // Compiled integer parameters (filled by finalize()).
    std::vector<std::uint16_t> wq;
    std::vector<std::int64_t> sum_w; ///< hoisted weight row sums (static)
    std::vector<std::int32_t> bias_int;
    std::vector<std::int64_t> bias_raw; ///< pre-narrowing bias, for the analyzer
    std::int32_t zero_w = 0;
    float out_scale = 1.0f;
    std::int32_t out_zero = 0;
    std::int32_t out_qmax = 255; ///< activations live in [0, 2^act_bits - 1]
    FixedPointMultiplier requant;
    float in_scale = 1.0f; // fixed at finalize from the previous op
    std::int32_t in_zero = 0;

    // The wq codes as pre-shifted, tap-major panels, and their padding
    // constant against the input zero point (filled by finalize()).
    kernels::PanelPlan wplan;
    std::vector<std::uint32_t> wq_panels;
    std::vector<std::int64_t> pad_sum; ///< (out_ch, kernel^2), WeightPanels::pad_sum

    tensor::Tensor run_float(const tensor::Tensor& x,
                             kernels::Workspace& ws) override {
        tensor::ConvGeom geom{x.dim(0), in_ch, x.dim(2), x.dim(3), kernel, stride, pad};
        const tensor::Tensor cols = kernels::im2col(x, geom);
        tensor::Tensor po(tensor::Shape{geom.positions(), out_ch}); // post-ReLU
        ws.reset();
        kernels::gemm_nt(cols.data(), folded_w.data(), geom.positions(), out_ch,
                         geom.patch(), po.data(), ws, {folded_b.data(), relu});
        // Track output range for requantization.
        const float lo = po.min(), hi = po.max();
        if (!calibrated) {
            out_lo = lo;
            out_hi = hi;
            calibrated = true;
        } else {
            out_lo = std::min(out_lo, lo);
            out_hi = std::max(out_hi, hi);
        }
        tensor::Tensor y(tensor::Shape{x.dim(0), out_ch, geom.out_h(), geom.out_w()});
        kernels::scatter_positions(po.data(), x.dim(0), out_ch, geom.out_h(),
                                   geom.out_w(), y.data());
        return y;
    }

    void finalize(float input_scale, std::int32_t input_zero, unsigned act_bits) {
        in_scale = input_scale;
        in_zero = input_zero;
        const auto wp = quant::choose_params(folded_w.min(), folded_w.max(), bits);
        zero_w = static_cast<std::int32_t>(wp.zero_point);
        wq.resize(static_cast<std::size_t>(folded_w.numel()));
        for (std::int64_t i = 0; i < folded_w.numel(); ++i)
            wq[static_cast<std::size_t>(i)] =
                static_cast<std::uint16_t>(wp.quantize(folded_w[i]));

        // Weights are static after compilation, so the Eq. (8) weight row
        // sums are hoisted here instead of being recomputed every batch.
        const std::int64_t patch = folded_w.numel() / out_ch;
        sum_w.assign(static_cast<std::size_t>(out_ch), 0);
        for (std::int64_t o = 0; o < out_ch; ++o) {
            std::int64_t s = 0;
            for (std::int64_t k = 0; k < patch; ++k)
                s += wq[static_cast<std::size_t>(o * patch + k)];
            sum_w[static_cast<std::size_t>(o)] = s;
        }

        // Output activations must index the *next* layer's LUT, so they are
        // quantized to the network-wide activation width.
        out_qmax = static_cast<std::int32_t>((1u << act_bits) - 1);
        const auto op = quant::choose_params(out_lo, out_hi, act_bits);
        out_scale = op.scale;
        out_zero = static_cast<std::int32_t>(op.zero_point);

        const double acc_scale = static_cast<double>(in_scale) * wp.scale;
        requant = quantize_multiplier(acc_scale / out_scale);
        bias_int.resize(static_cast<std::size_t>(out_ch));
        bias_raw.resize(static_cast<std::size_t>(out_ch));
        for (std::int64_t o = 0; o < out_ch; ++o) {
            // Keep the pre-narrowing value: the static analyzer proves the
            // int32 cast below lossless (or reports "bias-overflow").
            bias_raw[static_cast<std::size_t>(o)] =
                std::lround(static_cast<double>(folded_b[o]) / acc_scale);
            bias_int[static_cast<std::size_t>(o)] =
                static_cast<std::int32_t>(bias_raw[static_cast<std::size_t>(o)]);
        }

        // Pack the codes into panels once at compile time. The packer also
        // emits the Eq. (8) header; it must reproduce the hoisted sum_w above
        // exactly (the analyzer re-checks this on every certificate via
        // "panel-sum-mismatch").
        const std::int64_t taps = kernel * kernel;
        wplan = kernels::make_panel_plan(out_ch, patch, tune::kTileO, tune::kTileK);
        wq_panels.resize(static_cast<std::size_t>(wplan.elems()));
        std::vector<std::int64_t> header(static_cast<std::size_t>(out_ch));
        kernels::pack_weight_panels_into(wq.data(), bits, wplan, taps,
                                         wq_panels.data(), header.data());
        assert(header == sum_w);
        // The analyzer recomputes this too ("pad-sum-mismatch").
        pad_sum.resize(static_cast<std::size_t>(out_ch * taps));
        kernels::pad_sums_into(wq.data(), bits, out_ch, patch, taps,
                               lut->table().data(),
                               static_cast<std::uint16_t>(in_zero), pad_sum.data());
    }

    /// The requantization epilogue. Pure integer arithmetic on the exact
    /// Eq. (8) corrected accumulator, so block order cannot change the
    /// result.
    [[nodiscard]] std::uint8_t requantize(std::int64_t oo,
                                          std::int64_t corrected) const {
        const std::int64_t a = corrected + bias_int[static_cast<std::size_t>(oo)];
        std::int32_t v = quant::fixed_point_rescale(a, requant) + out_zero;
        if (relu) v = std::max(v, out_zero);
        v = std::clamp(v, 0, out_qmax);
        return static_cast<std::uint8_t>(v);
    }

    QTensor run(const QTensor& x, kernels::Workspace& ws) const override {
        tensor::ConvGeom geom{x.n, in_ch, x.h, x.w, kernel, stride, pad};
        const std::int64_t patch = geom.patch();
        const std::int64_t positions = geom.positions();
        const std::int64_t oh = geom.out_h(), ow = geom.out_w();
        const std::int64_t spatial = oh * ow;

        QTensor y;
        y.n = x.n;
        y.c = out_ch;
        y.h = oh;
        y.w = ow;
        y.scale = out_scale;
        y.zero = out_zero;
        y.data = ws.alloc<std::uint8_t>(y.numel());

        // im2col is fused into activation panel production (no (positions x
        // patch) column buffer), the weight panels and the padding constant
        // were built at finalize(), and the Eq. (8) row sums come from the
        // panel headers. The packer runs on the GEMM's chunks.
        assert(x.zero == in_zero && "pad_sum assumes the input zero point");
        const kernels::PanelPlan xplan =
            kernels::make_conv_act_plan(positions, patch, tune::kTileP, wplan.tk);
        kernels::BlockedGemmArgs args;
        args.bits = bits;
        args.lut = lut->table().data();
        args.w = kernels::WeightPanels{wplan, wq_panels.data(), sum_w.data(),
                                       pad_sum.data()};
        args.x = kernels::pack_im2col_panels_u8(
            x.data, geom, static_cast<std::uint16_t>(x.zero), xplan, ws, bits,
            kernels::forward_grain(xplan, out_ch));
        args.o = out_ch;
        args.p = positions;
        args.k = patch;
        args.zero_w = zero_w;
        args.zero_x = x.zero;
        kernels::lut_gemm_blocked(args, ws, [&](std::int64_t pp, std::int64_t oo,
                                                std::int64_t corrected) {
            const std::int64_t n = pp / spatial;
            y.data[(n * out_ch + oo) * spatial + pp % spatial] =
                requantize(oo, corrected);
        });
        return y;
    }
};

struct MaxPoolOp final : IntInferenceEngine::Op {
    std::int64_t kernel = 2;

    tensor::Tensor run_float(const tensor::Tensor& x, kernels::Workspace&) override {
        nn::Context ctx;
        nn::MaxPool2d pool(kernel);
        return pool.forward(x, ctx);
    }

    QTensor run(const QTensor& x, kernels::Workspace& ws) const override {
        QTensor y;
        y.n = x.n;
        y.c = x.c;
        y.h = x.h / kernel;
        y.w = x.w / kernel;
        y.scale = x.scale;
        y.zero = x.zero;
        y.data = ws.alloc<std::uint8_t>(y.numel());
        for (std::int64_t i = 0; i < x.n * x.c; ++i) {
            const std::uint8_t* px = x.data + i * x.h * x.w;
            std::uint8_t* py = y.data + i * y.h * y.w;
            for (std::int64_t oy = 0; oy < y.h; ++oy)
                for (std::int64_t ox = 0; ox < y.w; ++ox) {
                    std::uint8_t best = 0;
                    for (std::int64_t ky = 0; ky < kernel; ++ky)
                        for (std::int64_t kx = 0; kx < kernel; ++kx)
                            best = std::max(
                                best, px[(oy * kernel + ky) * x.w + ox * kernel + kx]);
                    py[oy * y.w + ox] = best;
                }
        }
        return y;
    }
};

struct AvgPoolOp final : IntInferenceEngine::Op {
    std::int64_t kernel = 2;
    bool global = false;

    tensor::Tensor run_float(const tensor::Tensor& x, kernels::Workspace&) override {
        nn::Context ctx;
        if (global) {
            nn::GlobalAvgPool pool;
            return pool.forward(x, ctx);
        }
        nn::AvgPool2d pool(kernel);
        return pool.forward(x, ctx);
    }

    QTensor run(const QTensor& x, kernels::Workspace& ws) const override {
        QTensor y;
        y.n = x.n;
        y.c = x.c;
        y.h = global ? 1 : x.h / kernel;
        y.w = global ? 1 : x.w / kernel;
        y.scale = x.scale;
        y.zero = x.zero;
        y.data = ws.alloc<std::uint8_t>(y.numel());
        const std::int64_t kh = global ? x.h : kernel;
        const std::int64_t kw = global ? x.w : kernel;
        const std::int64_t window = kh * kw;
        for (std::int64_t i = 0; i < x.n * x.c; ++i) {
            const std::uint8_t* px = x.data + i * x.h * x.w;
            std::uint8_t* py = y.data + i * y.h * y.w;
            for (std::int64_t oy = 0; oy < y.h; ++oy)
                for (std::int64_t ox = 0; ox < y.w; ++ox) {
                    std::int64_t acc = 0;
                    for (std::int64_t ky = 0; ky < kh; ++ky)
                        for (std::int64_t kx = 0; kx < kw; ++kx)
                            acc += px[(oy * kh + ky) * x.w + ox * kw + kx];
                    py[oy * y.w + ox] = static_cast<std::uint8_t>(
                        std::clamp<std::int64_t>((acc + window / 2) / window, 0, 255));
                }
        }
        return y;
    }
};

} // namespace

SafetyPolicy safety_policy_from_env() {
    const char* env = std::getenv("AMRET_ANALYZE");
    if (env == nullptr || env[0] == '\0') return SafetyPolicy::kWarn;
    const std::string value(env);
    if (value == "off") return SafetyPolicy::kOff;
    if (value == "warn") return SafetyPolicy::kWarn;
    if (value == "enforce") return SafetyPolicy::kEnforce;
    obs::warn_once("analysis.env_unknown",
                   "AMRET_ANALYZE=" + value +
                       " is not one of off|warn|enforce; using warn");
    return SafetyPolicy::kWarn;
}

// ------------------------------------------------------------- engine ----

IntInferenceEngine::IntInferenceEngine(nn::Sequential& model,
                                       const data::Dataset& calibration,
                                       std::int64_t calib_samples,
                                       SafetyPolicy safety) {
    // --- 1. Fuse and collect ops ------------------------------------------
    std::vector<std::pair<tensor::Tensor, tensor::Tensor>> head_linears;
    std::vector<bool> head_relu;
    bool in_head = false;

    for (std::size_t i = 0; i < model.size(); ++i) {
        nn::Module* m = model.child(i);
        if (auto* conv = dynamic_cast<ApproxConv2d*>(m)) {
            if (in_head)
                throw std::invalid_argument("conv after classifier head unsupported");
            auto op = std::make_unique<ConvOp>();
            op->in_ch = conv->in_channels();
            op->out_ch = conv->out_channels();
            op->kernel = conv->kernel();
            op->stride = conv->stride();
            op->pad = conv->padding();
            op->folded_w = conv->weight.value;
            op->folded_b = conv->bias.value;
            if (conv->multiplier().valid()) {
                op->lut = conv->multiplier().lut;
                op->bits = conv->multiplier().bits();
                op->mult_name = conv->multiplier().name;
                op->mult_hws = conv->multiplier().hws;
            } else {
                op->lut = std::make_shared<appmult::AppMultLut>(
                    appmult::AppMultLut::exact(8));
                op->bits = 8;
            }
            // Fold a following BatchNorm2d.
            if (i + 1 < model.size()) {
                if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(model.child(i + 1))) {
                    const std::int64_t patch =
                        op->folded_w.numel() / op->out_ch;
                    for (std::int64_t o = 0; o < op->out_ch; ++o) {
                        const float inv_std =
                            1.0f / std::sqrt(bn->running_var()[o] + 1e-5f);
                        const float g = bn->gamma.value[o] * inv_std;
                        for (std::int64_t k = 0; k < patch; ++k)
                            op->folded_w[o * patch + k] *= g;
                        op->folded_b[o] = (op->folded_b[o] - bn->running_mean()[o]) * g +
                                          bn->beta.value[o];
                    }
                    ++i;
                }
            }
            // Fuse a following ReLU.
            if (i + 1 < model.size() &&
                dynamic_cast<nn::ReLU*>(model.child(i + 1)) != nullptr) {
                op->relu = true;
                ++i;
            }
            ops_.push_back(std::move(op));
        } else if (auto* mp = dynamic_cast<nn::MaxPool2d*>(m)) {
            (void)mp;
            auto op = std::make_unique<MaxPoolOp>();
            ops_.push_back(std::move(op));
        } else if (dynamic_cast<nn::AvgPool2d*>(m) != nullptr) {
            auto op = std::make_unique<AvgPoolOp>();
            ops_.push_back(std::move(op));
        } else if (dynamic_cast<nn::GlobalAvgPool*>(m) != nullptr) {
            auto op = std::make_unique<AvgPoolOp>();
            op->global = true;
            ops_.push_back(std::move(op));
        } else if (dynamic_cast<nn::Flatten*>(m) != nullptr ||
                   dynamic_cast<nn::Dropout*>(m) != nullptr) {
            // Flatten is a view change handled at the head boundary; dropout
            // is identity at inference.
            continue;
        } else if (auto* linear = dynamic_cast<nn::Linear*>(m)) {
            in_head = true;
            head_linears.emplace_back(linear->weight.value, linear->bias.value);
            head_relu.push_back(false);
        } else if (dynamic_cast<nn::ReLU*>(m) != nullptr && in_head) {
            if (!head_relu.empty()) head_relu.back() = true;
        } else {
            throw std::invalid_argument("unsupported layer for int-only inference: " +
                                        m->name());
        }
    }
    if (head_linears.empty())
        throw std::invalid_argument("model has no classifier head");
    // One span label per op, interned now so forward_into passes a pointer.
    for (std::size_t i = 0; i < ops_.size(); ++i) {
        const Op* op = ops_[i].get();
        const auto* avg = dynamic_cast<const AvgPoolOp*>(op);
        const char* kind = dynamic_cast<const ConvOp*>(op) != nullptr ? "conv"
                           : avg == nullptr                          ? "maxpool"
                           : avg->global                             ? "gap"
                                                                     : "avgpool";
        char label[48];
        std::snprintf(label, sizeof(label), "engine.op%02zu.%s", i, kind);
        ops_[i]->span = obs::intern_label(label);
    }

    // The head's weights are static: pack them into GEMM panels once.
    for (std::size_t i = 0; i < head_linears.size(); ++i) {
        const tensor::Tensor& w = head_linears[i].first;
        HeadLayer layer;
        layer.out = w.dim(0);
        layer.in = w.dim(1);
        layer.packed.resize(
            static_cast<std::size_t>(kernels::gemm_packed_size(layer.out, layer.in)));
        kernels::gemm_pack_b(w.data(), layer.out, layer.in, layer.packed.data());
        layer.bias = head_linears[i].second;
        layer.relu = head_relu[i];
        head_chain_.push_back(std::move(layer));
    }

    // --- 2. Calibration ----------------------------------------------------
    const std::int64_t n_cal = std::min<std::int64_t>(calib_samples, calibration.size());
    if (n_cal < 1) throw std::invalid_argument("empty calibration set");
    float in_lo = 0.0f, in_hi = 0.0f;
    {
        data::DataLoader loader(calibration, std::min<std::int64_t>(n_cal, 32),
                                /*shuffle=*/false, 0);
        loader.start_epoch();
        data::Batch batch;
        kernels::Workspace ws;
        std::int64_t used = 0;
        bool first = true;
        while (used < n_cal && loader.next(batch)) {
            if (first) {
                in_lo = batch.images.min();
                in_hi = batch.images.max();
                in_c_ = batch.images.dim(1);
                in_h_ = batch.images.dim(2);
                in_w_ = batch.images.dim(3);
                first = false;
            } else {
                in_lo = std::min(in_lo, batch.images.min());
                in_hi = std::max(in_hi, batch.images.max());
            }
            tensor::Tensor cur = batch.images;
            for (auto& op : ops_) cur = op->run_float(cur, ws);
            if (cur.numel() != cur.dim(0) * head_chain_.front().in)
                throw std::invalid_argument(
                    "calibration sample shape does not fit the classifier head");
            used += batch.images.dim(0);
        }
    }
    // Activations must index every conv's LUT, so the network-wide
    // activation width is the narrowest multiplier width.
    act_bits_ = 8;
    for (auto& op : ops_) {
        if (auto* conv = dynamic_cast<ConvOp*>(op.get()))
            act_bits_ = std::min(act_bits_, conv->bits);
    }
    const auto ip = quant::choose_params(in_lo, in_hi, act_bits_);
    input_scale_ = ip.scale;
    input_zero_ = static_cast<std::int32_t>(ip.zero_point);

    // --- 3. Finalize integer parameters ------------------------------------
    float scale = input_scale_;
    std::int32_t zero = input_zero_;
    for (auto& op : ops_) {
        if (auto* conv = dynamic_cast<ConvOp*>(op.get())) {
            conv->finalize(scale, zero, act_bits_);
            scale = conv->out_scale;
            zero = conv->out_zero;
        }
        // Pool ops keep scale/zero.
    }

    // --- 4. Static overflow proof ------------------------------------------
    const analysis::GraphDesc desc = describe();
    // Workspace-arena plan key: the graph content digest (|1 so it is never
    // the "untracked" sentinel 0). Two engines with identical compiled
    // parameters share high-water accounting, mirroring the serve registry's
    // content-addressed model keys.
    arena_key_ = analysis::digest(desc) | 1ull;
    if (safety == SafetyPolicy::kOff) return;
    const std::string key = analysis::digest_key(desc);
    auto& cache = analysis::CertificateCache::instance();
    certificate_ = cache.lookup(key);
    if (certificate_ == nullptr) {
        auto cert =
            std::make_shared<analysis::Certificate>(analysis::analyze_graph(desc));
        cache.store(cert);
        certificate_ = std::move(cert);
    }
    if (!certificate_->safe) {
        if (safety == SafetyPolicy::kEnforce)
            throw std::runtime_error(
                "static analysis rejected the compiled integer graph (" + key +
                "): " + certificate_->summary());
        if (cache.first_warning(key))
            std::fprintf(stderr,
                         "[amret] warning: integer graph %s is not proven "
                         "overflow-free: %s\n",
                         key.c_str(), certificate_->summary().c_str());
    }
}

analysis::GraphDesc IntInferenceEngine::describe() const {
    analysis::GraphDesc desc;
    desc.act_bits = act_bits_;
    desc.ops.reserve(ops_.size());
    std::size_t conv_index = 0, pool_index = 0;
    for (const auto& op : ops_) {
        analysis::OpDesc d;
        if (const auto* conv = dynamic_cast<const ConvOp*>(op.get())) {
            d.kind = analysis::OpDesc::Kind::kConv;
            d.label = "conv" + std::to_string(conv_index++);
            d.conv.multiplier = conv->mult_name;
            d.conv.hws = conv->mult_hws;
            d.conv.bits = conv->bits;
            d.conv.relu = conv->relu;
            d.conv.out_ch = conv->out_ch;
            d.conv.k = conv->out_ch > 0
                           ? static_cast<std::int64_t>(conv->wq.size()) / conv->out_ch
                           : 0;
            d.conv.lut = conv->lut;
            d.conv.wq = conv->wq;
            d.conv.sum_w = conv->sum_w;
            d.conv.bias_raw = conv->bias_raw;
            d.conv.zero_w = conv->zero_w;
            d.conv.zero_x = conv->in_zero;
            d.conv.requant = conv->requant;
            d.conv.out_zero = conv->out_zero;
            d.conv.out_qmax = conv->out_qmax;
            // Digest-excluded derived data; the analyzer cross-checks the
            // packing and the padding constant so the certificate covers the
            // panels the forward reads.
            d.conv.panel_tr = conv->wplan.tr;
            d.conv.panel_tk = conv->wplan.tk;
            d.conv.panel_taps = conv->kernel * conv->kernel;
            d.conv.wq_panels = conv->wq_panels;
            d.conv.pad_sum = conv->pad_sum;
        } else if (const auto* avg = dynamic_cast<const AvgPoolOp*>(op.get())) {
            d.kind = analysis::OpDesc::Kind::kPool;
            d.label = "pool" + std::to_string(pool_index++);
            d.pool.kind = avg->global ? analysis::PoolOpDesc::Kind::kGlobalAvg
                                      : analysis::PoolOpDesc::Kind::kAvg;
            d.pool.kernel = avg->kernel;
        } else if (const auto* mp = dynamic_cast<const MaxPoolOp*>(op.get())) {
            d.kind = analysis::OpDesc::Kind::kPool;
            d.label = "pool" + std::to_string(pool_index++);
            d.pool.kind = analysis::PoolOpDesc::Kind::kMax;
            d.pool.kernel = mp->kernel;
        } else {
            continue; // unreachable: the constructor only builds these ops
        }
        desc.ops.push_back(std::move(d));
    }
    return desc;
}

IntInferenceEngine::~IntInferenceEngine() = default;

QTensor IntInferenceEngine::quantize_input(const tensor::Tensor& images,
                                           kernels::Workspace& ws) const {
    QTensor q;
    q.n = images.dim(0);
    q.c = images.dim(1);
    q.h = images.dim(2);
    q.w = images.dim(3);
    q.scale = input_scale_;
    q.zero = input_zero_;
    q.data = ws.alloc<std::uint8_t>(q.numel());
    const float qmax = static_cast<float>((1u << act_bits_) - 1);
    runtime::parallel_for(0, images.numel(),
                          runtime::grain_for(images.numel(), 1024),
                          [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
            const float v = std::nearbyint(images[i] / input_scale_ +
                                           static_cast<float>(input_zero_));
            q.data[i] = static_cast<std::uint8_t>(std::clamp(v, 0.0f, qmax));
        }
    });
    return q;
}

tensor::Tensor IntInferenceEngine::forward(const tensor::Tensor& images) {
    tensor::Tensor logits;
    forward_into(images, ws_, logits);
    return logits;
}

void IntInferenceEngine::forward_into(const tensor::Tensor& images,
                                      kernels::Workspace& ws,
                                      tensor::Tensor& logits) const {
    if (images.rank() != 4 || images.dim(1) != in_c_ || images.dim(2) != in_h_ ||
        images.dim(3) != in_w_)
        throw std::invalid_argument(
            "engine input " + images.shape_str() + " does not match the (N, " +
            std::to_string(in_c_) + ", " + std::to_string(in_h_) + ", " +
            std::to_string(in_w_) + ") batches it was calibrated on");
    // One epoch per call: every intermediate activation and kernel scratch
    // buffer bumps out of \p ws, so a steady-state caller (e.g. a serving
    // worker reusing its workspace) allocates nothing on the heap. The epoch
    // is opened under this engine's layout-plan key, so a worker alternating
    // between models keeps per-model high-water marks and trim() never
    // releases the hot working set (see Workspace::begin).
    ws.begin(arena_key_);
    QTensor q;
    {
        AMRET_OBS_SPAN("engine.input");
        q = quantize_input(images, ws);
    }
    for (const auto& op : ops_) {
        AMRET_OBS_SPAN(op->span);
        q = op->run(q, ws);
    }
    AMRET_OBS_SPAN("engine.head");

    const std::int64_t classes = num_classes();
    if (logits.rank() != 2 || logits.dim(0) != q.n || logits.dim(1) != classes)
        logits = tensor::Tensor(tensor::Shape{q.n, classes});

    // Dequantize and run the float head through the float GEMM: each output
    // is one fixed-order dot-product chain and rows are independent, so
    // batched logits match single-sample calls bitwise. The flattened head
    // input is channel-major, the NCHW order of the final activation.
    std::int64_t cur_dim = q.c * q.h * q.w;
    float* cur = ws.alloc<float>(q.n * cur_dim);
    for (std::int64_t i = 0; i < q.n * cur_dim; ++i)
        cur[i] = q.scale * (static_cast<float>(q.data[i]) - static_cast<float>(q.zero));

    for (std::size_t li = 0; li < head_chain_.size(); ++li) {
        const HeadLayer& layer = head_chain_[li];
        assert(layer.in == cur_dim);
        float* next = li + 1 == head_chain_.size()
                          ? logits.data()
                          : ws.alloc<float>(q.n * layer.out);
        kernels::gemm_nt_packed(cur, layer.packed.data(), q.n, layer.out, cur_dim,
                                next, {layer.bias.data(), layer.relu});
        cur = next;
        cur_dim = layer.out;
    }
}

double IntInferenceEngine::evaluate(const data::Dataset& dataset,
                                    std::int64_t batch_size) {
    data::DataLoader loader(dataset, batch_size, /*shuffle=*/false, 0);
    loader.start_epoch();
    data::Batch batch;
    double hits = 0.0;
    std::int64_t total = 0;
    while (loader.next(batch)) {
        const tensor::Tensor logits = forward(batch.images);
        hits += nn::top1_accuracy(logits, batch.labels) *
                static_cast<double>(batch.labels.size());
        total += static_cast<std::int64_t>(batch.labels.size());
    }
    return total ? hits / static_cast<double>(total) : 0.0;
}

} // namespace amret::approx
