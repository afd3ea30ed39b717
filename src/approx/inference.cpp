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
    /// The op's analyzer description (label left empty): a copy of the
    /// parameters it runs on.
    [[nodiscard]] virtual analysis::OpDesc describe() const = 0;
};

namespace {

/// The op kind of an engine span label ("engine.op03.conv").
const char* span_kind(const analysis::OpDesc& d) {
    if (d.kind == analysis::OpDesc::Kind::kConv) return "conv";
    switch (d.pool.kind) {
    case analysis::PoolOpDesc::Kind::kMax: return "maxpool";
    case analysis::PoolOpDesc::Kind::kAvg: return "avgpool";
    case analysis::PoolOpDesc::Kind::kGlobalAvg: return "gap";
    }
    return "pool";
}

struct ConvOp final : IntInferenceEngine::Op {
    /// The compiled integer parameters (finalize() fills the codes and
    /// constants), exactly as the kernel consumes and the analyzer checks
    /// them: multiplier identity, LUT, weight codes, their tap-major panels
    /// with the Eq. (8) header and the padding constant, bias, zero points
    /// and requantization.
    analysis::ConvOpDesc d;
    std::int64_t in_ch = 0, kernel = 3, stride = 1, pad = 1;
    tensor::Tensor folded_w; // (O, C, K, K) float, BN folded
    tensor::Tensor folded_b; // (O)
    float out_scale = 1.0f;  // output scale (finalize()), the next op's input

    // Calibration state.
    float out_lo = 0.0f, out_hi = 0.0f;
    bool calibrated = false;

    analysis::OpDesc describe() const override {
        analysis::OpDesc out;
        out.kind = analysis::OpDesc::Kind::kConv;
        out.conv = d;
        return out;
    }

    tensor::Tensor run_float(const tensor::Tensor& x,
                             kernels::Workspace& ws) override {
        tensor::ConvGeom geom{x.dim(0), in_ch, x.dim(2), x.dim(3), kernel, stride, pad};
        const tensor::Tensor cols = kernels::im2col(x, geom);
        tensor::Tensor po(tensor::Shape{geom.positions(), d.out_ch}); // post-ReLU
        ws.reset();
        kernels::gemm_nt(cols.data(), folded_w.data(), geom.positions(), d.out_ch,
                         geom.patch(), po.data(), ws, {folded_b.data(), d.relu});
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
        tensor::Tensor y(tensor::Shape{x.dim(0), d.out_ch, geom.out_h(), geom.out_w()});
        kernels::scatter_positions(po.data(), x.dim(0), d.out_ch, geom.out_h(),
                                   geom.out_w(), y.data());
        return y;
    }

    void finalize(float input_scale, std::int32_t input_zero, unsigned act_bits) {
        d.zero_x = input_zero;
        const auto wp = quant::choose_params(folded_w.min(), folded_w.max(), d.bits);
        d.zero_w = static_cast<std::int32_t>(wp.zero_point);
        d.wq.resize(static_cast<std::size_t>(folded_w.numel()));
        for (std::int64_t i = 0; i < folded_w.numel(); ++i)
            d.wq[static_cast<std::size_t>(i)] =
                static_cast<std::uint16_t>(wp.quantize(folded_w[i]));

        // Output activations must index the *next* layer's LUT, so they are
        // quantized to the network-wide activation width.
        d.out_qmax = static_cast<std::int32_t>((1u << act_bits) - 1);
        const auto op = quant::choose_params(out_lo, out_hi, act_bits);
        out_scale = op.scale;
        d.out_zero = static_cast<std::int32_t>(op.zero_point);

        const double acc_scale = static_cast<double>(input_scale) * wp.scale;
        d.requant = quantize_multiplier(acc_scale / out_scale);
        // The pre-narrowing value: requantize() narrows it to int32, which
        // the static analyzer proves lossless (or reports "bias-overflow").
        d.bias_raw.resize(static_cast<std::size_t>(d.out_ch));
        for (std::int64_t o = 0; o < d.out_ch; ++o)
            d.bias_raw[static_cast<std::size_t>(o)] =
                std::lround(static_cast<double>(folded_b[o]) / acc_scale);

        // Weights are static after compilation, so they are packed once here:
        // tap-major panels with the Eq. (8) weight row sums as their header,
        // and the padding constant against the input zero point. The analyzer
        // re-derives all three on every certificate ("panel-pack-mismatch",
        // "panel-sum-mismatch", "pad-sum-mismatch"), so every conv carries
        // the constant, unpadded or not.
        d.k = folded_w.numel() / d.out_ch;
        d.panel_taps = kernel * kernel;
        const kernels::PanelPlan wplan =
            kernels::make_panel_plan(d.out_ch, d.k, tune::kTileO, tune::kTileK);
        d.panel_tr = wplan.tr;
        d.panel_tk = wplan.tk;
        d.wq_panels.resize(static_cast<std::size_t>(wplan.elems()));
        d.sum_w.resize(static_cast<std::size_t>(d.out_ch));
        kernels::pack_weight_panels_into(d.wq.data(), d.bits, wplan, d.panel_taps,
                                         d.wq_panels.data(), d.sum_w.data());
        d.pad_sum.resize(static_cast<std::size_t>(d.out_ch * d.panel_taps));
        kernels::pad_sums_into(d.wq.data(), d.bits, d.out_ch, d.k, d.panel_taps,
                               d.lut->table().data(),
                               static_cast<std::uint16_t>(d.zero_x), d.pad_sum.data());
    }

    /// The requantization epilogue. Pure integer arithmetic on the exact
    /// Eq. (8) corrected accumulator, so block order cannot change the
    /// result.
    [[nodiscard]] std::uint8_t requantize(std::int64_t oo,
                                          std::int64_t corrected) const {
        // The int32 bias the kernel adds: bias_raw narrowed.
        const auto bias =
            static_cast<std::int32_t>(d.bias_raw[static_cast<std::size_t>(oo)]);
        const std::int64_t a = corrected + bias;
        std::int32_t v = quant::fixed_point_rescale(a, d.requant) + d.out_zero;
        if (d.relu) v = std::max(v, d.out_zero);
        v = std::clamp(v, 0, d.out_qmax);
        return static_cast<std::uint8_t>(v);
    }

    QTensor run(const QTensor& x, kernels::Workspace& ws) const override {
        tensor::ConvGeom geom{x.n, in_ch, x.h, x.w, kernel, stride, pad};
        const std::int64_t spatial = geom.out_h() * geom.out_w();

        QTensor y;
        y.n = x.n;
        y.c = d.out_ch;
        y.h = geom.out_h();
        y.w = geom.out_w();
        y.scale = out_scale;
        y.zero = d.out_zero;
        y.data = ws.alloc<std::uint8_t>(y.numel());

        // im2col is fused into activation panel production (no (positions x
        // patch) column buffer), the weight panels and the padding constant
        // were built at finalize(), and the Eq. (8) row sums come from the
        // panel headers. The packer runs on the GEMM's chunks.
        assert(x.zero == d.zero_x && "pad_sum assumes the input zero point");
        const kernels::PanelPlan wplan{d.out_ch, d.k, d.panel_tr, d.panel_tk};
        const kernels::PanelPlan xplan = kernels::make_conv_act_plan(
            geom.positions(), d.k, tune::kTileP, wplan.tk);
        kernels::LutGemmArgs a;
        a.bits = d.bits;
        a.lut = d.lut->table().data();
        a.lut_planes = d.lut->planes();
        a.o = d.out_ch;
        a.geom = geom;
        a.zero_w = d.zero_w;
        a.zero_x = x.zero;
        a.w = kernels::WeightPanels{wplan, d.wq_panels.data(), d.sum_w.data(),
                                    d.pad_sum.data()};
        a.x = kernels::pack_im2col_panels_u8(
            x.data, geom, static_cast<std::uint16_t>(x.zero), xplan, ws, d.bits,
            kernels::forward_grain(xplan, d.out_ch));
        kernels::lut_gemm_blocked(a, [&](std::int64_t pp, std::int64_t oo,
                                         std::int64_t corrected) {
            const std::int64_t n = pp / spatial;
            y.data[(n * d.out_ch + oo) * spatial + pp % spatial] =
                requantize(oo, corrected);
        });
        return y;
    }
};

/// Integer max, average or global-average pooling, kernel == stride; scale
/// and zero point pass through.
struct PoolOp final : IntInferenceEngine::Op {
    analysis::PoolOpDesc d;

    PoolOp(analysis::PoolOpDesc::Kind kind, std::int64_t kernel) {
        d.kind = kind;
        d.kernel = kernel;
    }

    analysis::OpDesc describe() const override {
        analysis::OpDesc out;
        out.kind = analysis::OpDesc::Kind::kPool;
        out.pool = d;
        return out;
    }

    tensor::Tensor run_float(const tensor::Tensor& x, kernels::Workspace&) override {
        nn::Context ctx;
        switch (d.kind) {
        case analysis::PoolOpDesc::Kind::kMax:
            return nn::MaxPool2d(d.kernel).forward(x, ctx);
        case analysis::PoolOpDesc::Kind::kAvg:
            return nn::AvgPool2d(d.kernel).forward(x, ctx);
        case analysis::PoolOpDesc::Kind::kGlobalAvg: break;
        }
        return nn::GlobalAvgPool().forward(x, ctx);
    }

    QTensor run(const QTensor& x, kernels::Workspace& ws) const override {
        const bool max = d.kind == analysis::PoolOpDesc::Kind::kMax;
        const bool global = d.kind == analysis::PoolOpDesc::Kind::kGlobalAvg;
        const std::int64_t kh = global ? x.h : d.kernel;
        const std::int64_t kw = global ? x.w : d.kernel;
        const std::int64_t window = kh * kw;
        QTensor y;
        y.n = x.n;
        y.c = x.c;
        y.h = x.h / kh;
        y.w = x.w / kw;
        y.scale = x.scale;
        y.zero = x.zero;
        y.data = ws.alloc<std::uint8_t>(y.numel());
        for (std::int64_t i = 0; i < x.n * x.c; ++i) {
            const std::uint8_t* px = x.data + i * x.h * x.w;
            std::uint8_t* py = y.data + i * y.h * y.w;
            for (std::int64_t oy = 0; oy < y.h; ++oy)
                for (std::int64_t ox = 0; ox < y.w; ++ox) {
                    std::int64_t acc = 0; // the window's max, or its sum
                    for (std::int64_t ky = 0; ky < kh; ++ky)
                        for (std::int64_t kx = 0; kx < kw; ++kx) {
                            const std::int64_t v =
                                px[(oy * kh + ky) * x.w + ox * kw + kx];
                            acc = max ? std::max(acc, v) : acc + v;
                        }
                    if (!max)
                        acc = std::clamp<std::int64_t>((acc + window / 2) / window, 0,
                                                       255);
                    py[oy * y.w + ox] = static_cast<std::uint8_t>(acc);
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
            op->d.out_ch = conv->out_channels();
            op->kernel = conv->kernel();
            op->stride = conv->stride();
            op->pad = conv->padding();
            op->folded_w = conv->weight.value;
            op->folded_b = conv->bias.value;
            if (const MultiplierConfig& mult = conv->multiplier(); mult.valid()) {
                op->d.lut = mult.lut;
                op->d.bits = mult.bits();
                op->d.multiplier = mult.name;
                op->d.hws = mult.hws;
            } else {
                op->d.lut = std::make_shared<appmult::AppMultLut>(
                    appmult::AppMultLut::exact(8));
                op->d.bits = 8;
            }
            // Fold a following BatchNorm2d.
            if (i + 1 < model.size()) {
                if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(model.child(i + 1))) {
                    const std::int64_t patch =
                        op->folded_w.numel() / op->d.out_ch;
                    for (std::int64_t o = 0; o < op->d.out_ch; ++o) {
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
                op->d.relu = true;
                ++i;
            }
            ops_.push_back(std::move(op));
        } else if (auto* maxpool = dynamic_cast<nn::MaxPool2d*>(m)) {
            ops_.push_back(std::make_unique<PoolOp>(analysis::PoolOpDesc::Kind::kMax,
                                                    maxpool->kernel()));
        } else if (auto* avgpool = dynamic_cast<nn::AvgPool2d*>(m)) {
            ops_.push_back(std::make_unique<PoolOp>(analysis::PoolOpDesc::Kind::kAvg,
                                                    avgpool->kernel()));
        } else if (dynamic_cast<nn::GlobalAvgPool*>(m) != nullptr) {
            // The window is the whole map; the kernel field is not read.
            ops_.push_back(std::make_unique<PoolOp>(
                analysis::PoolOpDesc::Kind::kGlobalAvg, analysis::PoolOpDesc{}.kernel));
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
        char label[48];
        std::snprintf(label, sizeof(label), "engine.op%02zu.%s", i,
                      span_kind(ops_[i]->describe()));
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
            act_bits_ = std::min(act_bits_, conv->d.bits);
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
            zero = conv->d.out_zero;
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
        analysis::OpDesc d = op->describe();
        d.label = d.kind == analysis::OpDesc::Kind::kConv
                      ? "conv" + std::to_string(conv_index++)
                      : "pool" + std::to_string(pool_index++);
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
