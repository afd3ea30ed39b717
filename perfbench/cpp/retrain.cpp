/// \file retrain.cpp
/// \brief retrain_vgg19 / retrain_mobilenet: AppMult-aware retraining steps.
///
/// Quantized training with mul8u_rm8 and its difference-based gradient LUT,
/// Adam, batch 32, from seeded init (no float or QAT phase). Each timed
/// operation is one Trainer step: the trainer reads its dataset by
/// reference, so a one-batch window is refilled from a seeded pool between
/// steps and train_only(1) then runs exactly one step on fresh samples.
///
/// The traced run hands the trainer a flat Sequential of wrapper modules
/// that forward every call to the model's own layers inside obs spans
/// (approx.Lnn.fwd/bwd for approximate layers in visit order, nn.float.*
/// for the rest), so per-layer time needs no instrumentation in src/.
#include "common.hpp"

#include "amret.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace perfbench {

namespace {

using namespace amret;

constexpr const char* kMultiplier = "mul8u_rm8";
constexpr std::int64_t kBatch = 32;
constexpr std::int64_t kPoolBatches = 16; ///< distinct batches cycled through
constexpr int kClasses = 10;
constexpr std::int64_t kInSize = 16;
constexpr float kWidth = 0.25f;
constexpr int kThreads = 4;
constexpr int kWarmupSteps = 2;  ///< part of set-up: first-step costs
constexpr int kDigestSteps = 6;  ///< timed steps covered by the digest

struct Spec {
    const char* model;
    int microbatches;
};

Spec spec_for(const std::string& workload) {
    if (workload == "retrain_vgg19") return {"vgg19", 1};
    if (workload == "retrain_mobilenet") return {"mobilenet", 4};
    throw std::invalid_argument("not a retrain workload: " + workload);
}

/// Which approximate layer type a module is ("" = not approximate).
std::string approx_kind(nn::Module& m) {
    if (auto* c = dynamic_cast<approx::ApproxConv2d*>(&m)) {
        return c->kernel() == 1 ? "pointwise" : "conv" + std::to_string(c->kernel()) +
                                                    "x" + std::to_string(c->kernel());
    }
    if (dynamic_cast<approx::DepthwiseConv2d*>(&m) != nullptr) return "depthwise";
    if (dynamic_cast<approx::ApproxLinear*>(&m) != nullptr) return "linear";
    return {};
}

std::int64_t forward_lookups(nn::Module& m, const nn::Context& ctx) {
    if (auto* c = dynamic_cast<approx::ApproxConv2d*>(&m))
        return c->last_forward_macs(ctx);
    if (auto* d = dynamic_cast<approx::DepthwiseConv2d*>(&m))
        return d->last_forward_macs(ctx);
    if (auto* l = dynamic_cast<approx::ApproxLinear*>(&m))
        return l->last_forward_macs(ctx);
    return 0;
}

std::string shape_str(const tensor::Tensor& t) {
    std::string s;
    for (std::size_t i = 0; i < t.shape().size(); ++i) {
        if (i) s += 'x';
        s += std::to_string(t.shape()[i]);
    }
    return s;
}

/// Forwards every call to one layer of the benchmarked model inside obs
/// spans. Numerically transparent: coupling, parameters and visits are the
/// inner layer's own, so the trainer runs exactly the same computation.
class TracedLayer : public nn::Module {
public:
    TracedLayer(nn::Module* inner, std::string label, bool approximate)
        : inner_(inner), approximate_(approximate),
          fwd_(intern(label + ".fwd")), bwd_(intern(label + ".bwd")) {}

    tensor::Tensor forward(const tensor::Tensor& x, nn::Context& ctx) override {
        tensor::Tensor y;
        {
            const obs::ScopedSpan span(fwd_);
            y = inner_->forward(x, ctx);
        }
        if (approximate_) {
            lookups_.fetch_add(forward_lookups(*inner_, ctx),
                               std::memory_order_relaxed);
            // Microbatch slices call concurrently; the first call's shapes
            // (full batch or one slice) stand for all of them.
            std::call_once(shapes_once_, [&] {
                in_shape_ = shape_str(x);
                out_shape_ = shape_str(y);
            });
        }
        return y;
    }
    tensor::Tensor backward(const tensor::Tensor& gy, nn::Context& ctx) override {
        const obs::ScopedSpan span(bwd_);
        return inner_->backward(gy, ctx);
    }
    [[nodiscard]] nn::BatchCoupling coupling() const override {
        return inner_->coupling();
    }
    void batch_pre_pass(const tensor::Tensor& x) override { inner_->batch_pre_pass(x); }
    void collect_params(std::vector<nn::Param*>& out) override {
        inner_->collect_params(out);
    }
    void set_training(bool training) override {
        Module::set_training(training);
        inner_->set_training(training);
    }
    void visit(const std::function<void(nn::Module&)>& fn) override {
        inner_->visit(fn);
    }
    [[nodiscard]] std::string name() const override { return inner_->name(); }

    [[nodiscard]] std::int64_t lookups() const { return lookups_.load(); }
    void reset_lookups() { lookups_.store(0); }
    [[nodiscard]] const std::string& in_shape() const { return in_shape_; }
    [[nodiscard]] const std::string& out_shape() const { return out_shape_; }

private:
    nn::Module* inner_;
    bool approximate_;
    const char* fwd_;
    const char* bwd_;
    std::atomic<std::int64_t> lookups_{0};
    std::once_flag shapes_once_;
    std::string in_shape_, out_shape_;
};

void flatten(nn::Module& m, std::vector<nn::Module*>& out) {
    if (auto* seq = dynamic_cast<nn::Sequential*>(&m)) {
        for (std::size_t i = 0; i < seq->size(); ++i) flatten(*seq->child(i), out);
        return;
    }
    out.push_back(&m);
}

/// One complete set-up: data, LUTs, model, trainer, warm-up steps.
struct Fixture {
    data::DatasetPair pool;    ///< train = the seeded sample pool
    data::Dataset window;      ///< one batch; the trainer reads this
    std::unique_ptr<nn::Sequential> model;
    std::unique_ptr<nn::Sequential> traced; ///< wrappers (traced runs only)
    std::vector<TracedLayer*> wrappers;
    std::vector<std::string> kinds;         ///< per wrapper: approx kind or ""
    std::unique_ptr<train::Trainer> trainer;
    std::int64_t next_batch = 0;

    void fill_window() {
        const std::int64_t numel = pool.train.sample_numel();
        const std::int64_t first = (next_batch % kPoolBatches) * kBatch;
        std::memcpy(window.images.data(), pool.train.images.data() + first * numel,
                    static_cast<std::size_t>(kBatch * numel) * sizeof(float));
        std::copy_n(pool.train.labels.begin() + first, kBatch, window.labels.begin());
        ++next_batch;
    }

    /// One training step on the next pool batch; returns its loss.
    double step() {
        fill_window();
        return trainer->train_only(1).front().loss;
    }
};

std::unique_ptr<Fixture> set_up(const Options& opt, const Spec& spec, Report& report,
                                bool traced) {
    auto s = std::make_unique<Fixture>();
    auto& reg = appmult::Registry::instance();
    const appmult::MultiplierInfo& info = reg.info(kMultiplier);

    report.setup_ms["data.synth_ms"] = time_ms([&] {
        data::SyntheticConfig dc;
        dc.num_classes = kClasses;
        dc.height = dc.width = kInSize;
        dc.train_samples = kBatch * kPoolBatches;
        dc.test_samples = kBatch;
        dc.seed = opt.seed;
        s->pool = data::make_synthetic(dc);
    });
    s->window = s->pool.test; // same geometry, one batch
    std::shared_ptr<appmult::AppMultLut> lut;
    report.setup_ms["appmult.lut_build_ms"] = time_ms([&] {
        const multgen::MultiplierSpec mspec = info.spec;
        lut = std::make_shared<appmult::AppMultLut>(
            mspec.bits, [&mspec](std::uint64_t w, std::uint64_t x) {
                return multgen::behavioral(mspec, w, x);
            });
    });
    std::shared_ptr<core::GradLut> grad;
    report.setup_ms["core.grad_lut_build_ms"] = time_ms([&] {
        grad = std::make_shared<core::GradLut>(
            core::build_difference_grad(*lut, info.default_hws));
    });

    models::ModelConfig mc;
    mc.num_classes = kClasses;
    mc.in_size = kInSize;
    mc.width_mult = kWidth;
    mc.seed = opt.seed;
    s->model = train::make_model(spec.model, mc);
    approx::MultiplierConfig mult;
    mult.lut = lut;
    mult.grad = grad;
    mult.name = kMultiplier;
    mult.hws = info.default_hws;
    mult.grad_mode = core::GradientMode::kDifference;
    approx::configure_approx_layers(*s->model, mult, approx::ComputeMode::kQuantized);

    nn::Module* trained = s->model.get();
    if (traced) {
        std::vector<nn::Module*> units;
        flatten(*s->model, units);
        s->traced = std::make_unique<nn::Sequential>();
        int approx_index = 0;
        for (nn::Module* u : units) {
            const std::string kind = approx_kind(*u);
            char label[32];
            if (kind.empty()) {
                std::snprintf(label, sizeof label, "nn.float.%s", u->name().c_str());
            } else {
                std::snprintf(label, sizeof label, "approx.L%02d", approx_index++);
            }
            auto w = std::make_unique<TracedLayer>(u, label, !kind.empty());
            s->wrappers.push_back(w.get());
            s->kinds.push_back(kind);
            s->traced->append(std::move(w));
        }
        trained = s->traced.get();
    }

    train::TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = kBatch;
    tc.microbatches = spec.microbatches;
    tc.lr = 1e-3;
    tc.seed = opt.seed;
    s->trainer =
        std::make_unique<train::Trainer>(*trained, s->window, s->pool.test, tc);
    for (int i = 0; i < kWarmupSteps; ++i) {
        const double loss = s->step();
        if (!std::isfinite(loss)) report.check("warmup_loss_finite", false);
    }
    return s;
}

std::uint64_t model_digest(nn::Module& model, std::uint64_t h) {
    const train::ModelSnapshot snap = train::snapshot(model);
    for (const tensor::Tensor& p : snap.params)
        h = fnv1a(p.data(), static_cast<std::size_t>(p.numel()) * sizeof(float), h);
    return fnv1a(snap.extra.data(), snap.extra.size() * sizeof(float), h);
}

} // namespace

void run_retrain(const Options& opt, Report& report) {
    const Spec spec = spec_for(opt.workload);
    runtime::set_num_threads(kThreads);
    report.threads = kThreads;

    std::unique_ptr<Fixture> s;
    timed_setup(report, [&] { s = set_up(opt, spec, report, opt.trace); });
    if (opt.setup_only) return;

    ThreadClocks threads(true);
    TraceFolder folder;
    folder.keep_durations("train.step");
    if (opt.trace) {
        obs::reset_counters();
        for (TracedLayer* w : s->wrappers) w->reset_lookups(); // drop warm-up steps
        folder.start();
    }

    std::vector<double> step_ms, step_cpu_ms;
    std::uint64_t digest = kFnvBasis;
    std::int64_t non_finite = 0;
    const std::int64_t budget_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
    const std::int64_t t_begin = now_ns();
    double timed_ns = 0.0;
    while (static_cast<std::int64_t>(step_ms.size()) < kDigestSteps ||
           now_ns() - t_begin < budget_ns) {
        threads.mark();
        const std::int64_t c0 = process_cpu_ns();
        const std::int64_t t0 = now_ns();
        const double loss = s->step();
        const std::int64_t t1 = now_ns();
        threads.add();
        step_cpu_ms.push_back(static_cast<double>(process_cpu_ns() - c0) * 1e-6);
        timed_ns += static_cast<double>(t1 - t0);
        step_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        report.attempted += 1;
        if (!std::isfinite(loss)) {
            ++non_finite;
            report.failed += 1;
        }
        if (static_cast<int>(step_ms.size()) <= kDigestSteps) {
            digest = fnv1a(&loss, sizeof loss, digest);
            if (static_cast<int>(step_ms.size()) == kDigestSteps)
                digest = model_digest(*s->model, digest);
        }
        if (opt.trace) folder.harvest();
    }
    const double wall_s = static_cast<double>(now_ns() - t_begin) * 1e-9;
    if (opt.trace) folder.stop();

    report.check("losses_finite", non_finite == 0,
                 std::to_string(non_finite) + " non-finite step losses");
    report.digest = hex64(digest);
    report.series["train.step_ms"] = step_ms;
    report.series["train.step_cpu_ms"] = step_cpu_ms;
    report.scalars["train.busiest_ms"] = threads.busiest_ms();
    report.scalars["train.samples"] = static_cast<double>(kBatch) *
                                      static_cast<double>(step_ms.size());
    report.scalars["train.timed_s"] = timed_ns * 1e-9;
    if (!opt.trace) return;

    // ---- per-layer metrics (per training step) ------------------------------
    const double steps = static_cast<double>(step_ms.size());
    auto& L = report.layers;
    const auto per_step = [&](double v) { return v / steps; };
    const auto total = &SpanTotals::total_ms;
    double conv_f = 0, conv_b = 0, dw_f = 0, dw_b = 0, lookups = 0;
    int approx_index = 0;
    for (std::size_t i = 0; i < s->wrappers.size(); ++i) {
        const std::string& kind = s->kinds[i];
        if (kind.empty()) continue;
        char label[32];
        std::snprintf(label, sizeof label, "approx.L%02d", approx_index++);
        const double f = folder.get(std::string(label) + ".fwd", total);
        const double b = folder.get(std::string(label) + ".bwd", total);
        const double n = static_cast<double>(s->wrappers[i]->lookups());
        (kind == "depthwise" ? dw_f : conv_f) += f;
        (kind == "depthwise" ? dw_b : conv_b) += b;
        lookups += n;
        L[std::string(label) + ".fwd_ms"] = per_step(f);
        L[std::string(label) + ".bwd_ms"] = per_step(b);
        L[std::string(label) + ".fwd_lookups"] = per_step(n);
        report.rows.push_back({{"layer", label},
                               {"kind", kind},
                               {"in", s->wrappers[i]->in_shape()},
                               {"out", s->wrappers[i]->out_shape()}});
    }
    L["approx.conv.fwd_ms"] = per_step(conv_f);
    L["approx.conv.bwd_ms"] = per_step(conv_b);
    L["approx.depthwise.fwd_ms"] = per_step(dw_f);
    L["approx.depthwise.bwd_ms"] = per_step(dw_b);
    L["approx.fwd_lookups"] = per_step(lookups);
    const double approx_fwd_s = (conv_f + dw_f) * 1e-3;
    L["approx.fwd_lookups_per_s"] = approx_fwd_s > 0 ? lookups / approx_fwd_s : 0.0;
    L["nn.float.fwd_ms"] = per_step(folder.sum("nn.float.", ".fwd", total));
    L["nn.float.bwd_ms"] = per_step(folder.sum("nn.float.", ".bwd", total));
    L["nn.optim_ms"] = per_step(folder.get("nn.optim.step", total));
    report.series["train.step_span_ms"] = folder.durations("train.step");
    L["train.grad_reduce_ms"] = per_step(folder.get("train.grad_reduce", total));
    // The trainer's own glue (slicing, loss, bookkeeping) is what no layer
    // span claims.
    double glue_ms = 0.0;
    for (const char* glue : {"train.epoch", "train.step", "train.forward",
                             "train.backward", "train.microbatch.forward",
                             "train.microbatch.backward"})
        glue_ms += folder.get(glue, &SpanTotals::excl_ms);
    fill_shared_layers(folder, steps, wall_s, kThreads,
                       folder.get("train.epoch", total), glue_ms, report);
}

} // namespace perfbench
