/// \file infer.cpp
/// \brief infer_vgg19: the integer deployment path (Fig. 1).
///
/// An IntInferenceEngine compiled from VGG19-slim (width 1/4, 16x16 input)
/// runs through forward_into with a caller workspace on four threads. The
/// engine uses the exact 8-bit multiplier's LUT: the LUT-GEMM costs the same
/// for any 8-bit table, but from seeded (untrained) weights mul8u_rm8 drops
/// every product to the same logits for all inputs, and the row check below
/// could then not tell one image from another. One timed operation is a round: one batch-64 call followed by
/// kB1PerRound batch-1 calls on images of that batch, so batch-1 latency
/// (per-call cost) and batch-64 throughput (GEMM) are measured interleaved.
/// Every batch-1 logits row must be memcmp-equal to its batch-64 row.
#include "common.hpp"

#include "amret.hpp"

#include <cstring>
#include <memory>

namespace perfbench {

namespace {

using namespace amret;

constexpr const char* kMultiplier = "mul8u_acc";
constexpr std::int64_t kBig = 64;
constexpr std::int64_t kB1PerRound = 16;
constexpr std::int64_t kPoolBatches = 8; ///< distinct batch-64 inputs
constexpr int kClasses = 10;
constexpr std::int64_t kInSize = 16;
constexpr float kWidth = 0.25f;
constexpr int kThreads = 4;

struct Fixture {
    data::DatasetPair data; ///< train = calibration set, test = input pool
    std::unique_ptr<nn::Sequential> model;
    std::unique_ptr<approx::IntInferenceEngine> engine;
};

std::unique_ptr<Fixture> set_up(const Options& opt, Report& report) {
    auto s = std::make_unique<Fixture>();
    auto& reg = appmult::Registry::instance();
    const appmult::MultiplierInfo& info = reg.info(kMultiplier);
    report.setup_ms["data.synth_ms"] = time_ms([&] {
        data::SyntheticConfig dc;
        dc.num_classes = kClasses;
        dc.height = dc.width = kInSize;
        dc.train_samples = 128;
        dc.test_samples = kBig * kPoolBatches;
        dc.seed = opt.seed;
        s->data = data::make_synthetic(dc);
    });
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
        grad = std::make_shared<core::GradLut>(core::build_ste_grad(info.bits));
    });
    models::ModelConfig mc;
    mc.num_classes = kClasses;
    mc.in_size = kInSize;
    mc.width_mult = kWidth;
    mc.seed = opt.seed;
    s->model = train::make_model("vgg19", mc);
    approx::MultiplierConfig mult;
    mult.lut = lut;
    mult.grad = grad;
    mult.name = kMultiplier;
    approx::configure_approx_layers(*s->model, mult, approx::ComputeMode::kQuantized);
    s->model->set_training(false);
    report.setup_ms["approx.engine_compile_ms"] = time_ms([&] {
        s->engine = std::make_unique<approx::IntInferenceEngine>(
            *s->model, s->data.train, 128);
    });
    return s;
}

tensor::Tensor images_of(const data::Dataset& d, std::int64_t first, std::int64_t n) {
    tensor::Tensor t(tensor::Shape{n, d.channels, d.height, d.width});
    const std::int64_t numel = d.sample_numel();
    std::memcpy(t.data(), d.images.data() + first * numel,
                static_cast<std::size_t>(n * numel) * sizeof(float));
    return t;
}

bool same_row(const tensor::Tensor& big, std::int64_t row, const tensor::Tensor& one) {
    const std::int64_t k = one.numel();
    return big.numel() >= (row + 1) * k &&
           std::memcmp(big.data() + row * k, one.data(),
                       static_cast<std::size_t>(k) * sizeof(float)) == 0;
}

} // namespace

void run_infer(const Options& opt, Report& report) {
    runtime::set_num_threads(kThreads);
    report.threads = kThreads;

    std::unique_ptr<Fixture> s;
    kernels::Workspace ws;
    std::vector<tensor::Tensor> bigs, ones;
    std::vector<std::int64_t> one_row;
    timed_setup(report, [&] {
        s = set_up(opt, report);
        // Inputs and a warm-up round of each shape: first-call packing and
        // workspace growth belong to set-up.
        for (std::int64_t b = 0; b < kPoolBatches; ++b) {
            bigs.push_back(images_of(s->data.test, b * kBig, kBig));
            for (std::int64_t j = 0; j < kB1PerRound; ++j) {
                // Rows spread over the batch, rotating with the batch index.
                const std::int64_t row = (j * (kBig / kB1PerRound) + b) % kBig;
                ones.push_back(images_of(s->data.test, b * kBig + row, 1));
                one_row.push_back(row);
            }
        }
        tensor::Tensor logits;
        s->engine->forward_into(bigs[0], ws, logits);
        s->engine->forward_into(ones[0], ws, logits);
    });
    if (opt.setup_only) return;

    ThreadClocks threads(true);
    TraceFolder folder;
    if (opt.trace) {
        obs::reset_counters();
        folder.start();
    }
    tensor::Tensor big_logits, one_logits;
    std::vector<double> b1_ms, b64_ms, b1_cpu_ms, b64_cpu_ms;
    std::int64_t mismatches = 0;
    std::uint64_t digest = kFnvBasis;
    const std::int64_t budget_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
    const std::int64_t t_begin = now_ns();
    std::int64_t rounds = 0;
    static const char* kB64Span = "bench.infer.b64";
    static const char* kB1Span = "bench.infer.b1";
    while (rounds < kPoolBatches || now_ns() - t_begin < budget_ns) {
        const std::size_t b = static_cast<std::size_t>(rounds % kPoolBatches);
        {
            threads.mark();
            const std::int64_t c0 = process_cpu_ns();
            const std::int64_t t0 = now_ns();
            {
                const obs::ScopedSpan span(kB64Span);
                s->engine->forward_into(bigs[b], ws, big_logits);
            }
            b64_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
            threads.add();
            b64_cpu_ms.push_back(static_cast<double>(process_cpu_ns() - c0) * 1e-6);
        }
        if (rounds < kPoolBatches)
            digest = fnv1a(big_logits.data(),
                           static_cast<std::size_t>(big_logits.numel()) * sizeof(float),
                           digest);
        for (std::int64_t j = 0; j < kB1PerRound; ++j) {
            const std::size_t idx = b * kB1PerRound + static_cast<std::size_t>(j);
            const std::int64_t c0 = process_cpu_ns();
            const std::int64_t t0 = now_ns();
            {
                const obs::ScopedSpan span(kB1Span);
                s->engine->forward_into(ones[idx], ws, one_logits);
            }
            b1_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
            b1_cpu_ms.push_back(static_cast<double>(process_cpu_ns() - c0) * 1e-6);
            if (!same_row(big_logits, one_row[idx], one_logits)) {
                ++mismatches;
                report.failed += 1;
            }
        }
        report.attempted += 1 + kB1PerRound;
        ++rounds;
        if (opt.trace) folder.harvest();
    }
    const double wall_s = static_cast<double>(now_ns() - t_begin) * 1e-9;
    if (opt.trace) folder.stop();

    report.check("b1_rows_equal_b64_rows", mismatches == 0,
                 std::to_string(mismatches) + " batch-1 rows differ from batch-64");
    report.digest = hex64(digest);
    report.series["infer.b1_ms"] = b1_ms;
    report.series["infer.b64_ms"] = b64_ms;
    report.series["infer.b1_cpu_ms"] = b1_cpu_ms;
    report.series["infer.b64_cpu_ms"] = b64_cpu_ms;
    report.scalars["infer.b64_busiest_ms"] = threads.busiest_ms();
    report.scalars["infer.big_batch"] = kBig;
    if (!opt.trace) return;

    const double root_ms = folder.get(kB64Span, &SpanTotals::total_ms) +
                           folder.get(kB1Span, &SpanTotals::total_ms);
    const double glue_ms = folder.get(kB64Span, &SpanTotals::excl_ms) +
                           folder.get(kB1Span, &SpanTotals::excl_ms);
    fill_shared_layers(folder, static_cast<double>(rounds), wall_s, kThreads, root_ms,
                       glue_ms, report);
}

} // namespace perfbench
