/// \file bench_micro.cpp
/// \brief google-benchmark micro-benchmarks for the hot kernels: LUT-based
///        multiplication GEMM (forward), gradient-LUT GEMM (backward),
///        gradient-table construction, exhaustive netlist simulation, and
///        the float conv used for pretraining. Quantifies the Sec. V-B
///        runtime-overhead observation (ours ~1.4-2.6x STE) at kernel level.
///
/// Besides the google-benchmark suite, two standalone modes:
///   --quick         tiny min-time smoke run (CI crash detection)
///   --kernels-json  writes results/BENCH_kernels.json: the LUT-GEMM
///                   forward at scalar dispatch, a "simd" section timing the
///                   vector paths (8-bit gather leg, 4-bit nibble/pshufb
///                   leg) per ISA against it, a per-ISA lut_backward_rows
///                   leg (with the backward of a padded 3x3 conv at 2x2 and
///                   1x1, batch 32), a narrow-position leg (VGG19-slim's
///                   last convs at batch 1, P = 1 and 4), a padded-conv
///                   leg (the same conv's forward through the engine
///                   packer) and a product-plane leg (64-row blocks of an
///                   8-bit table through the AVX-512 plane leaf and
///                   through its gather leaf).
///                   Every output is memcmp'd against the naive loops of
///                   tests/lut_oracle.hpp and reported as a *bitwise_equal
///                   flag. Run by scripts/check.sh and the bench-smoke
///                   workflow; scripts/check_bench.py gates the
///                   simd_vs_blocked_speedup field against the committed
///                   baseline.
#include "amret.hpp"
#include "lut_oracle.hpp"

#include "kernels/simd/simd.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

namespace {

using namespace amret;
namespace tune = kernels::tune;

void fill_codes(std::vector<std::uint16_t>& v, const appmult::AppMultLut& lut,
                util::Rng& rng) {
    for (auto& c : v) c = static_cast<std::uint16_t>(rng.uniform_u64(lut.domain()));
}

/// The codes of \p a packed with the compiled tiles, as the layers pack
/// them.
kernels::LutGemmArgs pack_compiled(const kernels::LutGemmArgs& a,
                                   kernels::Workspace& ws) {
    return lut_oracle::pack_blocked(a, tune::kTileP, tune::kTileO, tune::kTileK, ws);
}

void BM_LutForwardGemm(benchmark::State& state) {
    const unsigned bits = static_cast<unsigned>(state.range(0));
    const std::int64_t o = 16, p = 256, k = 72;
    const auto lut = appmult::AppMultLut::exact(bits);
    util::Rng rng(1);
    std::vector<std::uint16_t> wq(static_cast<std::size_t>(o * k));
    std::vector<std::uint16_t> xq(static_cast<std::size_t>(p * k));
    fill_codes(wq, lut, rng);
    fill_codes(xq, lut, rng);

    kernels::LutGemmArgs args;
    args.bits = bits;
    args.lut = lut.table().data();
    args.wq = wq.data();
    args.xq = xq.data();
    args.o = o;
    args.geom = kernels::matrix_geom(p, k);
    std::vector<float> y(static_cast<std::size_t>(p * o));
    kernels::Workspace pack_ws;
    const kernels::LutGemmArgs b = pack_compiled(args, pack_ws);
    for (auto _ : state) {
        kernels::lut_forward_blocked(b, nullptr, y.data());
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * o * p * k);
}
BENCHMARK(BM_LutForwardGemm)->Arg(6)->Arg(7)->Arg(8);

void BM_LutBackwardGemm(benchmark::State& state) {
    const unsigned bits = static_cast<unsigned>(state.range(0));
    const std::int64_t o = 16, p = 256, k = 72;
    const auto lut = appmult::AppMultLut::exact(bits);
    const auto grad = core::build_ste_grad(bits);
    util::Rng rng(2);
    std::vector<std::uint16_t> wq(static_cast<std::size_t>(o * k));
    std::vector<std::uint16_t> xq(static_cast<std::size_t>(p * k));
    std::vector<float> gyp(static_cast<std::size_t>(p * o));
    fill_codes(wq, lut, rng);
    fill_codes(xq, lut, rng);
    for (auto& v : gyp) v = static_cast<float>(rng.normal());

    kernels::LutGemmArgs args;
    args.bits = bits;
    args.lut = lut.table().data();
    args.wq = wq.data();
    args.xq = xq.data();
    args.o = o;
    args.geom = kernels::matrix_geom(p, k);
    const std::vector<std::uint8_t> w_ok(static_cast<std::size_t>(o * k), 1);
    const std::vector<std::uint8_t> x_ok(static_cast<std::size_t>(p * k), 1);
    args.w_in_range = w_ok.data();
    args.x_in_range = x_ok.data();
    std::vector<float> gw(static_cast<std::size_t>(o * k));
    std::vector<float> gx(static_cast<std::size_t>(p * k));
    kernels::Workspace ws;
    for (auto _ : state) {
        std::fill(gw.begin(), gw.end(), 0.0f);
        ws.reset();
        kernels::lut_backward_rows(args, gyp.data(), grad.dw_table().data(),
                                   grad.dx_t_table().data(), gw.data(), gx.data(),
                                   ws);
        benchmark::DoNotOptimize(gw.data());
    }
    state.SetItemsProcessed(state.iterations() * o * p * k);
}
BENCHMARK(BM_LutBackwardGemm)->Arg(6)->Arg(7)->Arg(8);

void BM_BuildDifferenceGrad(benchmark::State& state) {
    const unsigned bits = static_cast<unsigned>(state.range(0));
    const auto& lut = appmult::Registry::instance().lut(
        bits == 8 ? "mul8u_rm8" : bits == 7 ? "mul7u_rm6" : "mul6u_rm4");
    for (auto _ : state) {
        auto grad = core::build_difference_grad(lut, 8);
        benchmark::DoNotOptimize(grad.dw_table().data());
    }
}
BENCHMARK(BM_BuildDifferenceGrad)->Arg(6)->Arg(7)->Arg(8);

void BM_BuildSteGrad(benchmark::State& state) {
    const unsigned bits = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        auto grad = core::build_ste_grad(bits);
        benchmark::DoNotOptimize(grad.dw_table().data());
    }
}
BENCHMARK(BM_BuildSteGrad)->Arg(7)->Arg(8);

void BM_ExhaustiveNetlistSim(benchmark::State& state) {
    const unsigned bits = static_cast<unsigned>(state.range(0));
    const auto nl = multgen::build_netlist(multgen::exact_spec(bits));
    for (auto _ : state) {
        auto result = netlist::simulate_exhaustive(nl);
        benchmark::DoNotOptimize(result.outputs.data());
    }
}
BENCHMARK(BM_ExhaustiveNetlistSim)->Arg(6)->Arg(7)->Arg(8);

void BM_FloatConvForward(benchmark::State& state) {
    util::Rng rng(3);
    approx::ApproxConv2d conv(8, 16, 3, 1, 1, rng);
    conv.set_mode(approx::ComputeMode::kFloat);
    const tensor::Tensor x = tensor::Tensor::randn(tensor::Shape{4, 8, 16, 16}, rng);
    nn::Context ctx;
    for (auto _ : state) {
        auto y = conv.forward(x, ctx);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_FloatConvForward);

void BM_QuantConvForward(benchmark::State& state) {
    util::Rng rng(4);
    approx::ApproxConv2d conv(8, 16, 3, 1, 1, rng);
    conv.set_multiplier(approx::MultiplierConfig::exact_ste(8));
    conv.set_mode(approx::ComputeMode::kQuantized);
    const tensor::Tensor x = tensor::Tensor::randn(tensor::Shape{4, 8, 16, 16}, rng);
    nn::Context ctx;
    for (auto _ : state) {
        auto y = conv.forward(x, ctx);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_QuantConvForward);

// ------------------------------------------------- threads-vs-throughput --
// Sweeps the runtime thread count over the two hottest kernels. Sizes are
// larger than the single-thread micro-benchmarks above so the per-job pool
// overhead is amortized and scaling is visible on multi-core machines.

void BM_LutForwardGemmThreads(benchmark::State& state) {
    runtime::set_num_threads(static_cast<unsigned>(state.range(0)));
    const unsigned bits = 8;
    const std::int64_t o = 32, p = 1024, k = 72;
    const auto lut = appmult::AppMultLut::exact(bits);
    util::Rng rng(1);
    std::vector<std::uint16_t> wq(static_cast<std::size_t>(o * k));
    std::vector<std::uint16_t> xq(static_cast<std::size_t>(p * k));
    fill_codes(wq, lut, rng);
    fill_codes(xq, lut, rng);

    kernels::LutGemmArgs args;
    args.bits = bits;
    args.lut = lut.table().data();
    args.wq = wq.data();
    args.xq = xq.data();
    args.o = o;
    args.geom = kernels::matrix_geom(p, k);
    std::vector<float> y(static_cast<std::size_t>(p * o));
    kernels::Workspace pack_ws;
    const kernels::LutGemmArgs b = pack_compiled(args, pack_ws);
    for (auto _ : state) {
        kernels::lut_forward_blocked(b, nullptr, y.data());
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * o * p * k);
    runtime::set_num_threads(1);
}
BENCHMARK(BM_LutForwardGemmThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_QuantConvForwardThreads(benchmark::State& state) {
    runtime::set_num_threads(static_cast<unsigned>(state.range(0)));
    util::Rng rng(4);
    approx::ApproxConv2d conv(8, 32, 3, 1, 1, rng);
    conv.set_multiplier(approx::MultiplierConfig::exact_ste(8));
    conv.set_mode(approx::ComputeMode::kQuantized);
    const tensor::Tensor x = tensor::Tensor::randn(tensor::Shape{8, 8, 32, 32}, rng);
    nn::Context ctx;
    for (auto _ : state) {
        auto y = conv.forward(x, ctx);
        benchmark::DoNotOptimize(y.data());
    }
    runtime::set_num_threads(1);
}
BENCHMARK(BM_QuantConvForwardThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SmoothRow(benchmark::State& state) {
    std::vector<double> row(256);
    for (std::size_t i = 0; i < row.size(); ++i)
        row[i] = static_cast<double>((i * 37) % 97);
    for (auto _ : state) {
        auto s = core::smooth_row(row, static_cast<unsigned>(state.range(0)));
        benchmark::DoNotOptimize(s.data());
    }
}
BENCHMARK(BM_SmoothRow)->Arg(4)->Arg(32);

// --------------------------------------------------------- BENCH_kernels --

/// Random 8-bit codes of an (o, p, k) LUT GEMM under the exact product LUT.
struct BenchGemm {
    appmult::AppMultLut lut = appmult::AppMultLut::exact(8);
    std::vector<std::uint16_t> wq, xq;
    std::vector<float> y;
    kernels::LutGemmArgs args;

    BenchGemm(std::int64_t o, std::int64_t p, std::int64_t k) {
        util::Rng rng(11);
        wq.resize(static_cast<std::size_t>(o * k));
        xq.resize(static_cast<std::size_t>(p * k));
        y.resize(static_cast<std::size_t>(p * o));
        fill_codes(wq, lut, rng);
        fill_codes(xq, lut, rng);
        args.bits = 8;
        args.lut = lut.table().data();
        args.wq = wq.data();
        args.xq = xq.data();
        args.o = o;
        args.geom = kernels::matrix_geom(p, k);
        args.scale_w = 0.01f;
        args.scale_x = 0.02f;
        args.zero_w = 120;
        args.zero_x = 130;
    }
};

/// Best-of-N per-iteration time: the minimum is the least noisy estimator of
/// kernel cost under scheduler/frequency jitter, so the BENCH_kernels.json
/// speedups compare kernels rather than machine weather.
template <typename Fn>
double time_ms_best(int iters, Fn&& fn) {
    fn(); // warm up
    double best = 1e300;
    for (int i = 0; i < iters; ++i) {
        obs::TimedSpan sw("bench.kernels_json.timed");
        fn();
        best = std::min(best, sw.millis());
    }
    return best;
}

/// Dispatch levels to measure: scalar (the scalar block loop) first, then
/// every vector level this build+machine supports. Levels the CPU lacks are
/// simply absent — the JSON consumers treat missing ISAs as "not available
/// here", never as a failure.
std::vector<kernels::simd::Isa> supported_isas() {
    std::vector<kernels::simd::Isa> v{kernels::simd::Isa::kScalar};
    for (const auto isa :
         {kernels::simd::Isa::kSsse3, kernels::simd::Isa::kAvx2,
          kernels::simd::Isa::kAvx512})
        if (kernels::simd::supported(isa)) v.push_back(isa);
    return v;
}

/// The "padded_conv" object of the lut_backward leg: the backward of
/// VGG19-slim's 128 -> 128 3x3 conv (pad 1) at 2x2 and 1x1, batch 32, over
/// im2col rows and a tap-major depth, where grad-X walks only each row's
/// in-image taps (4 or 6 of 9 at 2x2, the centre tap at 1x1) and grad-W
/// looks up only those, adding a per-lane constant for the rest. Times
/// lut_backward_rows per supported dispatch level and memcmps gw against
/// the naive backward, and gx after col2im_tap_major folds both, dropping
/// the padding taps the oracle writes too. Clears *all_eq on any mismatch.
std::string backward_padded_json(int iters, bool* all_eq) {
    const std::int64_t batch = 32, ch = 128, kernel = 3;
    const appmult::AppMultLut& lut = appmult::Registry::instance().lut("mul8u_rm8");
    const core::GradLut grad = core::build_difference_grad(lut, 8);
    std::string j = ",\n    \"padded_conv\": {\n      \"batch\": 32, "
                    "\"in_ch\": 128, \"out_ch\": 128, \"kernel\": 3";
    bool eq_all = true;
    char buf[256];
    for (const std::int64_t hw : {std::int64_t{2}, std::int64_t{1}}) {
        const tensor::ConvGeom geom{batch, ch, hw, hw, kernel, 1, 1};
        const std::int64_t p = geom.positions(), k = geom.patch();
        util::Rng rng(static_cast<std::uint64_t>(41 + hw));
        std::vector<std::uint16_t> wq(static_cast<std::size_t>(ch * k));
        std::vector<std::uint16_t> xq(static_cast<std::size_t>(p * k));
        std::vector<float> gyp(static_cast<std::size_t>(p * ch));
        fill_codes(wq, lut, rng);
        fill_codes(xq, lut, rng);
        for (auto& v : gyp)
            v = rng.uniform_u64(4) == 0 ? 0.0f : static_cast<float>(rng.normal());
        kernels::LutGemmArgs args;
        args.bits = 8;
        args.lut = lut.table().data();
        args.wq = wq.data();
        args.xq = xq.data();
        args.o = ch;
        args.geom = geom;
        args.scale_w = 0.01f;
        args.zero_w = 120;
        args.zero_x = 130;
        lut_oracle::write_pad_codes(geom, args.zero_x, xq.data());
        const std::vector<std::uint8_t> w_ok(wq.size(), 1), x_ok(xq.size(), 1);
        args.w_in_range = w_ok.data();
        args.x_in_range = x_ok.data();
        std::vector<float> gw_ref(wq.size(), 0.0f), gx_ref(xq.size());
        lut_oracle::naive_backward(args, gyp.data(), grad.dw_table().data(),
                                   grad.dx_table().data(), gw_ref.data(),
                                   gx_ref.data());
        const std::size_t image = static_cast<std::size_t>(batch * ch * hw * hw);
        std::vector<float> dx_ref(image, 0.0f), dx(image);
        kernels::col2im_tap_major(gx_ref.data(), geom, dx_ref.data());

        std::vector<float> gw(wq.size()), gx(xq.size());
        kernels::Workspace ws;
        std::snprintf(buf, sizeof(buf), ",\n      \"hw%lld\": {",
                      static_cast<long long>(hw));
        j += buf;
        for (const auto isa : supported_isas()) {
            kernels::simd::set_isa_for_test(isa);
            std::fill(gx.begin(), gx.end(), 0.0f);
            const double ms = time_ms_best(iters, [&] {
                std::fill(gw.begin(), gw.end(), 0.0f);
                ws.reset();
                kernels::lut_backward_rows(args, gyp.data(), grad.dw_table().data(),
                                           grad.dx_t_table().data(), gw.data(),
                                           gx.data(), ws);
            });
            kernels::simd::clear_isa_override();
            std::fill(dx.begin(), dx.end(), 0.0f);
            kernels::col2im_tap_major(gx.data(), geom, dx.data());
            const bool eq =
                std::memcmp(gw.data(), gw_ref.data(), gw.size() * sizeof(float)) ==
                    0 &&
                std::memcmp(dx.data(), dx_ref.data(), dx.size() * sizeof(float)) == 0;
            eq_all = eq_all && eq;
            const char* name = kernels::simd::isa_name(isa);
            std::snprintf(buf, sizeof(buf), "%s\"%s_ms\": %.4f",
                          isa == kernels::simd::Isa::kScalar ? "" : ", ", name, ms);
            j += buf;
            std::printf("lut_backward padded conv %lldx%lld [%s]: %.3f ms, "
                        "bitwise_equal=%d\n",
                        static_cast<long long>(hw), static_cast<long long>(hw), name,
                        ms, eq ? 1 : 0);
        }
        j += "}";
    }
    *all_eq = *all_eq && eq_all;
    return j + ",\n      \"bitwise_equal\": " + (eq_all ? "true" : "false") +
           "\n    }";
}

/// The "lut_backward" leg of BENCH_kernels.json: the row-major backward
/// (lut_backward_rows) on one VGG19-slim-sized conv layer (32x32 channels,
/// 3x3 taps, batch 32 at 8x8: o=32, p=2048, k=288) under the mul8u_rm8
/// difference gradient, timed per supported dispatch level and memcmp'd
/// against the naive backward (tests/lut_oracle.hpp), whose time is
/// oracle_ms; then the padded-conv object (backward_padded_json). Clears
/// *all_eq on any mismatch.
std::string backward_leg_json(int iters, bool* all_eq) {
    const std::int64_t o = 32, p = 2048, k = 288;
    const appmult::AppMultLut& lut = appmult::Registry::instance().lut("mul8u_rm8");
    const core::GradLut grad = core::build_difference_grad(lut, 8);
    util::Rng rng(13);
    std::vector<std::uint16_t> wq(static_cast<std::size_t>(o * k));
    std::vector<std::uint16_t> xq(static_cast<std::size_t>(p * k));
    std::vector<float> gyp(static_cast<std::size_t>(p * o));
    fill_codes(wq, lut, rng);
    fill_codes(xq, lut, rng);
    // About a quarter zeros, as ReLU leaves in a conv's output gradient.
    for (auto& v : gyp)
        v = rng.uniform_u64(4) == 0 ? 0.0f : static_cast<float>(rng.normal());

    kernels::LutGemmArgs args;
    args.bits = 8;
    args.lut = lut.table().data();
    args.wq = wq.data();
    args.xq = xq.data();
    args.o = o;
    args.geom = kernels::matrix_geom(p, k);
    args.scale_w = 0.01f;
    args.zero_w = 120;
    args.zero_x = 130;
    const std::vector<std::uint8_t> w_ok(wq.size(), 1), x_ok(xq.size(), 1);
    args.w_in_range = w_ok.data();
    args.x_in_range = x_ok.data();
    std::vector<float> gw_ref(wq.size()), gx_ref(xq.size());
    std::vector<float> gw(wq.size()), gx(xq.size());
    const double oracle_ms = time_ms_best(iters, [&] {
        std::fill(gw_ref.begin(), gw_ref.end(), 0.0f);
        std::fill(gx_ref.begin(), gx_ref.end(), 0.0f);
        lut_oracle::naive_backward(args, gyp.data(), grad.dw_table().data(),
                                   grad.dx_table().data(), gw_ref.data(),
                                   gx_ref.data());
    });

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"lut_backward\": {\n"
                  "    \"o\": %lld, \"p\": %lld, \"k\": %lld, \"bits\": 8,\n"
                  "    \"oracle_ms\": %.4f",
                  static_cast<long long>(o), static_cast<long long>(p),
                  static_cast<long long>(k), oracle_ms);
    std::string j = buf;
    kernels::Workspace ws;
    for (const auto isa : supported_isas()) {
        kernels::simd::set_isa_for_test(isa);
        const double ms = time_ms_best(iters, [&] {
            std::fill(gw.begin(), gw.end(), 0.0f);
            ws.reset();
            kernels::lut_backward_rows(args, gyp.data(), grad.dw_table().data(),
                                       grad.dx_t_table().data(), gw.data(),
                                       gx.data(), ws);
        });
        kernels::simd::clear_isa_override();
        const bool eq =
            std::memcmp(gw.data(), gw_ref.data(), gw.size() * sizeof(float)) == 0 &&
            std::memcmp(gx.data(), gx_ref.data(), gx.size() * sizeof(float)) == 0;
        *all_eq = *all_eq && eq;
        const char* name = kernels::simd::isa_name(isa);
        std::snprintf(buf, sizeof(buf),
                      ",\n    \"%s_ms\": %.4f,\n    \"%s_bitwise_equal\": %s",
                      name, ms, name, eq ? "true" : "false");
        j += buf;
        std::printf("lut_backward [%s]: %.3f ms (oracle %.3f ms), "
                    "bitwise_equal=%d\n",
                    name, ms, oracle_ms, eq ? 1 : 0);
    }
    return j + backward_padded_json(iters, all_eq) + "\n  }";
}

/// The "narrow_positions" leg of BENCH_kernels.json: VGG19-slim's last-conv
/// GEMMs at batch 1 (o=128, k=1152, p=4 at 2x2 and p=1 at 1x1), whose
/// position blocks are narrower than a vector. Times lut_forward_blocked
/// per supported dispatch level (the output-channel-lane leaf above
/// scalar) and memcmps each against the naive forward. Clears *all_eq on
/// any mismatch.
std::string narrow_leg_json(int iters, bool* all_eq) {
    const std::int64_t o = 128, k = 1152;
    std::string j = "  \"narrow_positions\": {\n    \"o\": 128, \"k\": 1152, \"bits\": 8";
    bool eq_all = true;
    char buf[256];
    for (const std::int64_t p : {std::int64_t{1}, std::int64_t{4}}) {
        BenchGemm g(o, p, k);
        kernels::Workspace pack_ws;
        const kernels::LutGemmArgs b = pack_compiled(g.args, pack_ws);
        std::vector<float> y_ref(g.y.size()), y(g.y.size());
        lut_oracle::naive_forward(g.args, nullptr, y_ref.data());
        std::snprintf(buf, sizeof(buf), ",\n    \"p%lld\": {", static_cast<long long>(p));
        j += buf;
        for (const auto isa : supported_isas()) {
            kernels::simd::set_isa_for_test(isa);
            const double ms = time_ms_best(iters, [&] {
                kernels::lut_forward_blocked(b, nullptr, y.data());
            });
            kernels::simd::clear_isa_override();
            const bool eq =
                std::memcmp(y.data(), y_ref.data(), y.size() * sizeof(float)) == 0;
            eq_all = eq_all && eq;
            const char* name = kernels::simd::isa_name(isa);
            std::snprintf(buf, sizeof(buf), "%s\"%s_ms\": %.4f",
                          isa == kernels::simd::Isa::kScalar ? "" : ", ", name, ms);
            j += buf;
            std::printf("narrow p=%lld [%s]: %.4f ms, bitwise_equal=%d\n",
                        static_cast<long long>(p), name, ms, eq ? 1 : 0);
        }
        j += "}";
    }
    *all_eq = *all_eq && eq_all;
    return j + ",\n    \"narrow_bitwise_equal\": " + (eq_all ? "true" : "false") +
           "\n  }";
}

/// The "padded_conv" leg of BENCH_kernels.json: a 128 -> 128 3x3 conv (pad
/// 1) at 2x2 and 1x1, batch 32, where most taps are padding (5 of 9 and 8
/// of 9). Times the engine's per-call path per supported dispatch level —
/// the fused u8 im2col packer and lut_forward_blocked, which skips the taps
/// outside each block's box, over tap-major weight panels and their padding
/// constant packed once, as the engine does at compile time — and memcmps
/// each output against the naive forward over im2col_u8 codes, which looks
/// up every tap. Clears *all_eq on any mismatch.
std::string padded_leg_json(int iters, bool* all_eq) {
    const std::int64_t batch = 32, ch = 128, kernel = 3;
    BenchGemm g(ch, 1, ch * kernel * kernel);
    const auto zp = static_cast<std::uint16_t>(g.args.zero_x);
    std::string j = "  \"padded_conv\": {\n    \"batch\": 32, \"in_ch\": 128, "
                    "\"out_ch\": 128, \"kernel\": 3, \"bits\": 8";
    bool eq_all = true;
    char buf[256];
    for (const std::int64_t hw : {std::int64_t{2}, std::int64_t{1}}) {
        const tensor::ConvGeom geom{batch, ch, hw, hw, kernel, 1, 1};
        const std::int64_t p = geom.positions(), k = geom.patch();
        util::Rng rng(static_cast<std::uint64_t>(31 + hw));
        std::vector<std::uint8_t> x(static_cast<std::size_t>(batch * ch * hw * hw));
        for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_u64(256));

        // Oracle: every tap, padding included, over the unfused im2col.
        std::vector<std::uint16_t> cols(static_cast<std::size_t>(p * k));
        kernels::im2col_u8(x.data(), geom, zp, cols.data());
        kernels::LutGemmArgs oracle = g.args;
        oracle.xq = cols.data();
        oracle.geom = kernels::matrix_geom(p, k);
        std::vector<float> y_ref(static_cast<std::size_t>(p * ch)), y(y_ref.size());
        lut_oracle::naive_forward(oracle, nullptr, y_ref.data());

        kernels::Workspace ws;
        const kernels::PanelPlan xplan =
            kernels::make_conv_act_plan(p, k, tune::kTileP, tune::kTileK);
        kernels::Workspace weight_ws;
        kernels::LutGemmArgs b = g.args;
        b.lut_planes = g.lut.planes(); // as the engine's ConvOp sets them
        b.geom = geom;
        b.w = kernels::pack_conv_weight_panels(
            g.wq.data(), b.bits,
            kernels::make_panel_plan(ch, k, tune::kTileO, tune::kTileK), geom, b.lut,
            zp, weight_ws);
        std::snprintf(buf, sizeof(buf), ",\n    \"hw%lld\": {",
                      static_cast<long long>(hw));
        j += buf;
        for (const auto isa : supported_isas()) {
            kernels::simd::set_isa_for_test(isa);
            const double ms = time_ms_best(iters, [&] {
                ws.reset();
                b.x = kernels::pack_im2col_panels_u8(x.data(), geom, zp, xplan, ws,
                                                     b.bits, 1);
                kernels::lut_forward_blocked(b, nullptr, y.data());
            });
            kernels::simd::clear_isa_override();
            const bool eq =
                std::memcmp(y.data(), y_ref.data(), y.size() * sizeof(float)) == 0;
            eq_all = eq_all && eq;
            const char* name = kernels::simd::isa_name(isa);
            std::snprintf(buf, sizeof(buf), "%s\"%s_ms\": %.4f",
                          isa == kernels::simd::Isa::kScalar ? "" : ", ", name, ms);
            j += buf;
            std::printf("padded conv %lldx%lld [%s]: %.4f ms, bitwise_equal=%d\n",
                        static_cast<long long>(hw), static_cast<long long>(hw), name,
                        ms, eq ? 1 : 0);
        }
        j += "}";
    }
    *all_eq = *all_eq && eq_all;
    return j + ",\n    \"padded_bitwise_equal\": " + (eq_all ? "true" : "false") +
           "\n  }";
}

/// The "product_planes" leg of BENCH_kernels.json: an 8-bit GEMM (o=64,
/// p=1024, k=576) in 64-row position blocks at the avx512 level, through
/// the plane leaf (the table's planes set) and through the 16-lane gather
/// leaf (planes unset), each memcmp'd against the naive forward;
/// planes_vs_gather_speedup is gather_ms / planes_ms. Reports only
/// "available": false where the level is not supported. Clears *all_eq on
/// any mismatch.
std::string planes_leg_json(int iters, bool* all_eq) {
    const auto avx512 = kernels::simd::Isa::kAvx512;
    if (!kernels::simd::supported(avx512))
        return "  \"product_planes\": {\"available\": false}";
    BenchGemm g(64, 1024, 576);
    std::vector<float> y_ref(g.y.size()), y(g.y.size());
    lut_oracle::naive_forward(g.args, nullptr, y_ref.data());
    kernels::Workspace pack_ws;
    kernels::LutGemmArgs b = pack_compiled(g.args, pack_ws);
    const auto time_with = [&](const kernels::LutPlaneRow* planes, bool* eq) {
        b.lut_planes = planes;
        kernels::simd::set_isa_for_test(avx512);
        const double ms = time_ms_best(iters, [&] {
            kernels::lut_forward_blocked(b, nullptr, y.data());
        });
        kernels::simd::clear_isa_override();
        *eq = std::memcmp(y.data(), y_ref.data(), y.size() * sizeof(float)) == 0;
        return ms;
    };
    bool planes_eq = false, gather_eq = false;
    const double planes_ms = time_with(g.lut.planes(), &planes_eq);
    const double gather_ms = time_with(nullptr, &gather_eq);
    const bool eq = planes_eq && gather_eq;
    *all_eq = *all_eq && eq;
    std::printf("product planes [avx512]: planes %.3f ms, gather %.3f ms "
                "(%.2fx), bitwise_equal=%d\n",
                planes_ms, gather_ms, gather_ms / planes_ms, eq ? 1 : 0);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"product_planes\": {\n"
                  "    \"available\": true, \"o\": 64, \"p\": 1024, \"k\": 576, "
                  "\"bits\": 8, \"block_rows\": %lld,\n"
                  "    \"planes_ms\": %.4f, \"gather_ms\": %.4f,\n"
                  "    \"planes_vs_gather_speedup\": %.3f,\n"
                  "    \"bitwise_equal\": %s\n  }",
                  static_cast<long long>(tune::kTileP), planes_ms, gather_ms,
                  gather_ms / planes_ms, eq ? "true" : "false");
    return buf;
}

/// Emits results/BENCH_kernels.json: the LUT-GEMM forward at scalar
/// dispatch, the SIMD legs, the backward leg (backward_leg_json), the
/// narrow-position leg (narrow_leg_json), the padded-conv leg
/// (padded_leg_json) and the product-plane leg (planes_leg_json). Every leg carries a bitwise-equality flag against the
/// naive oracle; a false flag fails the run (a perf shortfall only prints —
/// machine-dependent numbers should not gate CI).
int run_kernels_json() {
    const int iters = 20;

    BenchGemm g(64, 1024, 576);
    std::vector<float> y_oracle(g.y.size()), y_blocked(g.y.size());
    lut_oracle::naive_forward(g.args, nullptr, y_oracle.data());
    kernels::Workspace pack_ws;
    const kernels::LutGemmArgs bargs = pack_compiled(g.args, pack_ws);
    // The "blocked" leg is pinned to scalar dispatch, so it is the scalar
    // block loop: the baseline the SIMD legs below are measured against.
    kernels::simd::set_isa_for_test(kernels::simd::Isa::kScalar);
    const double blocked_ms = time_ms_best(iters, [&] {
        kernels::lut_forward_blocked(bargs, nullptr, y_blocked.data());
    });
    kernels::simd::clear_isa_override();
    const bool blocked_eq =
        std::memcmp(y_oracle.data(), y_blocked.data(), g.y.size() * sizeof(float)) ==
        0;

    // ------------------------------------------------------- SIMD legs ----
    // Two operand regimes hit different vector kernels: 8-bit codes run the
    // gather path, 4-bit codes with nibble-packed activations run the
    // pshufb path. Each leg times every supported dispatch level against
    // the scalar-dispatch kernel on the same packed operands; every output
    // must memcmp-equal the leg's naive oracle (int64 accumulator).
    const std::vector<kernels::simd::Isa> isas = supported_isas();
    bool simd_all_eq = true;
    double best_overall_speedup = 0.0;
    std::string best_overall = "none";
    std::vector<float> y_leg(g.y.size());
    auto time_leg = [&](const kernels::LutGemmArgs& la, kernels::simd::Isa isa) {
        kernels::simd::set_isa_for_test(isa);
        const double ms = time_ms_best(iters, [&] {
            kernels::lut_forward_blocked(la, nullptr, y_leg.data());
        });
        kernels::simd::clear_isa_override();
        return ms;
    };
    // Emits the per-leg JSON object.
    auto leg_json = [&](const char* leg, const kernels::LutGemmArgs& la,
                        const float* oracle) {
        const std::size_t bytes = g.y.size() * sizeof(float);
        const double scalar_ms = time_leg(la, kernels::simd::Isa::kScalar);
        simd_all_eq = simd_all_eq && std::memcmp(oracle, y_leg.data(), bytes) == 0;
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    \"%s\": {\n      \"scalar_ms\": %.4f,\n", leg,
                      scalar_ms);
        std::string j = buf;
        const char* best_isa = "scalar";
        double best_speedup = 0.0;
        for (std::size_t i = 1; i < isas.size(); ++i) {
            const char* name = kernels::simd::isa_name(isas[i]);
            const double ms = time_leg(la, isas[i]);
            const bool eq = std::memcmp(oracle, y_leg.data(), bytes) == 0;
            simd_all_eq = simd_all_eq && eq;
            const double speedup = scalar_ms / ms;
            if (speedup > best_speedup) {
                best_speedup = speedup;
                best_isa = name;
            }
            std::snprintf(buf, sizeof(buf),
                          "      \"%s_ms\": %.4f,\n"
                          "      \"%s_speedup_vs_scalar\": %.3f,\n"
                          "      \"%s_bitwise_equal\": %s,\n",
                          name, ms, name, speedup, name, eq ? "true" : "false");
            j += buf;
            std::printf("simd %s [%s]: %.3f ms (%.2fx vs scalar blocked), "
                        "bitwise_equal=%d\n",
                        leg, name, ms, speedup, eq ? 1 : 0);
        }
        if (best_speedup > best_overall_speedup) {
            best_overall_speedup = best_speedup;
            best_overall = std::string(leg) + "/" + best_isa;
        }
        std::snprintf(buf, sizeof(buf),
                      "      \"best_isa\": \"%s\",\n"
                      "      \"best_speedup_vs_scalar\": %.3f\n    }",
                      best_isa, best_speedup);
        j += buf;
        return j;
    };

    // 4-bit leg: same GEMM shape, 4-bit exact product LUT, activations
    // nibble-packed at pack time (tr=16 keeps every panel pshufb-eligible).
    const appmult::AppMultLut lut4 = appmult::AppMultLut::exact(4);
    util::Rng rng4(12);
    std::vector<std::uint16_t> wq4(g.wq.size()), xq4(g.xq.size());
    fill_codes(wq4, lut4, rng4);
    fill_codes(xq4, lut4, rng4);
    kernels::LutGemmArgs args4 = g.args;
    args4.bits = 4;
    args4.lut = lut4.table().data();
    args4.wq = wq4.data();
    args4.xq = xq4.data();
    args4.zero_w = 7;
    args4.zero_x = 9;
    kernels::LutGemmArgs bargs4 =
        lut_oracle::pack_blocked(args4, 16, tune::kTileO, tune::kTileK, pack_ws);
    kernels::attach_packed4(bargs4.x, 4, pack_ws, 1);
    std::vector<float> y_oracle4(g.y.size());
    lut_oracle::naive_forward(args4, nullptr, y_oracle4.data());

    std::string available;
    for (const auto isa : isas) {
        if (!available.empty()) available += ",";
        available += kernels::simd::isa_name(isa);
    }
    std::string simd_json = "  \"simd\": {\n";
    simd_json += std::string("    \"active_default\": \"") +
                 kernels::simd::isa_name(kernels::simd::select()) + "\",\n";
    simd_json += "    \"available_isas\": \"" + available + "\",\n";
    simd_json += leg_json("gather_bits8", bargs, y_oracle.data()) + ",\n";
    simd_json += leg_json("nibble_bits4", bargs4, y_oracle4.data()) + ",\n";
    {
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "    \"best_leg\": \"%s\",\n"
                      "    \"simd_vs_blocked_speedup\": %.3f,\n"
                      "    \"target_simd_vs_blocked\": 1.5,\n"
                      "    \"bitwise_equal\": %s\n  }",
                      best_overall.c_str(), best_overall_speedup,
                      simd_all_eq ? "true" : "false");
        simd_json += buf;
    }

    bool backward_eq = true;
    const std::string backward_json = backward_leg_json(5, &backward_eq);
    bool narrow_eq = true;
    const std::string narrow_json = narrow_leg_json(iters, &narrow_eq);
    bool padded_eq = true;
    const std::string padded_json = padded_leg_json(iters, &padded_eq);
    bool planes_eq = true;
    const std::string planes_json = planes_leg_json(iters, &planes_eq);

    std::filesystem::create_directories("results");
    std::FILE* f = std::fopen("results/BENCH_kernels.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot open results/BENCH_kernels.json\n");
        return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"lut_gemm_forward\": {\n"
        "    \"o\": %lld, \"p\": %lld, \"k\": %lld, \"bits\": %u,\n"
        "    \"tiles\": {\"rows_p\": %lld, \"rows_o\": %lld, \"depth\": %lld},\n"
        "    \"blocked_ms\": %.4f,\n"
        "    \"blocked_bitwise_equal\": %s\n"
        "  },\n"
        "%s,\n"
        "%s,\n"
        "%s,\n"
        "%s,\n"
        "%s\n"
        "}\n",
        static_cast<long long>(g.args.o), static_cast<long long>(g.args.p()),
        static_cast<long long>(g.args.k()), g.args.bits,
        static_cast<long long>(tune::kTileP), static_cast<long long>(tune::kTileO),
        static_cast<long long>(tune::kTileK), blocked_ms,
        blocked_eq ? "true" : "false", simd_json.c_str(), backward_json.c_str(),
        narrow_json.c_str(), padded_json.c_str(), planes_json.c_str());
    std::fclose(f);

    std::printf("lut_gemm forward (o=%lld p=%lld k=%lld): blocked %.3f ms, "
                "bitwise_equal=%d\n",
                static_cast<long long>(g.args.o), static_cast<long long>(g.args.p()),
                static_cast<long long>(g.args.k()), blocked_ms, blocked_eq ? 1 : 0);
    std::printf("simd best: %s at %.2fx vs scalar-dispatch blocked\n",
                best_overall.c_str(), best_overall_speedup);
    std::printf("wrote results/BENCH_kernels.json\n");
    if (!blocked_eq || !simd_all_eq || !backward_eq || !narrow_eq || !padded_eq ||
        !planes_eq) {
        std::fprintf(stderr, "BENCH_kernels: bitwise equality violated\n");
        return 1;
    }
    if (isas.size() > 1 && best_overall_speedup < 1.5)
        std::fprintf(stderr,
                     "warning: simd best %.2fx vs scalar blocked (target 1.5x)\n",
                     best_overall_speedup);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    // Flags are parsed by hand (not util::ArgParser) because unknown flags
    // must pass through to google-benchmark untouched.
    bool quick = false, kernels_json = false, profile = false;
    std::string trace_path;
    std::vector<char*> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--kernels-json") == 0) {
            kernels_json = true;
        } else if (std::strcmp(argv[i], "--profile") == 0) {
            profile = true;
        } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    if (profile || !trace_path.empty()) obs::trace_start();

    int rc = 0;
    if (kernels_json) {
        rc = run_kernels_json();
    } else {
        // Smoke mode: one tiny-budget pass over every benchmark, failing only
        // on crashes — scripts/check.sh and CI run this as a smoke stage.
        std::string min_time = "--benchmark_min_time=0.01";
        if (quick) passthrough.push_back(min_time.data());

        int pargc = static_cast<int>(passthrough.size());
        benchmark::Initialize(&pargc, passthrough.data());
        if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
            rc = 1;
        } else {
            benchmark::RunSpecifiedBenchmarks();
            benchmark::Shutdown();
        }
    }

    if (obs::trace_enabled()) {
        obs::trace_stop();
        if (profile) std::fputs(obs::profile_table().c_str(), stdout);
        if (!trace_path.empty()) {
            if (obs::write_chrome_trace(trace_path)) {
                std::printf("wrote %s (load in ui.perfetto.dev)\n",
                            trace_path.c_str());
            } else {
                std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
                rc = 1;
            }
        }
    }
    if (profile) {
        const std::string counters = obs::counters_table();
        if (!counters.empty()) std::fputs(counters.c_str(), stdout);
    }
    return rc;
}
