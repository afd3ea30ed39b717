/// \file bench_micro.cpp
/// \brief google-benchmark micro-benchmarks for the hot kernels: LUT-based
///        multiplication GEMM (forward), gradient-LUT GEMM (backward),
///        gradient-table construction, exhaustive netlist simulation, and
///        the float conv used for pretraining. Quantifies the Sec. V-B
///        runtime-overhead observation (ours ~1.4-2.6x STE) at kernel level.
///
/// Besides the google-benchmark suite, three standalone modes:
///   --quick         tiny min-time smoke run (CI crash detection)
///   --tile-sweep    P/O/K tile-size sweep of the tiled AND blocked kernels
///                   plus an old-vs-new LUT-GEMM comparison (pre-refactor
///                   row-streaming kernel vs the tiled src/kernels one).
///                   The blocked leg is swept once per supported SIMD
///                   dispatch level (kernels::simd): CSVs land in results/,
///                   the portable (scalar) winner plus per-ISA refinements
///                   are persisted to results/kernel_tuning.json in the
///                   shape kernels::Tuning::resolve() scans, and each ISA
///                   also gets a standalone results/kernel_tuning_<isa>.json
///                   (usable directly via AMRET_TUNING_FILE; uploaded by the
///                   bench-smoke workflow). Override with AMRET_TILES=PxOxK.
///   --kernels-json  writes results/BENCH_kernels.json: blocked-vs-scalar
///                   LUT-GEMM forward throughput against the PR-3
///                   row-streaming baseline, a "simd" section timing the
///                   vector paths (8-bit gather leg, 4-bit nibble/pshufb
///                   leg) per ISA against the scalar-dispatch blocked
///                   kernel, a quantized-conv end-to-end number and a
///                   per-ISA lut_backward_rows leg against the
///                   lut_backward oracle and a narrow-position leg
///                   (VGG19-slim's last convs at batch 1, P = 1 and 4)
///                   against the scalar block loop and a padded-conv leg
///                   (a 3x3 conv at 2x2 and 1x1, batch 32, through the
///                   engine packer) against the lut_forward oracle — all with
///                   bitwise-equality flags. Run by scripts/check.sh and
///                   the bench-smoke workflow; scripts/check_bench.py
///                   gates the simd_vs_blocked_speedup field against the
///                   committed baseline.
#include "amret.hpp"

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

void fill_codes(std::vector<std::uint16_t>& v, const appmult::AppMultLut& lut,
                util::Rng& rng) {
    for (auto& c : v) c = static_cast<std::uint16_t>(rng.uniform_u64(lut.domain()));
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
    args.p = p;
    args.k = k;
    std::vector<float> y(static_cast<std::size_t>(p * o));
    kernels::Workspace ws;
    for (auto _ : state) {
        ws.reset();
        kernels::lut_forward(args, nullptr, y.data(), ws);
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
    args.p = p;
    args.k = k;
    std::vector<float> gw(static_cast<std::size_t>(o * k));
    std::vector<float> gx(static_cast<std::size_t>(p * k));
    for (auto _ : state) {
        std::fill(gw.begin(), gw.end(), 0.0f);
        std::fill(gx.begin(), gx.end(), 0.0f);
        kernels::lut_backward(args, gyp.data(), grad.dw_table().data(),
                              grad.dx_table().data(), gw.data(), gx.data());
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
    args.p = p;
    args.k = k;
    std::vector<float> y(static_cast<std::size_t>(p * o));
    kernels::Workspace ws;
    for (auto _ : state) {
        ws.reset();
        kernels::lut_forward(args, nullptr, y.data(), ws);
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

// ------------------------------------------------------------ tile sweep --

/// Pre-refactor forward kernel (the row-streaming src/approx/lut_gemm.cpp
/// implementation, reproduced verbatim): no K blocking, no accumulator
/// unrolling, row sums recomputed per call. Kept here as the baseline the
/// tiled kernel is measured against.
void lut_forward_rowstream(const kernels::LutGemmArgs& args, const float* bias,
                           float* y) {
    const std::int64_t o_rows = args.o, p_rows = args.p, depth = args.k;
    const unsigned bits = args.bits;

    std::vector<std::int64_t> sum_w(static_cast<std::size_t>(o_rows), 0);
    runtime::parallel_for(0, o_rows, runtime::grain_for(o_rows, 8),
                          [&](std::int64_t ob, std::int64_t oe) {
        for (std::int64_t i = ob; i < oe; ++i) {
            const std::uint16_t* row = args.wq + i * depth;
            std::int64_t s = 0;
            for (std::int64_t kk = 0; kk < depth; ++kk) s += row[kk];
            sum_w[static_cast<std::size_t>(i)] = s;
        }
    });

    runtime::parallel_for(0, p_rows, runtime::grain_for(p_rows, 4),
                          [&](std::int64_t pb, std::int64_t pe) {
        for (std::int64_t pp = pb; pp < pe; ++pp) {
            const std::uint16_t* xrow = args.xq + pp * depth;
            std::int64_t sum_x = 0;
            for (std::int64_t kk = 0; kk < depth; ++kk) sum_x += xrow[kk];

            float* yrow = y + pp * o_rows;
            for (std::int64_t oo = 0; oo < o_rows; ++oo) {
                const std::uint16_t* wrow = args.wq + oo * depth;
                std::int64_t acc = 0;
                for (std::int64_t kk = 0; kk < depth; ++kk) {
                    acc += args.lut[(static_cast<std::uint32_t>(wrow[kk]) << bits) |
                                    xrow[kk]];
                }
                const std::int32_t zw = args.row_zero_w(oo);
                const float ss = args.row_scale_w(oo) * args.scale_x;
                const std::int64_t kzz =
                    depth * static_cast<std::int64_t>(zw) * args.zero_x;
                const std::int64_t corrected =
                    acc -
                    static_cast<std::int64_t>(args.zero_x) *
                        sum_w[static_cast<std::size_t>(oo)] -
                    static_cast<std::int64_t>(zw) * sum_x + kzz;
                yrow[oo] =
                    ss * static_cast<float>(corrected) + (bias ? bias[oo] : 0.0f);
            }
        }
    });
}

struct SweepGemm {
    appmult::AppMultLut lut = appmult::AppMultLut::exact(8);
    std::vector<std::uint16_t> wq, xq;
    std::vector<float> y;
    kernels::LutGemmArgs args;

    SweepGemm(std::int64_t o, std::int64_t p, std::int64_t k) {
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
        args.p = p;
        args.k = k;
        args.scale_w = 0.01f;
        args.scale_x = 0.02f;
        args.zero_w = 120;
        args.zero_x = 130;
    }
};

template <typename Fn>
double time_ms(int iters, Fn&& fn) {
    fn(); // warm up
    obs::TimedSpan sw("bench.tile_sweep.timed");
    for (int i = 0; i < iters; ++i) fn();
    return sw.millis() / iters;
}

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

/// Dispatch levels to measure: scalar (the PR-8 blocked oracle) first, then
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

std::FILE* open_results_csv(const char* name, const char* header) {
    std::filesystem::create_directories("results");
    const std::string path = std::string("results/") + name;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f) std::fprintf(f, "%s\n", header);
    return f;
}

int run_tile_sweep() {
    const int iters = 10;

    // Old (row-streaming) vs new (tiled) forward over growing shapes, with a
    // bitwise-equality check: both kernels implement the same Eq. (8)
    // epilogue, so their outputs must memcmp equal.
    std::FILE* cmp = open_results_csv(
        "lut_gemm_compare.csv", "o,p,k,old_ms,new_ms,speedup,bitwise_equal");
    if (!cmp) {
        std::fprintf(stderr, "cannot open results/lut_gemm_compare.csv\n");
        return 1;
    }
    struct Shape3 {
        std::int64_t o, p, k;
    };
    const Shape3 shapes[] = {
        {16, 256, 72}, {32, 1024, 288}, {64, 1024, 576}, {128, 2048, 288}};
    bool all_equal = true;
    for (const auto& s : shapes) {
        SweepGemm g(s.o, s.p, s.k);
        std::vector<float> y_old(g.y.size());
        kernels::Workspace ws;
        const double old_ms =
            time_ms(iters, [&] { lut_forward_rowstream(g.args, nullptr, y_old.data()); });
        const double new_ms = time_ms(iters, [&] {
            ws.reset();
            kernels::lut_forward(g.args, nullptr, g.y.data(), ws);
        });
        const bool equal =
            std::memcmp(y_old.data(), g.y.data(), g.y.size() * sizeof(float)) == 0;
        all_equal = all_equal && equal;
        std::fprintf(cmp, "%lld,%lld,%lld,%.4f,%.4f,%.3f,%d\n",
                     static_cast<long long>(s.o), static_cast<long long>(s.p),
                     static_cast<long long>(s.k), old_ms, new_ms, old_ms / new_ms,
                     equal ? 1 : 0);
        std::printf("compare o=%lld p=%lld k=%lld: old %.3f ms, new %.3f ms, "
                    "speedup %.2fx, bitwise_equal=%d\n",
                    static_cast<long long>(s.o), static_cast<long long>(s.p),
                    static_cast<long long>(s.k), old_ms, new_ms, old_ms / new_ms,
                    equal ? 1 : 0);
    }
    std::fclose(cmp);

    // P/O/K block-dimension sweep on one conv-like shape, timing both the
    // tiled row-major kernel and the blocked (panelized) kernel per config.
    // Weight panels are packed outside the timed region — weights are static
    // at deployment — while the blocked forward itself is what the tuner
    // ranks. The blocked leg runs once per supported SIMD dispatch level
    // (the winning tile differs between the scalar walk and the gather
    // kernels); the scalar winner plus per-ISA refinements are persisted to
    // results/kernel_tuning.json for kernels::Tuning::resolve().
    std::FILE* sweep = open_results_csv(
        "kernel_tile_sweep.csv",
        "tp,to,tk,isa,tiled_ms,tiled_gops,blocked_ms,blocked_gops");
    if (!sweep) {
        std::fprintf(stderr, "cannot open results/kernel_tile_sweep.csv\n");
        return 1;
    }
    SweepGemm g(64, 1024, 576);
    std::vector<float> y_ref(g.y.size());
    kernels::Workspace ws;
    kernels::Workspace pack_ws;
    ws.reset();
    kernels::lut_forward(g.args, nullptr, y_ref.data(), ws);
    const double ops = static_cast<double>(g.args.o * g.args.p * g.args.k);
    const std::vector<kernels::simd::Isa> isas = supported_isas();
    struct IsaBest {
        kernels::Tuning t;
        double ms = -1.0;
    };
    IsaBest best[4];
    for (const std::int64_t tp : {4, 8, 16}) {
        for (const std::int64_t to : {8, 16, 32, 64}) {
            for (const std::int64_t tk : {64, 128, 256, 576}) {
                const kernels::TileConfig tile{tp, to, tk};
                const double ms = time_ms(iters, [&] {
                    ws.reset();
                    kernels::lut_forward(g.args, nullptr, g.y.data(), ws, tile);
                });
                if (std::memcmp(y_ref.data(), g.y.data(),
                                g.y.size() * sizeof(float)) != 0) {
                    std::fprintf(stderr, "tile (%lld,%lld,%lld) changed results\n",
                                 static_cast<long long>(tp),
                                 static_cast<long long>(to),
                                 static_cast<long long>(tk));
                    return 1;
                }

                pack_ws.reset();
                kernels::BlockedGemmArgs bargs;
                bargs.bits = g.args.bits;
                bargs.lut = g.args.lut;
                bargs.w = kernels::pack_weight_panels(
                    g.wq.data(), g.args.bits,
                    kernels::make_panel_plan(g.args.o, g.args.k, to, tk),
                    pack_ws);
                bargs.x = kernels::pack_activation_panels(
                    g.xq.data(),
                    kernels::make_panel_plan(g.args.p, g.args.k, tp, tk),
                    pack_ws);
                bargs.o = g.args.o;
                bargs.p = g.args.p;
                bargs.k = g.args.k;
                bargs.scale_w = g.args.scale_w;
                bargs.scale_x = g.args.scale_x;
                bargs.zero_w = g.args.zero_w;
                bargs.zero_x = g.args.zero_x;
                for (const auto isa : isas) {
                    kernels::simd::set_isa_for_test(isa);
                    const double bms = time_ms(iters, [&] {
                        ws.reset();
                        kernels::lut_forward_blocked(bargs, nullptr, g.y.data(),
                                                     ws);
                    });
                    kernels::simd::clear_isa_override();
                    if (std::memcmp(y_ref.data(), g.y.data(),
                                    g.y.size() * sizeof(float)) != 0) {
                        std::fprintf(
                            stderr,
                            "blocked tile (%lld,%lld,%lld) [%s] changed results\n",
                            static_cast<long long>(tp),
                            static_cast<long long>(to),
                            static_cast<long long>(tk),
                            kernels::simd::isa_name(isa));
                        return 1;
                    }
                    IsaBest& b = best[static_cast<int>(isa)];
                    if (b.ms < 0.0 || bms < b.ms) {
                        b.ms = bms;
                        b.t.tp = tp;
                        b.t.to = to;
                        b.t.tk = tk;
                    }
                    std::fprintf(sweep, "%lld,%lld,%lld,%s,%.4f,%.3f,%.4f,%.3f\n",
                                 static_cast<long long>(tp),
                                 static_cast<long long>(to),
                                 static_cast<long long>(tk),
                                 kernels::simd::isa_name(isa), ms,
                                 ops / ms / 1e6, bms, ops / bms / 1e6);
                }
            }
        }
    }
    std::fclose(sweep);
    std::printf("tile sweep written to results/kernel_tile_sweep.csv\n");

    // Persist the winners in the exact shape Tuning::resolve() scans for:
    // top-level tp/to/tk carry the portable scalar pick, the "isa" object
    // carries one refinement block per vector level; resolve() shadows the
    // top-level fields with the block matching kernels::simd::select().
    std::FILE* tuned = std::fopen("results/kernel_tuning.json", "w");
    if (!tuned) {
        std::fprintf(stderr, "cannot open results/kernel_tuning.json\n");
        return 1;
    }
    const IsaBest& sb = best[static_cast<int>(kernels::simd::Isa::kScalar)];
    std::fprintf(tuned,
                 "{\n"
                 "  \"source\": \"bench_micro --tile-sweep\",\n"
                 "  \"shape\": {\"o\": %lld, \"p\": %lld, \"k\": %lld},\n"
                 "  \"blocked_ms\": %.4f,\n"
                 "  \"tp\": %lld,\n"
                 "  \"to\": %lld,\n"
                 "  \"tk\": %lld,\n"
                 "  \"isa\": {\n",
                 static_cast<long long>(g.args.o), static_cast<long long>(g.args.p),
                 static_cast<long long>(g.args.k), sb.ms,
                 static_cast<long long>(sb.t.tp), static_cast<long long>(sb.t.to),
                 static_cast<long long>(sb.t.tk));
    for (std::size_t i = 1; i < isas.size(); ++i) {
        const IsaBest& b = best[static_cast<int>(isas[i])];
        std::fprintf(tuned,
                     "    \"%s\": {\"tp\": %lld, \"to\": %lld, \"tk\": %lld, "
                     "\"blocked_ms\": %.4f}%s\n",
                     kernels::simd::isa_name(isas[i]),
                     static_cast<long long>(b.t.tp),
                     static_cast<long long>(b.t.to),
                     static_cast<long long>(b.t.tk), b.ms,
                     i + 1 < isas.size() ? "," : "");
    }
    std::fprintf(tuned, "  }\n}\n");
    std::fclose(tuned);

    // One standalone file per level, directly loadable via AMRET_TUNING_FILE
    // and uploaded as artifacts by the bench-smoke workflow.
    for (const auto isa : isas) {
        const IsaBest& b = best[static_cast<int>(isa)];
        const std::string path = std::string("results/kernel_tuning_") +
                                 kernels::simd::isa_name(isa) + ".json";
        std::FILE* pf = std::fopen(path.c_str(), "w");
        if (!pf) {
            std::fprintf(stderr, "cannot open %s\n", path.c_str());
            return 1;
        }
        std::fprintf(pf,
                     "{\n"
                     "  \"source\": \"bench_micro --tile-sweep\",\n"
                     "  \"isa\": \"%s\",\n"
                     "  \"blocked_ms\": %.4f,\n"
                     "  \"tp\": %lld,\n"
                     "  \"to\": %lld,\n"
                     "  \"tk\": %lld\n"
                     "}\n",
                     kernels::simd::isa_name(isa), b.ms,
                     static_cast<long long>(b.t.tp),
                     static_cast<long long>(b.t.to),
                     static_cast<long long>(b.t.tk));
        std::fclose(pf);
        std::printf("best blocked tiles [%s] %lldx%lldx%lld (%.4f ms)\n",
                    kernels::simd::isa_name(isa),
                    static_cast<long long>(b.t.tp),
                    static_cast<long long>(b.t.to),
                    static_cast<long long>(b.t.tk), b.ms);
    }
    std::printf("wrote results/kernel_tuning.json (+ per-ISA "
                "results/kernel_tuning_<isa>.json)\n");
    if (!all_equal) {
        std::fprintf(stderr, "old/new LUT-GEMM outputs differ\n");
        return 1;
    }
    return 0;
}

// --------------------------------------------------------- BENCH_kernels --

/// The "lut_backward" leg of BENCH_kernels.json: the row-major backward
/// (lut_backward_rows) on one VGG19-slim-sized conv layer (32x32 channels,
/// 3x3 taps, batch 32 at 8x8: o=32, p=2048, k=288) under the mul8u_rm8
/// difference gradient, timed per supported dispatch level and memcmp'd
/// against the lut_backward oracle. Clears *all_eq on any mismatch.
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
    args.p = p;
    args.k = k;
    args.scale_w = 0.01f;
    args.zero_w = 120;
    args.zero_x = 130;
    std::vector<float> gw_ref(wq.size()), gx_ref(xq.size());
    std::vector<float> gw(wq.size()), gx(xq.size());
    const double oracle_ms = time_ms_best(iters, [&] {
        std::fill(gw_ref.begin(), gw_ref.end(), 0.0f);
        std::fill(gx_ref.begin(), gx_ref.end(), 0.0f);
        kernels::lut_backward(args, gyp.data(), grad.dw_table().data(),
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
            std::fill(gx.begin(), gx.end(), 0.0f);
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
    return j + "\n  }";
}

/// The "narrow_positions" leg of BENCH_kernels.json: VGG19-slim's last-conv
/// GEMMs at batch 1 (o=128, k=1152, p=4 at 2x2 and p=1 at 1x1), whose
/// position blocks are narrower than a vector. Times lut_forward_blocked
/// per supported dispatch level (the output-channel-lane leaf above
/// scalar) and memcmps each against the scalar block loop. Clears *all_eq
/// on any mismatch.
std::string narrow_leg_json(int iters, bool* all_eq) {
    const std::int64_t o = 128, k = 1152;
    const kernels::Tuning& tiles = kernels::Tuning::current();
    std::string j = "  \"narrow_positions\": {\n    \"o\": 128, \"k\": 1152, \"bits\": 8";
    bool eq_all = true;
    char buf[256];
    for (const std::int64_t p : {std::int64_t{1}, std::int64_t{4}}) {
        SweepGemm g(o, p, k);
        kernels::Workspace pack_ws, ws;
        kernels::BlockedGemmArgs b;
        b.bits = g.args.bits;
        b.lut = g.args.lut;
        b.w = kernels::pack_weight_panels(
            g.wq.data(), b.bits, kernels::make_panel_plan(o, k, tiles.to, tiles.tk),
            pack_ws);
        b.x = kernels::pack_activation_panels(
            g.xq.data(), kernels::make_panel_plan(p, k, tiles.tp, tiles.tk), pack_ws);
        b.o = o;
        b.p = p;
        b.k = k;
        b.scale_w = g.args.scale_w;
        b.scale_x = g.args.scale_x;
        b.zero_w = g.args.zero_w;
        b.zero_x = g.args.zero_x;
        std::vector<float> y_ref(g.y.size()), y(g.y.size());
        std::snprintf(buf, sizeof(buf), ",\n    \"p%lld\": {", static_cast<long long>(p));
        j += buf;
        for (const auto isa : supported_isas()) {
            const bool scalar = isa == kernels::simd::Isa::kScalar;
            float* out = scalar ? y_ref.data() : y.data();
            kernels::simd::set_isa_for_test(isa);
            const double ms = time_ms_best(iters, [&] {
                ws.reset();
                kernels::lut_forward_blocked(b, nullptr, out, ws);
            });
            kernels::simd::clear_isa_override();
            const bool eq =
                scalar ||
                std::memcmp(y.data(), y_ref.data(), y.size() * sizeof(float)) == 0;
            eq_all = eq_all && eq;
            const char* name = kernels::simd::isa_name(isa);
            std::snprintf(buf, sizeof(buf), "%s\"%s_ms\": %.4f", scalar ? "" : ", ",
                          name, ms);
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
/// each output against the row-major lut_forward oracle over im2col_u8
/// codes, which still looks up every tap. Clears *all_eq on any mismatch.
std::string padded_leg_json(int iters, bool* all_eq) {
    const std::int64_t batch = 32, ch = 128, kernel = 3;
    const kernels::Tuning& tiles = kernels::Tuning::current();
    SweepGemm g(ch, 1, ch * kernel * kernel);
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

        // Oracle: every tap, padding included, through the row-major kernel.
        kernels::Workspace ws;
        std::vector<std::uint16_t> cols(static_cast<std::size_t>(p * k));
        kernels::im2col_u8(x.data(), geom, zp, cols.data());
        kernels::LutGemmArgs oracle = g.args;
        oracle.xq = cols.data();
        oracle.p = p;
        std::vector<float> y_ref(static_cast<std::size_t>(p * ch)), y(y_ref.size());
        kernels::lut_forward(oracle, nullptr, y_ref.data(), ws);

        const kernels::PanelPlan xplan =
            kernels::make_conv_act_plan(p, k, tiles.tp, tiles.tk);
        kernels::Workspace weight_ws;
        kernels::BlockedGemmArgs b;
        b.bits = g.args.bits;
        b.lut = g.args.lut;
        b.w = kernels::pack_conv_weight_panels(
            g.wq.data(), b.bits, kernels::make_panel_plan(ch, k, tiles.to, tiles.tk),
            kernel * kernel, b.lut, zp, weight_ws);
        b.o = ch;
        b.p = p;
        b.k = k;
        b.scale_w = g.args.scale_w;
        b.scale_x = g.args.scale_x;
        b.zero_w = g.args.zero_w;
        b.zero_x = g.args.zero_x;
        std::snprintf(buf, sizeof(buf), ",\n    \"hw%lld\": {",
                      static_cast<long long>(hw));
        j += buf;
        for (const auto isa : supported_isas()) {
            kernels::simd::set_isa_for_test(isa);
            const double ms = time_ms_best(iters, [&] {
                ws.reset();
                b.x = kernels::pack_im2col_panels_u8(
                    x.data(), geom, kernels::ActivationLayout::kNCHW, zp, xplan,
                    ws, b.bits, 1);
                kernels::lut_forward_blocked(b, nullptr, y.data(), ws);
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

/// Emits results/BENCH_kernels.json: LUT-GEMM forward throughput of the
/// blocked and tiled kernels against the row-streaming baseline, a
/// quantized-conv end-to-end scalar-vs-blocked comparison, the backward
/// leg (backward_leg_json), the narrow-position leg (narrow_leg_json) and
/// the padded-conv leg (padded_leg_json).
/// Every leg carries a bitwise-equality flag; a false flag fails the run (a
/// perf shortfall only prints — machine-dependent numbers should not gate
/// CI).
int run_kernels_json() {
    const int iters = 20;

    SweepGemm g(64, 1024, 576);
    std::vector<float> y_base(g.y.size());
    std::vector<float> y_tiled(g.y.size());
    std::vector<float> y_blocked(g.y.size());
    kernels::Workspace ws;
    const double rowstream_ms = time_ms_best(
        iters, [&] { lut_forward_rowstream(g.args, nullptr, y_base.data()); });
    const double tiled_ms = time_ms_best(iters, [&] {
        ws.reset();
        kernels::lut_forward(g.args, nullptr, y_tiled.data(), ws);
    });

    const kernels::Tuning& tiles = kernels::Tuning::current();
    kernels::Workspace pack_ws;
    kernels::BlockedGemmArgs bargs;
    bargs.bits = g.args.bits;
    bargs.lut = g.args.lut;
    bargs.w = kernels::pack_weight_panels(
        g.wq.data(), g.args.bits,
        kernels::make_panel_plan(g.args.o, g.args.k, tiles.to, tiles.tk),
        pack_ws);
    bargs.x = kernels::pack_activation_panels(
        g.xq.data(), kernels::make_panel_plan(g.args.p, g.args.k, tiles.tp, tiles.tk),
        pack_ws);
    bargs.o = g.args.o;
    bargs.p = g.args.p;
    bargs.k = g.args.k;
    bargs.scale_w = g.args.scale_w;
    bargs.scale_x = g.args.scale_x;
    bargs.zero_w = g.args.zero_w;
    bargs.zero_x = g.args.zero_x;
    // The "blocked" leg is pinned to scalar dispatch so it stays the PR-8
    // blocked kernel — the baseline the SIMD legs below are measured against.
    kernels::simd::set_isa_for_test(kernels::simd::Isa::kScalar);
    const double blocked_ms = time_ms_best(iters, [&] {
        ws.reset();
        kernels::lut_forward_blocked(bargs, nullptr, y_blocked.data(), ws);
    });
    kernels::simd::clear_isa_override();

    const bool tiled_eq =
        std::memcmp(y_base.data(), y_tiled.data(), g.y.size() * sizeof(float)) == 0;
    const bool blocked_eq =
        std::memcmp(y_base.data(), y_blocked.data(), g.y.size() * sizeof(float)) ==
        0;

    // ------------------------------------------------------- SIMD legs ----
    // Two operand regimes hit different vector kernels: 8-bit codes run the
    // gather path, 4-bit codes with nibble-packed activations run the
    // pshufb path. Each leg times every supported dispatch level against
    // the scalar-dispatch blocked kernel on the same packed operands; every
    // vector output must memcmp-equal the scalar one (int64 accumulator).
    const std::vector<kernels::simd::Isa> isas = supported_isas();
    bool simd_all_eq = true;
    double best_overall_speedup = 0.0;
    std::string best_overall = "none";
    std::vector<float> y_leg(g.y.size()), y_leg_ref(g.y.size());
    auto time_leg = [&](const kernels::BlockedGemmArgs& la, float* out,
                        kernels::simd::Isa isa) {
        kernels::simd::set_isa_for_test(isa);
        const double ms = time_ms_best(iters, [&] {
            ws.reset();
            kernels::lut_forward_blocked(la, nullptr, out, ws);
        });
        kernels::simd::clear_isa_override();
        return ms;
    };
    // Emits the per-leg JSON object; \p oracle (when given) additionally
    // checks the scalar-dispatch reference itself, closing the loop back to
    // the row-streaming output.
    auto leg_json = [&](const char* leg, const kernels::BlockedGemmArgs& la,
                        const float* oracle) {
        const std::size_t bytes = g.y.size() * sizeof(float);
        const double scalar_ms = time_leg(la, y_leg_ref.data(),
                                          kernels::simd::Isa::kScalar);
        if (oracle != nullptr)
            simd_all_eq = simd_all_eq &&
                          std::memcmp(oracle, y_leg_ref.data(), bytes) == 0;
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    \"%s\": {\n      \"scalar_ms\": %.4f,\n", leg,
                      scalar_ms);
        std::string j = buf;
        const char* best_isa = "scalar";
        double best_speedup = 0.0;
        for (std::size_t i = 1; i < isas.size(); ++i) {
            const char* name = kernels::simd::isa_name(isas[i]);
            const double ms = time_leg(la, y_leg.data(), isas[i]);
            const bool eq =
                std::memcmp(y_leg_ref.data(), y_leg.data(), bytes) == 0;
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
    kernels::BlockedGemmArgs bargs4;
    bargs4.bits = 4;
    bargs4.lut = lut4.table().data();
    bargs4.w = kernels::pack_weight_panels(
        wq4.data(), 4, kernels::make_panel_plan(g.args.o, g.args.k, tiles.to, tiles.tk),
        pack_ws);
    kernels::ActPanels x4 = kernels::pack_activation_panels(
        xq4.data(), kernels::make_panel_plan(g.args.p, g.args.k, 16, tiles.tk),
        pack_ws);
    kernels::attach_packed4(x4, 4, pack_ws, 1);
    bargs4.x = x4;
    bargs4.o = g.args.o;
    bargs4.p = g.args.p;
    bargs4.k = g.args.k;
    bargs4.scale_w = g.args.scale_w;
    bargs4.scale_x = g.args.scale_x;
    bargs4.zero_w = 7;
    bargs4.zero_x = 9;

    std::string available;
    for (const auto isa : isas) {
        if (!available.empty()) available += ",";
        available += kernels::simd::isa_name(isa);
    }
    std::string simd_json = "  \"simd\": {\n";
    simd_json += std::string("    \"active_default\": \"") +
                 kernels::simd::isa_name(kernels::simd::select()) + "\",\n";
    simd_json += "    \"available_isas\": \"" + available + "\",\n";
    simd_json += leg_json("gather_bits8", bargs, y_base.data()) + ",\n";
    simd_json += leg_json("nibble_bits4", bargs4, nullptr) + ",\n";
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

    // Quantized conv end-to-end under each engine layout mode: same seeds,
    // same forward count, so observer state evolves identically and the two
    // output tensors must memcmp equal (the layer-level bitwise contract).
    double conv_ms[2] = {0.0, 0.0};
    tensor::Tensor conv_y[2];
    for (int m = 0; m < 2; ++m) {
        kernels::set_layout_mode(m == 0 ? kernels::LayoutMode::kScalar
                                        : kernels::LayoutMode::kBlocked);
        util::Rng rng(4);
        approx::ApproxConv2d conv(8, 32, 3, 1, 1, rng);
        conv.set_multiplier(approx::MultiplierConfig::exact_ste(8));
        conv.set_mode(approx::ComputeMode::kQuantized);
        util::Rng xrng(5);
        const tensor::Tensor x =
            tensor::Tensor::randn(tensor::Shape{8, 8, 32, 32}, xrng);
        nn::Context ctx;
        conv_ms[m] = time_ms_best(iters, [&] {
            auto y = conv.forward(x, ctx);
            benchmark::DoNotOptimize(y.data());
        });
        conv_y[m] = conv.forward(x, ctx);
    }
    kernels::clear_layout_mode_override();
    const bool conv_eq =
        conv_y[0].shape() == conv_y[1].shape() &&
        std::memcmp(conv_y[0].data(), conv_y[1].data(),
                    static_cast<std::size_t>(conv_y[0].numel()) * sizeof(float)) ==
            0;

    bool backward_eq = true;
    const std::string backward_json = backward_leg_json(5, &backward_eq);
    bool narrow_eq = true;
    const std::string narrow_json = narrow_leg_json(iters, &narrow_eq);
    bool padded_eq = true;
    const std::string padded_json = padded_leg_json(iters, &padded_eq);

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
        "    \"rowstream_ms\": %.4f,\n"
        "    \"tiled_ms\": %.4f,\n"
        "    \"blocked_ms\": %.4f,\n"
        "    \"tiled_vs_rowstream_speedup\": %.3f,\n"
        "    \"blocked_vs_rowstream_speedup\": %.3f,\n"
        "    \"target_blocked_vs_rowstream\": 1.3,\n"
        "    \"tiled_bitwise_equal\": %s,\n"
        "    \"blocked_bitwise_equal\": %s\n"
        "  },\n"
        "%s,\n"
        "  \"conv_forward_end_to_end\": {\n"
        "    \"batch\": 8, \"in_ch\": 8, \"out_ch\": 32, \"hw\": 32,\n"
        "    \"scalar_ms\": %.4f,\n"
        "    \"blocked_ms\": %.4f,\n"
        "    \"blocked_vs_scalar_speedup\": %.3f,\n"
        "    \"bitwise_equal\": %s\n"
        "  },\n"
        "%s,\n"
        "%s,\n"
        "%s\n"
        "}\n",
        static_cast<long long>(g.args.o), static_cast<long long>(g.args.p),
        static_cast<long long>(g.args.k), g.args.bits,
        static_cast<long long>(tiles.tp), static_cast<long long>(tiles.to),
        static_cast<long long>(tiles.tk), rowstream_ms, tiled_ms, blocked_ms,
        rowstream_ms / tiled_ms, rowstream_ms / blocked_ms,
        tiled_eq ? "true" : "false", blocked_eq ? "true" : "false",
        simd_json.c_str(), conv_ms[0], conv_ms[1], conv_ms[0] / conv_ms[1],
        conv_eq ? "true" : "false", backward_json.c_str(), narrow_json.c_str(),
        padded_json.c_str());
    std::fclose(f);

    std::printf("lut_gemm forward (o=%lld p=%lld k=%lld): rowstream %.3f ms, "
                "tiled %.3f ms (%.2fx), blocked %.3f ms (%.2fx)\n",
                static_cast<long long>(g.args.o), static_cast<long long>(g.args.p),
                static_cast<long long>(g.args.k), rowstream_ms, tiled_ms,
                rowstream_ms / tiled_ms, blocked_ms, rowstream_ms / blocked_ms);
    std::printf("conv end-to-end: scalar %.3f ms, blocked %.3f ms (%.2fx), "
                "bitwise_equal=%d\n",
                conv_ms[0], conv_ms[1], conv_ms[0] / conv_ms[1], conv_eq ? 1 : 0);
    std::printf("simd best: %s at %.2fx vs scalar-dispatch blocked\n",
                best_overall.c_str(), best_overall_speedup);
    std::printf("wrote results/BENCH_kernels.json\n");
    if (!tiled_eq || !blocked_eq || !conv_eq || !simd_all_eq || !backward_eq ||
        !narrow_eq || !padded_eq) {
        std::fprintf(stderr, "BENCH_kernels: bitwise equality violated\n");
        return 1;
    }
    if (rowstream_ms / blocked_ms < 1.3)
        std::fprintf(stderr,
                     "warning: blocked forward %.2fx vs rowstream (target 1.3x)\n",
                     rowstream_ms / blocked_ms);
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
    bool quick = false, tile_sweep = false, kernels_json = false, profile = false;
    std::string trace_path;
    std::vector<char*> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--tile-sweep") == 0) {
            tile_sweep = true;
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
    if (tile_sweep || kernels_json) {
        if (tile_sweep) rc = run_tile_sweep();
        if (rc == 0 && kernels_json) rc = run_kernels_json();
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
