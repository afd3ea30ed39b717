// Tests for the src/kernels LUT-kernel layer: the Workspace arena, the bias
// gradient and chunk-grain rules, workspace-backed quantization, and golden
// FNV-1a hashes pinning the layer outputs to the pre-refactor
// implementations on fixed seeds. The golden hashes are
// regenerated by tools/golden_dump; the determinism contract makes them
// AMRET_THREADS-independent, so the same table covers the threads1/threads8
// re-runs registered in CMakeLists.txt.
#include "amret.hpp"
#include "kernels/simd/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace {

using namespace amret;
using kernels::Workspace;
using tensor::Shape;
using tensor::Tensor;

// ------------------------------------------------------------- workspace --

TEST(Workspace, AllocationsAreAlignedAndDisjoint) {
    Workspace ws;
    float* a = ws.alloc<float>(13);
    std::int64_t* b = ws.alloc<std::int64_t>(7);
    std::uint16_t* c = ws.alloc<std::uint16_t>(31);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 8, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 8, 0u);
    for (int i = 0; i < 13; ++i) a[i] = 1.5f;
    for (int i = 0; i < 7; ++i) b[i] = -2;
    for (int i = 0; i < 31; ++i) c[i] = 9;
    for (int i = 0; i < 13; ++i) EXPECT_EQ(a[i], 1.5f);
    for (int i = 0; i < 7; ++i) EXPECT_EQ(b[i], -2);
    for (int i = 0; i < 31; ++i) EXPECT_EQ(c[i], 9);
    EXPECT_GE(ws.used(), 13 * sizeof(float) + 7 * sizeof(std::int64_t) +
                             31 * sizeof(std::uint16_t));
}

TEST(Workspace, GrowthKeepsEarlierAllocationsValid) {
    Workspace ws;
    float* small = ws.alloc<float>(16);
    for (int i = 0; i < 16; ++i) small[i] = static_cast<float>(i);
    // Force growth past the initial slab: several large allocations.
    for (int round = 0; round < 4; ++round) {
        float* big = ws.alloc<float>(1 << 16);
        big[0] = 1.0f; // touch it
    }
    EXPECT_GT(ws.slab_count(), 1u);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(small[i], static_cast<float>(i));
}

TEST(Workspace, ResetCoalescesToOneSlabAtHighWater) {
    Workspace ws;
    for (int round = 0; round < 4; ++round) ws.alloc<float>(1 << 16);
    const std::size_t high_water = ws.used();
    ws.reset();
    EXPECT_EQ(ws.used(), 0u);
    EXPECT_EQ(ws.slab_count(), 1u);
    EXPECT_GE(ws.capacity(), high_water);
    // Steady state: the same demand now fits without growing.
    for (int round = 0; round < 4; ++round) ws.alloc<float>(1 << 16);
    EXPECT_EQ(ws.slab_count(), 1u);
}

TEST(Workspace, TrimReleasesCapacityToLowWater) {
    Workspace ws;
    // A burst: grow the arena well past 1 MiB.
    for (int round = 0; round < 8; ++round) ws.alloc<float>(1 << 16);
    ws.reset();
    ASSERT_GT(ws.capacity(), std::size_t{1} << 20);
    // Shed back to a 64 KiB low-water slab.
    ws.trim(std::size_t{1} << 16);
    EXPECT_EQ(ws.capacity(), std::size_t{1} << 16);
    EXPECT_EQ(ws.used(), 0u);
    EXPECT_LE(ws.slab_count(), 1u);
    // The arena still works and regrows on the next burst.
    float* a = ws.alloc<float>(1 << 14);
    a[0] = 3.0f;
    float* big = ws.alloc<float>(1 << 18);
    big[0] = 4.0f;
    EXPECT_EQ(a[0], 3.0f);
    // Trimming below the minimum is allowed: capacity drops to zero and the
    // next alloc simply chains a fresh slab.
    ws.trim(0);
    EXPECT_EQ(ws.capacity(), 0u);
    float* c = ws.alloc<float>(8);
    c[0] = 5.0f;
    EXPECT_EQ(c[0], 5.0f);
    // trim() with capacity already below the bound behaves like reset().
    const std::size_t cap = ws.capacity();
    ws.trim(cap + 1024);
    EXPECT_EQ(ws.capacity(), cap);
}

// ------------------------------------------------------------- bias grad --

TEST(LutKernels, BiasGradMatchesColumnSums) {
    util::Rng rng(45);
    const std::int64_t p = 100, o = 7;
    std::vector<float> gyp(static_cast<std::size_t>(p * o));
    for (auto& v : gyp) v = static_cast<float>(rng.normal());
    std::vector<float> gb(static_cast<std::size_t>(o), 0.5f);
    kernels::accumulate_bias_grad(gyp.data(), p, o, gb.data());
    for (std::int64_t oo = 0; oo < o; ++oo) {
        double ref = 0.5;
        for (std::int64_t pp = 0; pp < p; ++pp) ref += gyp[pp * o + oo];
        EXPECT_NEAR(gb[static_cast<std::size_t>(oo)], ref, 1e-4) << oo;
    }
}

// ---------------------------------------------------------- chunk grain --

TEST(ChunkGrain, IsAPureFunctionOfTheShape) {
    const std::int64_t counts[] = {1, 7, 16, 1024, 100000};
    const std::int64_t works[] = {1, 27, 6912, 36864, 147456, 2359296};
    std::vector<std::int64_t> first;
    for (const unsigned threads : {1u, 8u}) {
        runtime::set_num_threads(threads);
        std::vector<std::int64_t> got;
        for (const std::int64_t count : counts)
            for (const std::int64_t work : works)
                for (const std::int64_t align : {1, 4})
                    got.push_back(kernels::chunk_grain(count, work, align));
        if (first.empty())
            first = got;
        else
            EXPECT_EQ(got, first);
    }
    runtime::set_num_threads(0);
}

TEST(ChunkGrain, GivesOneChunkBelowTheMinimumWork) {
    const std::int64_t min_work = kernels::tune::kMinChunkWork;
    for (const std::int64_t work : {std::int64_t{1}, std::int64_t{27}, std::int64_t{6912},
                                    min_work / 3, min_work - 1}) {
        const std::int64_t count = (min_work - 1) / work; // count * work < minimum
        for (const std::int64_t align : {1, 4}) {
            const std::int64_t g = kernels::chunk_grain(count, work, align);
            EXPECT_EQ(runtime::chunk_count(0, count, g), 1)
                << "count=" << count << " work=" << work;
        }
    }
}

TEST(ChunkGrain, BoundsChunksAndTheirWork) {
    const std::int64_t min_work = kernels::tune::kMinChunkWork;
    for (std::int64_t count = 1; count <= 5000; count = count * 3 + 1) {
        for (const std::int64_t work : {std::int64_t{1}, std::int64_t{100}, std::int64_t{36864},
                                        min_work / 2 + 1, min_work, 4 * min_work}) {
            for (const std::int64_t align : {1, 4}) {
                const std::int64_t g = kernels::chunk_grain(count, work, align);
                const std::int64_t chunks = runtime::chunk_count(0, count, g);
                EXPECT_EQ(g % align, 0);
                EXPECT_LE(chunks, runtime::kMaxChunks);
                // Every chunk but the last holds the minimum work's worth
                // of whole items, rounded down, so more than half of it.
                if (chunks > 1) {
                    EXPECT_GE(g, std::max<std::int64_t>(1, min_work / work))
                        << count << " " << work;
                    EXPECT_GT(2 * g * work, min_work) << count << " " << work;
                }
            }
        }
    }
}

// -------------------------------------------------------------- quantize --

TEST(KernelQuantize, QuantizeIntoMatchesQuantParams) {
    util::Rng rng(46);
    const std::int64_t n = 3000;
    std::vector<float> src(static_cast<std::size_t>(n));
    for (auto& v : src) v = 3.0f * static_cast<float>(rng.normal());
    const auto params = quant::choose_params(-2.0f, 2.0f, 8);
    Workspace ws;
    const auto view = kernels::quantize_into(src.data(), n, params, ws);
    ASSERT_EQ(view.size, n);
    for (std::int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(view.codes[i],
                  static_cast<std::uint16_t>(params.quantize(src[static_cast<std::size_t>(i)])))
            << i;
        EXPECT_EQ(view.in_range[i] != 0, params.in_range(src[static_cast<std::size_t>(i)]))
            << i;
    }
}

TEST(KernelQuantize, InlineQuantizeMatchesQuantParamsOnTiesAndInfinities) {
    // quantize_into rounds inline; codes and masks must equal the
    // out-of-line QuantParams calls at exact ties (q = k + 0.5), at the
    // mask's edges, for infinities, huge and tiny magnitudes, and for random
    // bit patterns of every finite exponent.
    quant::QuantParams params;
    params.scale = 0.5f;
    params.zero_point = 3.0f;
    params.bits = 4;
    std::vector<float> src;
    for (int k = -40; k <= 40; ++k) src.push_back(0.25f * static_cast<float>(k));
    for (const float v : {std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(), 1e30f, -1e30f,
                          3.4e38f, -3.4e38f, 1e-40f, -1e-40f, 0.0f, -0.0f,
                          2097152.25f, 4194304.5f, 8388607.5f, -8388607.5f})
        src.push_back(v);
    util::Rng rng(48);
    while (src.size() < 20000) {
        const auto bits =
            static_cast<std::uint32_t>(rng.uniform_u64(std::uint64_t{1} << 32));
        float v;
        std::memcpy(&v, &bits, sizeof v);
        if (!std::isnan(v)) src.push_back(v);
    }
    for (const quant::QuantParams& p : {params, quant::choose_params(-2.0f, 2.0f, 8)}) {
        Workspace ws;
        const auto n = static_cast<std::int64_t>(src.size());
        const auto view = kernels::quantize_into(src.data(), n, p, ws);
        for (std::int64_t i = 0; i < n; ++i) {
            const float v = src[static_cast<std::size_t>(i)];
            ASSERT_EQ(view.codes[i], static_cast<std::uint16_t>(p.quantize(v))) << v;
            ASSERT_EQ(view.in_range[i] != 0, p.in_range(v)) << v;
        }
    }
}

TEST(KernelQuantize, MinMaxReturnsTheFirstExtremes) {
    // Zeros of alternating sign from \p start on, ones before it, over
    // several chunks: the parallel pass must return the elements
    // std::min_element and std::max_element find, sign of zero included.
    const std::int64_t n = 5000;
    for (const float lead : {0.0f, -0.0f})
        for (const std::int64_t start : {std::int64_t{0}, std::int64_t{1500},
                                         std::int64_t{4000}}) {
            std::vector<float> v(static_cast<std::size_t>(n));
            for (std::int64_t i = 0; i < n; ++i)
                v[static_cast<std::size_t>(i)] =
                    i < start ? 1.0f : (i - start) % 2 == 0 ? lead : -lead;
            Workspace ws;
            const auto [lo, hi] = kernels::min_max(v.data(), n, ws);
            const float want_lo = *std::min_element(v.begin(), v.end());
            const float want_hi = *std::max_element(v.begin(), v.end());
            EXPECT_EQ(std::memcmp(&lo, &want_lo, sizeof lo), 0) << start;
            EXPECT_EQ(std::memcmp(&hi, &want_hi, sizeof hi), 0) << start;
        }
}

TEST(KernelQuantize, PerChannelMatchesRowWiseReference) {
    util::Rng rng(47);
    const std::int64_t o = 5, patch = 27;
    std::vector<float> w(static_cast<std::size_t>(o * patch));
    for (std::int64_t i = 0; i < o * patch; ++i)
        w[static_cast<std::size_t>(i)] =
            (0.1f + 0.5f * static_cast<float>(i / patch)) *
            static_cast<float>(rng.normal());
    Workspace ws;
    float* scales = ws.alloc<float>(o);
    std::int32_t* zeros = ws.alloc<std::int32_t>(o);
    const auto view =
        kernels::quantize_weights_per_channel(w.data(), o, patch, 8, scales, zeros, ws);
    for (std::int64_t oo = 0; oo < o; ++oo) {
        float lo = w[static_cast<std::size_t>(oo * patch)], hi = lo;
        for (std::int64_t kk = 1; kk < patch; ++kk) {
            lo = std::min(lo, w[static_cast<std::size_t>(oo * patch + kk)]);
            hi = std::max(hi, w[static_cast<std::size_t>(oo * patch + kk)]);
        }
        const auto params = quant::choose_params(lo, hi, 8);
        EXPECT_EQ(scales[oo], params.scale);
        EXPECT_EQ(zeros[oo], static_cast<std::int32_t>(params.zero_point));
        for (std::int64_t kk = 0; kk < patch; ++kk)
            EXPECT_EQ(view.codes[oo * patch + kk],
                      static_cast<std::uint16_t>(
                          params.quantize(w[static_cast<std::size_t>(oo * patch + kk)])));
    }
}

// ---------------------------------------------------------------- im2col --

TEST(KernelIm2col, U8VariantPadsWithZeroPoint) {
    tensor::ConvGeom geom{1, 1, 2, 2, 3, 1, 1};
    const std::uint8_t x[4] = {10, 20, 30, 40};
    std::vector<std::uint16_t> cols(
        static_cast<std::size_t>(geom.positions() * geom.patch()));
    kernels::im2col_u8(x, geom, /*zero_point=*/77, cols.data());
    // Top-left position: kernel row 0 is fully out of image -> zero point.
    EXPECT_EQ(cols[0], 77);
    EXPECT_EQ(cols[4], 10); // center tap = x[0,0]
    // Float variant on the same geometry must agree up to padding value 0.
    const float xf[4] = {10.0f, 20.0f, 30.0f, 40.0f};
    std::vector<float> colsf(cols.size());
    kernels::im2col(xf, geom, colsf.data());
    for (std::size_t i = 0; i < cols.size(); ++i) {
        if (colsf[i] == 0.0f)
            EXPECT_EQ(cols[i], 77) << i;
        else
            EXPECT_EQ(static_cast<float>(cols[i]), colsf[i]) << i;
    }
}

// ---------------------------------------------------------------- golden --

std::uint64_t fnv1a(const float* data, std::int64_t n) {
    std::uint64_t h = 1469598103934665603ull;
    const auto* bytes = reinterpret_cast<const unsigned char*>(data);
    for (std::int64_t i = 0; i < n * 4; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t hash_tensor(const Tensor& t) { return fnv1a(t.data(), t.numel()); }

/// Expected hashes captured from the pre-refactor implementation (commit
/// before src/kernels) via tools/golden_dump; identical for
/// AMRET_THREADS = 1/2/8 by the determinism contract, and at every SIMD
/// dispatch level (each Golden test sweeps them in-process).
const std::map<std::string, std::uint64_t> kGolden = {
    {"conv_pt.y", 0xc3ff8ef7bec164b5ull},  {"conv_pt.gx", 0x632ddb3519006a36ull},
    {"conv_pt.gw", 0x95f657ba9cf0145cull}, {"conv_pt.gb", 0x4ee8121ce08ca3ccull},
    {"conv_pc.y", 0x3661cb15562a70fcull},  {"conv_pc.gx", 0xaa9bb139951a103dull},
    {"conv_pc.gw", 0x6bf46eeec665fae0ull}, {"conv_pc.gb", 0x4ee8121ce08ca3ccull},
    {"fconv.y", 0x1ca01d2526761f1dull},    {"fconv.gx", 0xddaa3e772efcff8dull},
    {"fconv.gw", 0x1b20ad01a090ad01ull},   {"fconv.gb", 0x70550f396e5ccb72ull},
    {"linear.y", 0x123b63279fbe4f17ull},   {"linear.gx", 0xd73fc648ee56ede7ull},
    {"linear.gw", 0x9796595ef83b9b62ull},  {"linear.gb", 0x23ea4931f9dad1c4ull},
    {"dw.y", 0x707604a8ac83de31ull},       {"dw.gx", 0xc5fad535ba213a4full},
    {"dw.gw", 0x0fca9cc38e4cc37aull},      {"dw.gb", 0xca3b58ca66de7646ull},
    {"engine.logits", 0x98eb88179f3aef67ull},
    // Two-step entries (gradients with exact zeros and -0.0, accumulated
    // across both steps), captured from the im2col depthwise and the
    // per-tap-quantizing conv packer they now pin the replacements to.
    {"dw_s2.y", 0x716bbf37da3e5286ull},    {"dw_s2.gx", 0x3a98dbbc8358ed07ull},
    {"dw_s2.gw", 0xc850fbdcbc7cc8a9ull},   {"dw_s2.gb", 0xf2dc8cc604ef1d16ull},
    {"fdw.y", 0x87bb23d6f4e8906dull},      {"fdw.gx", 0xe3c61c602babe486ull},
    {"fdw.gw", 0x4aea248fce769d30ull},     {"fdw.gb", 0x0c26985569b06db1ull},
    {"fdw_s2.y", 0xdab8b713a7a6ab6cull},   {"fdw_s2.gx", 0xa1951d88e9768810ull},
    {"fdw_s2.gw", 0x1aa7e10133b56e3bull},  {"fdw_s2.gb", 0xdef674873fc82b6aull},
    {"conv_s2.y", 0x280b7f1ee84b16adull},  {"conv_s2.gx", 0xeb137868aba669ebull},
    {"conv_s2.gw", 0xe8f868ff85c3890bull}, {"conv_s2.gb", 0xf23f63d5b9ea1314ull},
    // Float GEMM shapes with row and column tails and a two-layer engine
    // head, captured from the naive dot-product loops the float GEMM
    // replaced.
    {"flinear.y", 0x1061bdc2fa446471ull},     {"flinear.gx", 0x92880c7c8397c7fbull},
    {"flinear.gw", 0xf2e169494ae8fa9cull},    {"flinear.gb", 0x60258df5864ca7e1ull},
    {"fconv_wide.y", 0x71be94b5064a4e1cull},  {"fconv_wide.gx", 0x6966478d0864c420ull},
    {"fconv_wide.gw", 0x4c21ede8ba105706ull}, {"fconv_wide.gb", 0x94166c6c7a1c66adull},
    {"engine_head.logits", 0xd03ec856d684bd99ull},
    // A VGG19 engine whose last convs form position blocks narrower than 8
    // rows, captured before those blocks ran on vector leaves.
    {"engine_vgg.b1.logits", 0x6925430c5b8210a5ull},
    {"engine_vgg.b3.logits", 0x9931417cbc947512ull},
    // Padded convs and an engine batch whose 16-row position blocks hold one
    // output location (or the tail of one and the head of the next), a 5x5
    // kernel and the nibble leaf, captured before the forward skipped the
    // taps that are padding for a whole block.
    {"conv_k5.y", 0x83837afc82d6b938ull},     {"conv_k5.gx", 0xadc125f331e28878ull},
    {"conv_k5.gw", 0x09672bb41f89f597ull},    {"conv_k5.gb", 0xba6586d8f1dac98dull},
    {"conv_k5_pc.y", 0x4777a2744be676a9ull},  {"conv_k5_pc.gx", 0xc38e1fc9ffdee123ull},
    {"conv_k5_pc.gw", 0xb2712c96aedf7aecull}, {"conv_k5_pc.gb", 0x63054a0e273ebe54ull},
    {"conv_nib.y", 0xc0c0e3398a1cec85ull},    {"conv_nib.gx", 0x983a5813cb9964c8ull},
    {"conv_nib.gw", 0x8e09c3d67442bb75ull},   {"conv_nib.gb", 0xa62122369ffd36c6ull},
    {"engine_vgg.b20.logits", 0x06769ec49360b470ull},
    // An unpadded and a per-channel stride-2 conv and a LeNet engine,
    // captured while the scalar, blocked and blocked-NHWC layouts still
    // existed; all three gave these bits.
    {"conv_p0.y", 0x3d18d5db108ff27eull},     {"conv_p0.gx", 0x662c6669d35cc644ull},
    {"conv_p0.gw", 0xc0651992c1ea707dull},    {"conv_p0.gb", 0xf8910b9a87af8318ull},
    {"conv_s2_pc.y", 0x5f607c9f23956e51ull},  {"conv_s2_pc.gx", 0x4400e6a6f00bf8aaull},
    {"conv_s2_pc.gw", 0xe372c2cec9319309ull}, {"conv_s2_pc.gb", 0x21dbeb6e99405ee4ull},
    {"engine_lenet.logits", 0xe8207265f40b7d61ull},
    // 20-channel 3x3 convs on 3x3 and 1x1 maps, whose rows' in-image taps
    // span several vector steps, captured while grad-X still summed every
    // tap, padding included.
    {"conv_c20.y", 0xa090066f6b47fd91ull},     {"conv_c20.gx", 0x47a284fc5f688108ull},
    {"conv_c20.gw", 0x6c62a49086eb9310ull},    {"conv_c20.gb", 0xa7e7b9a2209c5bf4ull},
    {"conv_c20_1x1.y", 0x722818be7c8a9892ull}, {"conv_c20_1x1.gx", 0x00992ae80a76b7beull},
    {"conv_c20_1x1.gw", 0x3bc5271890b8223aull}, {"conv_c20_1x1.gb", 0x56bd14e3ada61eefull},
    // 1x1 convs on spatial maps, a per-channel pointwise conv and a stride-2
    // downsample, captured while the backward still copied their weight
    // codes into a tap-major order that is the identity for them.
    {"conv_pw_pc.y", 0xb63e19b779988debull},  {"conv_pw_pc.gx", 0xf58b4246f5337fbbull},
    {"conv_pw_pc.gw", 0x913947e5d69c8edeull}, {"conv_pw_pc.gb", 0xb1099216d10bf716ull},
    {"conv_1x1_s2.y", 0x36466136e768e2c7ull},  {"conv_1x1_s2.gx", 0x8d3372ff4207cd40ull},
    {"conv_1x1_s2.gw", 0xf462ec6c5dcdf849ull}, {"conv_1x1_s2.gb", 0x98add1c258be5345ull},
    // Quantized linears with a 16-row block and a 3-row tail, and on the
    // nibble leaf, captured while ApproxLinear ran its own quantized step.
    {"qlinear.y", 0xed3f7b3c2beac58full},      {"qlinear.gx", 0x691ae4fa132aa71bull},
    {"qlinear.gw", 0x38680db2fed1478aull},     {"qlinear.gb", 0x61e4533d478ccac4ull},
    {"qlinear_nib.y", 0xcca918835c583c97ull},  {"qlinear_nib.gx", 0xf197755ad89e308full},
    {"qlinear_nib.gw", 0x83be8f9cd466b4e9ull}, {"qlinear_nib.gb", 0x844475bea469fafaull},
    // An engine with a 2x2 average pool and a global average pool, captured
    // while the engine still ran them as their own op types.
    {"engine_avg.logits", 0xc00ac3935b52ec6eull},
    // Padded 3x3 convs on VGG19-slim's deepest maps: 32 channels at batch 32
    // on 2x2 and 1x1 under the difference gradient and STE, and 24 channels,
    // whose lane groups straddle taps. Captured while grad-W still looked up
    // every padding tap and the backward zero-filled, folded and masked in
    // separate passes.
    {"conv_c32_2x2.y", 0x4fd94f418a12e700ull},      {"conv_c32_2x2.gx", 0x8d1133e7ce8eea66ull},
    {"conv_c32_2x2.gw", 0x6939dd41a8a356a5ull},     {"conv_c32_2x2.gb", 0x00f082615eea2d38ull},
    {"conv_c32_1x1.y", 0x39b7f13f7da4959bull},      {"conv_c32_1x1.gx", 0x013d9561a5115bdaull},
    {"conv_c32_1x1.gw", 0x21f176c86c368ae7ull},     {"conv_c32_1x1.gb", 0x1793fdc55f6329bcull},
    {"conv_c32_2x2_ste.y", 0x8c0b4844d0def115ull},  {"conv_c32_2x2_ste.gx", 0x3b2a8e3742e0a66aull},
    {"conv_c32_2x2_ste.gw", 0xf5903e747b086a66ull}, {"conv_c32_2x2_ste.gb", 0x00f082615eea2d38ull},
    {"conv_c32_1x1_ste.y", 0x5837b195906b78d9ull},  {"conv_c32_1x1_ste.gx", 0x2cd48f78e54fc3c1ull},
    {"conv_c32_1x1_ste.gw", 0x2b33dfdc0f3fe295ull}, {"conv_c32_1x1_ste.gb", 0x1793fdc55f6329bcull},
    {"conv_c24.y", 0x6215d17358b6c5bfull},          {"conv_c24.gx", 0xf0b687fc80c14c21ull},
    {"conv_c24.gw", 0x38024f49fbf937dfull},         {"conv_c24.gb", 0x2a5f941546b71f5bull},
    {"conv_c24_ste_pc.y", 0x358410404017b2adull},   {"conv_c24_ste_pc.gx", 0xcd8c6c3ffd63fef9ull},
    {"conv_c24_ste_pc.gw", 0xe882830768082dabull},  {"conv_c24_ste_pc.gb", 0xb6ddd6a35119703eull},
    // Padded convs on 64-row position blocks (one location per block at
    // batch 64, a two-location tap box over two depth blocks, an 11-row
    // tail) and on a 7-bit and a 6-bit multiplier, and a VGG engine at
    // batch 64, captured while the forward gathered every product with
    // 16-row blocks.
    {"conv_b64.y", 0x5812e2e820a7487eull},   {"conv_b64.gx", 0xfd4b474d110e89aeull},
    {"conv_b64.gw", 0xd1d65d26530a1c5dull},  {"conv_b64.gb", 0xcfe2cc99e4d69acaull},
    {"conv_c128.y", 0x0555b05f2cc9618aull},  {"conv_c128.gx", 0x6d4d86ae5e33b7d6ull},
    {"conv_c128.gw", 0x70b301df7d4a0fbaull}, {"conv_c128.gb", 0xddd8eea0311ab2a1ull},
    {"conv_p75.y", 0x8751cd27c8c51c15ull},   {"conv_p75.gx", 0xa27ee54d5c5292dcull},
    {"conv_p75.gw", 0x53e3288f0f71802dull},  {"conv_p75.gb", 0x9ba855b211cecadaull},
    {"conv_7bit.y", 0xe21bc95635e8b0eeull},  {"conv_7bit.gx", 0x5e00900f2cb96ae1ull},
    {"conv_7bit.gw", 0xb56fb6f37dae757aull}, {"conv_7bit.gb", 0xd2ce480427275927ull},
    {"conv_6bit.y", 0x36a6c98403bc4ba7ull},  {"conv_6bit.gx", 0x6dd29adb78fa558full},
    {"conv_6bit.gw", 0x589b9f8c94434f4dull}, {"conv_6bit.gb", 0x0da4d2c07af870cdull},
    {"engine_vgg.b64.logits", 0x05acdddd1556b7bcull},
};

void expect_golden(const std::string& key, std::uint64_t h) {
    const auto it = kGolden.find(key);
    ASSERT_NE(it, kGolden.end()) << key;
    EXPECT_EQ(h, it->second) << key << " (regenerate with tools/golden_dump "
                                       "only for deliberate numerical changes)";
}

/// Runs \p body once at every SIMD dispatch level this build and machine
/// can run, in-process, so each golden hash pins every forward and backward
/// leaf. The body builds its own layers, so no state carries between
/// levels.
template <class Body>
void at_every_isa(Body&& body) {
    using kernels::simd::Isa;
    for (const Isa isa : {Isa::kScalar, Isa::kSsse3, Isa::kAvx2, Isa::kAvx512}) {
        if (!kernels::simd::supported(isa)) continue;
        SCOPED_TRACE(kernels::simd::isa_name(isa));
        kernels::simd::set_isa_for_test(isa);
        body();
        kernels::simd::clear_isa_override();
    }
}

approx::MultiplierConfig golden_config(const std::string& name) {
    auto& reg = appmult::Registry::instance();
    approx::MultiplierConfig config;
    config.lut = std::make_shared<appmult::AppMultLut>(reg.lut(name));
    config.grad = std::make_shared<core::GradLut>(
        core::build_difference_grad(reg.lut(name), 8));
    return config;
}

void golden_conv(const char* tag, const std::string& mult, bool per_channel) {
    at_every_isa([&] {
        nn::Context ctx;
        util::Rng wrng(101);
        approx::ApproxConv2d conv(3, 8, 3, 1, 1, wrng);
        conv.set_multiplier(golden_config(mult));
        conv.set_mode(approx::ComputeMode::kQuantized);
        conv.set_per_channel_weights(per_channel);
        util::Rng xrng(202);
        const Tensor x = Tensor::randn(Shape{2, 3, 8, 8}, xrng);
        const Tensor y = conv.forward(x, ctx);
        util::Rng grng(303);
        const Tensor gy = Tensor::randn(y.shape(), grng);
        const Tensor gx = conv.backward(gy, ctx);
        expect_golden(std::string(tag) + ".y", hash_tensor(y));
        expect_golden(std::string(tag) + ".gx", hash_tensor(gx));
        expect_golden(std::string(tag) + ".gw", hash_tensor(conv.weight.grad));
        expect_golden(std::string(tag) + ".gb", hash_tensor(conv.bias.grad));
    });
}

TEST(Golden, QuantizedConvPerTensor) { golden_conv("conv_pt", "mul8u_rm8", false); }

TEST(Golden, QuantizedConvPerChannel) { golden_conv("conv_pc", "mul7u_rm6", true); }

TEST(Golden, FloatConv) {
    at_every_isa([] {
        util::Rng wrng(111);
        nn::Context ctx;
        approx::ApproxConv2d conv(3, 8, 3, 2, 1, wrng);
        conv.set_mode(approx::ComputeMode::kFloat);
        util::Rng xrng(212);
        const Tensor x = Tensor::randn(Shape{2, 3, 9, 9}, xrng);
        const Tensor y = conv.forward(x, ctx);
        util::Rng grng(313);
        const Tensor gy = Tensor::randn(y.shape(), grng);
        const Tensor gx = conv.backward(gy, ctx);
        expect_golden("fconv.y", hash_tensor(y));
        expect_golden("fconv.gx", hash_tensor(gx));
        expect_golden("fconv.gw", hash_tensor(conv.weight.grad));
        expect_golden("fconv.gb", hash_tensor(conv.bias.grad));
    });
}

TEST(Golden, QuantizedLinear) {
    at_every_isa([] {
        util::Rng wrng(404);
        nn::Context ctx;
        approx::ApproxLinear linear(24, 10, wrng);
        linear.set_multiplier(golden_config("mul8u_2NDH"));
        linear.set_mode(approx::ComputeMode::kQuantized);
        util::Rng xrng(505);
        const Tensor x = Tensor::randn(Shape{5, 24}, xrng);
        const Tensor y = linear.forward(x, ctx);
        util::Rng grng(606);
        const Tensor gy = Tensor::randn(y.shape(), grng);
        const Tensor gx = linear.backward(gy, ctx);
        expect_golden("linear.y", hash_tensor(y));
        expect_golden("linear.gx", hash_tensor(gx));
        expect_golden("linear.gw", hash_tensor(linear.weight.grad));
        expect_golden("linear.gb", hash_tensor(linear.bias.grad));
    });
}

TEST(Golden, QuantizedDepthwise) {
    at_every_isa([] {
        util::Rng wrng(707);
        nn::Context ctx;
        approx::DepthwiseConv2d dw(6, 3, 1, 1, wrng);
        dw.set_multiplier(golden_config("mul6u_rm4"));
        dw.set_mode(approx::ComputeMode::kQuantized);
        util::Rng xrng(808);
        const Tensor x = Tensor::randn(Shape{2, 6, 8, 8}, xrng);
        const Tensor y = dw.forward(x, ctx);
        util::Rng grng(909);
        const Tensor gy = Tensor::randn(y.shape(), grng);
        const Tensor gx = dw.backward(gy, ctx);
        expect_golden("dw.y", hash_tensor(y));
        expect_golden("dw.gx", hash_tensor(gx));
        expect_golden("dw.gw", hash_tensor(dw.weight.grad));
        expect_golden("dw.gb", hash_tensor(dw.bias.grad));
    });
}

/// Upstream gradient with exact zeros mixed into randn: every third element
/// is +0.0f and every fifth (of the rest) -0.0f, so a kernel that skips or
/// re-signs g == 0 terms changes bits.
Tensor zero_mixed_grad(const Shape& shape, util::Rng& rng) {
    Tensor g = Tensor::randn(shape, rng);
    for (std::int64_t i = 0; i < g.numel(); ++i) {
        if (i % 3 == 0)
            g[i] = 0.0f;
        else if (i % 5 == 0)
            g[i] = -0.0f;
    }
    return g;
}

/// Two forward/backward steps through one context on fresh inputs (the
/// same recipe as tools/golden_dump), at every dispatch level: the second
/// step's weight and bias gradients accumulate into the first's, and the
/// activation observer moves between the steps. \p make_layer builds a
/// fresh layer per level.
template <class MakeLayer>
void golden_two_steps(const std::string& tag, MakeLayer&& make_layer,
                      const Shape& xshape, std::uint64_t seed) {
    at_every_isa([&] {
        auto layer = make_layer();
        nn::Context ctx;
        util::Rng rng(seed);
        Tensor y, gx;
        for (int step = 0; step < 2; ++step) {
            const Tensor x = Tensor::randn(xshape, rng);
            y = layer->forward(x, ctx);
            gx = layer->backward(zero_mixed_grad(y.shape(), rng), ctx);
        }
        expect_golden(tag + ".y", hash_tensor(y));
        expect_golden(tag + ".gx", hash_tensor(gx));
        expect_golden(tag + ".gw", hash_tensor(layer->weight.grad));
        expect_golden(tag + ".gb", hash_tensor(layer->bias.grad));
    });
}

/// A quantized ApproxConv2d(in, out, kernel, stride, pad) seeded by
/// \p seed, for golden_two_steps.
auto quant_conv(std::int64_t in, std::int64_t out, std::int64_t kernel,
                std::int64_t stride, std::int64_t pad, std::uint64_t seed,
                approx::MultiplierConfig config, bool per_channel = false) {
    return [=] {
        util::Rng wrng(seed);
        auto conv = std::make_unique<approx::ApproxConv2d>(in, out, kernel,
                                                           stride, pad, wrng);
        conv->set_multiplier(config);
        conv->set_mode(approx::ComputeMode::kQuantized);
        conv->set_per_channel_weights(per_channel);
        return conv;
    };
}

TEST(Golden, QuantizedDepthwiseStrideTwo) {
    golden_two_steps("dw_s2", [] {
        util::Rng wrng(717);
        auto dw = std::make_unique<approx::DepthwiseConv2d>(6, 3, 2, 1, wrng);
        dw->set_multiplier(golden_config("mul8u_rm8"));
        dw->set_mode(approx::ComputeMode::kQuantized);
        return dw;
    }, Shape{2, 6, 9, 7}, 818);
}

TEST(Golden, FloatDepthwise) {
    golden_two_steps("fdw", [] {
        util::Rng wrng(727);
        return std::make_unique<approx::DepthwiseConv2d>(5, 3, 1, 1, wrng);
    }, Shape{2, 5, 9, 7}, 828);
}

TEST(Golden, FloatDepthwiseStrideTwo) {
    golden_two_steps("fdw_s2", [] {
        util::Rng wrng(737);
        return std::make_unique<approx::DepthwiseConv2d>(5, 3, 2, 1, wrng);
    }, Shape{2, 5, 9, 7}, 838);
}

TEST(Golden, QuantizedConvStrideTwo) {
    golden_two_steps("conv_s2",
                     quant_conv(3, 8, 3, 2, 1, 747, golden_config("mul8u_rm8")),
                     Shape{2, 3, 9, 7}, 848);
}

TEST(Golden, QuantizedConvKernel5PaddedBlocks) {
    // Batch 17: 16-row blocks hold the tail of one output location and the
    // head of the next.
    golden_two_steps("conv_k5",
                     quant_conv(6, 10, 5, 1, 2, 777, golden_config("mul8u_rm8")),
                     Shape{17, 6, 7, 9}, 878);
}

TEST(Golden, QuantizedConvKernel5PerChannelPaddedBlocks) {
    // Batch 16: every 16-row block holds exactly one output location.
    golden_two_steps("conv_k5_pc",
                     quant_conv(6, 10, 5, 1, 2, 787, golden_config("mul8u_rm8"),
                                /*per_channel=*/true),
                     Shape{16, 6, 7, 9}, 888);
}

TEST(Golden, QuantizedConvUnpadded) {
    // No padding: every block's tap box is the full kernel.
    golden_two_steps("conv_p0",
                     quant_conv(3, 5, 3, 2, 0, 807, golden_config("mul8u_rm8")),
                     Shape{2, 3, 7, 9}, 908);
}

TEST(Golden, QuantizedConvStrideTwoPerChannel) {
    golden_two_steps("conv_s2_pc",
                     quant_conv(3, 5, 3, 2, 1, 807, golden_config("mul8u_rm8"),
                                /*per_channel=*/true),
                     Shape{2, 3, 7, 9}, 908);
}

TEST(Golden, QuantizedConvNibblePaddedBlocks) {
    // 4-bit exact products fit a byte: the nibble (pshufb) leaf runs.
    golden_two_steps("conv_nib",
                     quant_conv(5, 12, 3, 1, 1, 797,
                                approx::MultiplierConfig::exact_ste(4)),
                     Shape{16, 5, 6, 6}, 898);
}

TEST(Golden, QuantizedConvDeepChannelsSmallMap) {
    // 3x3 map: rows see 2x2, 2x3, 3x2 and 3x3 boxes of in-image taps, runs
    // of 40, 120 and 180 depth indices that take the 16-lane body, the
    // 8-lane step and the scalar tail.
    golden_two_steps("conv_c20",
                     quant_conv(20, 12, 3, 1, 1, 817, golden_config("mul8u_rm8")),
                     Shape{3, 20, 3, 3}, 918);
}

TEST(Golden, QuantizedConvDeepChannelsOneByOnePerChannel) {
    // 1x1 map: only the centre tap is in the image, one 20-index run per row.
    golden_two_steps("conv_c20_1x1",
                     quant_conv(20, 12, 3, 1, 1, 817, golden_config("mul8u_rm8"),
                                /*per_channel=*/true),
                     Shape{5, 20, 1, 1}, 928);
}

TEST(Golden, QuantizedPointwiseConvPerChannel) {
    // MobileNet's pointwise shape: a 1x1 stride-1 conv on a 5x6 map.
    golden_two_steps("conv_pw_pc",
                     quant_conv(12, 20, 1, 1, 0, 827, golden_config("mul8u_rm8"),
                                /*per_channel=*/true),
                     Shape{3, 12, 5, 6}, 938);
}

TEST(Golden, QuantizedOneByOneConvStrideTwo) {
    // ResNet's downsample shape: a 1x1 stride-2 conv on a 7x9 map.
    golden_two_steps("conv_1x1_s2",
                     quant_conv(6, 10, 1, 2, 0, 837, golden_config("mul8u_rm8")),
                     Shape{2, 6, 7, 9}, 948);
}

TEST(Golden, QuantizedConvVggDeepMapsDifferenceGradient) {
    // 32 channels: every 16-lane group of the grad-W walk sits inside one
    // tap, so at 2x2 and 1x1 whole groups read only the pad code.
    const auto config = golden_config("mul8u_rm8");
    golden_two_steps("conv_c32_2x2", quant_conv(32, 16, 3, 1, 1, 847, config),
                     Shape{32, 32, 2, 2}, 958);
    golden_two_steps("conv_c32_1x1", quant_conv(32, 16, 3, 1, 1, 847, config),
                     Shape{32, 32, 1, 1}, 968);
}

TEST(Golden, QuantizedConvVggDeepMapsSte) {
    // Under STE a padding tap's grad-W term is a signed zero.
    const auto config = approx::MultiplierConfig::exact_ste(8);
    golden_two_steps("conv_c32_2x2_ste", quant_conv(32, 16, 3, 1, 1, 847, config),
                     Shape{32, 32, 2, 2}, 958);
    golden_two_steps("conv_c32_1x1_ste", quant_conv(32, 16, 3, 1, 1, 847, config),
                     Shape{32, 32, 1, 1}, 968);
}

TEST(Golden, QuantizedConvLaneGroupsStraddleTaps) {
    // 24 channels: lane groups of 16 and 8 cover parts of two taps.
    golden_two_steps("conv_c24",
                     quant_conv(24, 10, 3, 1, 1, 857, golden_config("mul8u_rm8")),
                     Shape{4, 24, 4, 4}, 978);
    golden_two_steps("conv_c24_ste_pc",
                     quant_conv(24, 10, 3, 1, 1, 857,
                                approx::MultiplierConfig::exact_ste(8),
                                /*per_channel=*/true),
                     Shape{3, 24, 3, 3}, 988);
}

TEST(Golden, QuantizedConvBatch64OneLocationPerBlock) {
    // 16x16 at batch 64: each 64-row position block holds one location.
    golden_two_steps("conv_b64",
                     quant_conv(4, 12, 3, 1, 1, 1017, golden_config("mul8u_rm8")),
                     Shape{64, 4, 16, 16}, 1018);
}

TEST(Golden, QuantizedConvTwoDepthBlocksUnionTapBox) {
    // 128 channels: K = 1152 spans two 1024-deep blocks; at batch 32 on 2x2
    // each 64-row block spans two locations and walks their union box.
    golden_two_steps("conv_c128",
                     quant_conv(128, 16, 3, 1, 1, 1027, golden_config("mul8u_rm8")),
                     Shape{32, 128, 2, 2}, 1028);
}

TEST(Golden, QuantizedConvRaggedTailBlock) {
    // 75 rows: one 64-row block and an 11-row tail.
    golden_two_steps("conv_p75",
                     quant_conv(6, 10, 3, 1, 1, 1037, golden_config("mul8u_rm8")),
                     Shape{3, 6, 5, 5}, 1038);
}

TEST(Golden, QuantizedConvSevenAndSixBitMultipliers) {
    // 288 rows: four 64-row blocks and a 32-row tail.
    golden_two_steps("conv_7bit",
                     quant_conv(5, 12, 3, 1, 1, 1047, golden_config("mul7u_rm6")),
                     Shape{8, 5, 6, 6}, 1048);
    golden_two_steps("conv_6bit",
                     quant_conv(5, 12, 3, 1, 1, 1057, golden_config("mul6u_rm4")),
                     Shape{8, 5, 6, 6}, 1058);
}

/// A quantized ApproxLinear(37, 21) on \p config, for golden_two_steps.
auto quant_linear(approx::MultiplierConfig config) {
    return [config] {
        util::Rng wrng(937);
        auto linear = std::make_unique<approx::ApproxLinear>(37, 21, wrng);
        linear->set_multiplier(config);
        linear->set_mode(approx::ComputeMode::kQuantized);
        return linear;
    };
}

TEST(Golden, QuantizedLinearBlockAndTail) {
    // Batch 19: one full 16-row position block and a 3-row tail.
    golden_two_steps("qlinear", quant_linear(golden_config("mul8u_rm8")),
                     Shape{19, 37}, 938);
}

TEST(Golden, QuantizedLinearNibble) {
    // 4-bit exact products fit a byte: the nibble (pshufb) leaf runs.
    golden_two_steps("qlinear_nib",
                     quant_linear(approx::MultiplierConfig::exact_ste(4)),
                     Shape{32, 37}, 948);
}

TEST(Golden, FloatLinear) {
    golden_two_steps("flinear", [] {
        util::Rng wrng(757);
        return std::make_unique<nn::Linear>(37, 20, wrng);
    }, Shape{7, 37}, 858);
}

TEST(Golden, FloatConvWide) {
    golden_two_steps("fconv_wide", [] {
        util::Rng wrng(767);
        auto conv = std::make_unique<approx::ApproxConv2d>(5, 20, 3, 1, 1, wrng);
        conv->set_mode(approx::ComputeMode::kFloat);
        return conv;
    }, Shape{3, 5, 9, 7}, 868);
}

TEST(Golden, IntInferenceEngine) {
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 8;
    dc.train_samples = 64;
    dc.test_samples = 16;
    dc.noise_stddev = 0.3f;
    dc.seed = 77;
    const auto pair = data::make_synthetic(dc);

    at_every_isa([&] {
        util::Rng rng(1010);
        nn::Sequential model;
        auto* conv = model.emplace<approx::ApproxConv2d>(3, 4, 3, 1, 1, rng);
        model.emplace<nn::ReLU>();
        model.emplace<nn::MaxPool2d>(2);
        model.emplace<nn::Flatten>();
        model.emplace<nn::Linear>(4 * 4 * 4, 4, rng);
        conv->set_multiplier(golden_config("mul8u_17C8"));
        model.set_training(false);

        approx::IntInferenceEngine engine(model, pair.train, 48);
        util::Rng xrng(1111);
        const Tensor images = Tensor::randn(Shape{3, 3, 8, 8}, xrng);
        const Tensor logits = engine.forward(images);
        expect_golden("engine.logits", hash_tensor(logits));
    });
}

TEST(Golden, IntInferenceEngineTwoLayerHead) {
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 8;
    dc.train_samples = 40;
    dc.test_samples = 8;
    dc.noise_stddev = 0.3f;
    dc.seed = 78;
    const auto pair = data::make_synthetic(dc);

    at_every_isa([&] {
        util::Rng rng(1212);
        nn::Sequential model;
        auto* conv = model.emplace<approx::ApproxConv2d>(3, 20, 3, 1, 1, rng);
        model.emplace<nn::ReLU>();
        model.emplace<nn::MaxPool2d>(2);
        model.emplace<approx::ApproxConv2d>(20, 6, 3, 1, 1, rng);
        model.emplace<nn::Flatten>();
        model.emplace<nn::Linear>(6 * 4 * 4, 24, rng);
        model.emplace<nn::ReLU>();
        model.emplace<nn::Linear>(24, 4, rng);
        conv->set_multiplier(golden_config("mul8u_17C8"));
        model.set_training(false);

        // 40 calibration samples: the loader yields batches of 32 and 8.
        approx::IntInferenceEngine engine(model, pair.train, 40);
        util::Rng xrng(1313);
        const Tensor images = Tensor::randn(Shape{5, 3, 8, 8}, xrng);
        const Tensor logits = engine.forward(images);
        expect_golden("engine_head.logits", hash_tensor(logits));
    });
}

TEST(Golden, IntInferenceEngineVggNarrowBlocks) {
    // VGG19 at width 1/8 on 16x16 inputs: the last eight convs run at 2x2
    // and 1x1, so a batch of 1 (P = 4, 1) and of 3 (P = 12, 3) form position
    // blocks narrower than 8 rows, a batch of 20 puts one location (or the
    // tail of one and the head of the next) in each 16-row block, and a
    // batch of 64 one location in each 64-row block. The exact multiplier
    // keeps the untrained network's logits apart.
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 16;
    dc.train_samples = 32;
    dc.test_samples = 8;
    dc.noise_stddev = 0.3f;
    dc.seed = 79;
    const auto pair = data::make_synthetic(dc);

    at_every_isa([&] {
        models::ModelConfig mc;
        mc.num_classes = 4;
        mc.in_size = 16;
        mc.width_mult = 0.125f;
        mc.seed = 1414;
        const auto model = models::make_vgg("vgg19", mc);
        approx::configure_approx_layers(*model, golden_config("mul8u_acc"),
                                        approx::ComputeMode::kQuantized);
        model->set_training(false);

        approx::IntInferenceEngine engine(*model, pair.train, 32);
        util::Rng xrng(1515);
        const Tensor images = Tensor::randn(Shape{3, 3, 16, 16}, xrng);
        Tensor first(Shape{1, 3, 16, 16});
        std::copy_n(images.data(), first.numel(), first.data());
        const Tensor one = engine.forward(first);
        const Tensor three = engine.forward(images);
        expect_golden("engine_vgg.b1.logits", hash_tensor(one));
        expect_golden("engine_vgg.b3.logits", hash_tensor(three));
        EXPECT_EQ(std::memcmp(one.data(), three.data(),
                              static_cast<std::size_t>(one.numel()) * sizeof(float)),
                  0);
        const Tensor twenty = Tensor::randn(Shape{20, 3, 16, 16}, xrng);
        expect_golden("engine_vgg.b20.logits", hash_tensor(engine.forward(twenty)));
        const Tensor sixty_four = Tensor::randn(Shape{64, 3, 16, 16}, xrng);
        expect_golden("engine_vgg.b64.logits", hash_tensor(engine.forward(sixty_four)));
    });
}

TEST(Golden, IntInferenceEngineLenet) {
    // LeNet at width 1/2 on 8x8 inputs: two 5x5 convs and two pools, on one
    // batch of 16.
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 8;
    dc.train_samples = 64;
    dc.test_samples = 32;
    dc.seed = 99;
    const auto pair = data::make_synthetic(dc);
    data::DataLoader loader(pair.test, 16, /*shuffle=*/false, 0);
    loader.start_epoch();
    data::Batch batch;
    ASSERT_TRUE(loader.next(batch));

    at_every_isa([&] {
        models::ModelConfig mc;
        mc.in_size = 8;
        mc.num_classes = 4;
        mc.width_mult = 0.5f;
        const auto model = models::make_lenet(mc);
        approx::configure_approx_layers(*model, golden_config("mul8u_acc"),
                                        approx::ComputeMode::kQuantized);
        model->set_training(false);

        approx::IntInferenceEngine engine(*model, pair.train, 48);
        expect_golden("engine_lenet.logits", hash_tensor(engine.forward(batch.images)));
    });
}

TEST(Golden, IntInferenceEngineAveragePools) {
    // The engine's average and global average pools, which no stock VGG or
    // LeNet engine runs: a 2x2 average pool between the convs and a global
    // average pool before the head, on one batch of 5.
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 12;
    dc.train_samples = 40;
    dc.test_samples = 8;
    dc.seed = 21;
    const auto pair = data::make_synthetic(dc);

    at_every_isa([&] {
        util::Rng rng(31);
        nn::Sequential model;
        auto* conv = model.emplace<approx::ApproxConv2d>(3, 6, 3, 1, 1, rng);
        model.emplace<nn::ReLU>();
        model.emplace<nn::AvgPool2d>(2);
        auto* conv2 = model.emplace<approx::ApproxConv2d>(6, 8, 3, 1, 0, rng);
        model.emplace<nn::ReLU>();
        model.emplace<nn::GlobalAvgPool>();
        model.emplace<nn::Flatten>();
        model.emplace<nn::Linear>(8, 4, rng);
        conv->set_multiplier(golden_config("mul8u_rm8"));
        conv2->set_multiplier(golden_config("mul8u_rm8"));
        model.set_training(false);

        approx::IntInferenceEngine engine(model, pair.train, 40);
        util::Rng xrng(1616);
        const Tensor images = Tensor::randn(Shape{5, 3, 12, 12}, xrng);
        expect_golden("engine_avg.logits", hash_tensor(engine.forward(images)));
    });
}

} // namespace
