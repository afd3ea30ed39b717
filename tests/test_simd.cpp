// Tests for the runtime-dispatched SIMD LUT-GEMM kernels (kernels/simd):
// dispatch resolution (parse/cap/override semantics of AMRET_SIMD), the
// nibble-packed activation sidecar (format and eligibility), and the bitwise
// contract — at every dispatch level the forward output and the row-major
// backward's grad-X and grad-W must memcmp-equal the naive loops of
// lut_oracle.hpp, on every shape, including ragged edges and every
// lane tail, for 4-, 6- and 8-bit codes, per-tensor and per-channel quantization,
// at both thread-count extremes (registered at AMRET_THREADS=1 and 8 in
// CMakeLists.txt). The CI simd-dispatch matrix additionally re-runs tier-1
// under AMRET_SIMD=scalar|ssse3|avx2 so the env-var path is exercised
// end to end, not just through resolve_request().
#include "amret.hpp"
#include "lut_oracle.hpp"

#include "kernels/simd/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

namespace {

using namespace amret;
using kernels::ActPanels;
using kernels::BlockedGemmArgs;
using kernels::LutGemmArgs;
using kernels::PanelPlan;
using kernels::Workspace;
using kernels::simd::Isa;

/// Every dispatch level this build+machine can actually run (always
/// includes kScalar). Tests sweep these rather than hard-coding levels so
/// the suite passes on machines without AVX-512 (or without AVX at all).
std::vector<Isa> runnable_isas() {
    std::vector<Isa> v{Isa::kScalar};
    for (const Isa isa : {Isa::kSsse3, Isa::kAvx2, Isa::kAvx512})
        if (kernels::simd::supported(isa)) v.push_back(isa);
    return v;
}

/// RAII ISA override so an ASSERT inside a sweep cannot leak a pinned level
/// into later tests.
struct ScopedIsa {
    explicit ScopedIsa(Isa isa) { kernels::simd::set_isa_for_test(isa); }
    ~ScopedIsa() { kernels::simd::clear_isa_override(); }
};

// ------------------------------------------------------------- dispatch --

TEST(SimdDispatch, ParseIsaAcceptsExactlyTheFourLevels) {
    Isa out = Isa::kAvx512;
    EXPECT_TRUE(kernels::simd::parse_isa("scalar", &out));
    EXPECT_EQ(out, Isa::kScalar);
    EXPECT_TRUE(kernels::simd::parse_isa("ssse3", &out));
    EXPECT_EQ(out, Isa::kSsse3);
    EXPECT_TRUE(kernels::simd::parse_isa("avx2", &out));
    EXPECT_EQ(out, Isa::kAvx2);
    EXPECT_TRUE(kernels::simd::parse_isa("avx512", &out));
    EXPECT_EQ(out, Isa::kAvx512);
    for (const char* bad : {"", "AVX2", "sse", "avx", "avx512vl", "neon"}) {
        Isa untouched = Isa::kSsse3;
        EXPECT_FALSE(kernels::simd::parse_isa(bad, &untouched)) << bad;
        EXPECT_EQ(untouched, Isa::kSsse3) << bad;
    }
}

TEST(SimdDispatch, ScalarIsAlwaysRunnable) {
    EXPECT_TRUE(kernels::simd::compiled(Isa::kScalar));
    EXPECT_TRUE(kernels::simd::cpu_supports(Isa::kScalar));
    EXPECT_TRUE(kernels::simd::supported(Isa::kScalar));
    EXPECT_GE(static_cast<int>(kernels::simd::max_supported()),
              static_cast<int>(Isa::kScalar));
    EXPECT_STREQ(kernels::simd::isa_name(Isa::kScalar), "scalar");
}

TEST(SimdDispatch, ResolveRequestIsACapNotAPromise) {
    const Isa best = kernels::simd::max_supported();
    // No request (or an unparseable one) resolves to the machine maximum.
    EXPECT_EQ(kernels::simd::resolve_request(nullptr), best);
    EXPECT_EQ(kernels::simd::resolve_request(""), best);
    EXPECT_EQ(kernels::simd::resolve_request("definitely-not-an-isa"), best);
    // scalar always resolves exactly.
    EXPECT_EQ(kernels::simd::resolve_request("scalar"), Isa::kScalar);
    // Every request resolves to a supported level at or below it, and a
    // supported request resolves to itself — the CI matrix sets AMRET_SIMD
    // unconditionally and relies on exactly this fallback.
    for (const char* name : {"ssse3", "avx2", "avx512"}) {
        Isa req = Isa::kScalar;
        ASSERT_TRUE(kernels::simd::parse_isa(name, &req));
        const Isa got = kernels::simd::resolve_request(name);
        EXPECT_TRUE(kernels::simd::supported(got)) << name;
        EXPECT_LE(static_cast<int>(got), static_cast<int>(req)) << name;
        if (kernels::simd::supported(req)) {
            EXPECT_EQ(got, req) << name;
        }
    }
}

TEST(SimdDispatch, TestOverrideRoundTrips) {
    for (const Isa isa : runnable_isas()) {
        kernels::simd::set_isa_for_test(isa);
        EXPECT_EQ(kernels::simd::select(), isa);
    }
    kernels::simd::clear_isa_override();
    EXPECT_TRUE(kernels::simd::supported(kernels::simd::select()));
}

// ------------------------------------------------- nibble-packed sidecar --

TEST(Packed4, SidecarMatchesTheDocumentedByteFormat) {
    util::Rng rng(41);
    // Ragged depth and row rag over a 16-row panel: pads must pack as 0.
    const std::int64_t rows = 21, depth = 10;
    const PanelPlan plan = kernels::make_panel_plan(rows, depth, 16, 4);
    ASSERT_EQ(plan.tr % 16, 0);
    std::vector<std::uint16_t> codes(static_cast<std::size_t>(rows * depth));
    for (auto& v : codes) v = static_cast<std::uint16_t>(rng.uniform_u64(16));

    Workspace ws;
    ActPanels x = kernels::pack_activation_panels(codes.data(), plan, ws);
    EXPECT_EQ(x.packed4, nullptr) << "plain packer must not auto-attach";
    kernels::attach_packed4(x, 4, ws, 1);
    ASSERT_NE(x.packed4, nullptr);

    // Decode every byte of every panel row back through the documented
    // format and compare against the u16 panel codes (pads included).
    for (std::int64_t rb = 0; rb < plan.row_blocks(); ++rb) {
        for (std::int64_t kb = 0; kb < plan.depth_blocks(); ++kb) {
            const std::int64_t base = plan.panel_offset(rb, kb); // invariant-ok: packed4 format is defined against panel slots
            const std::uint16_t* panel = x.codes + base;
            const std::uint8_t* packed = x.packed4 + base / 2;
            for (std::int64_t kk = 0; kk < plan.tk; ++kk) {
                for (std::int64_t g0 = 0; g0 < plan.tr; g0 += 16) {
                    for (std::int64_t j = 0; j < 8; ++j) {
                        const std::uint8_t byte =
                            packed[(kk * plan.tr + g0) / 2 + j];
                        ASSERT_EQ(byte & 0x0f, panel[kk * plan.tr + g0 + j]);
                        ASSERT_EQ(byte >> 4, panel[kk * plan.tr + g0 + 8 + j]);
                    }
                }
            }
        }
    }
}

TEST(Packed4, AttachIsSkippedWhenIneligible) {
    util::Rng rng(42);
    std::vector<std::uint16_t> codes(32 * 8);
    for (auto& v : codes) v = static_cast<std::uint16_t>(rng.uniform_u64(16));
    Workspace ws;
    // bits > 4: two codes cannot share a byte.
    {
        const PanelPlan plan = kernels::make_panel_plan(32, 8, 16, 4);
        ActPanels x = kernels::pack_activation_panels(codes.data(), plan, ws);
        kernels::attach_packed4(x, 8, ws, 1);
        EXPECT_EQ(x.packed4, nullptr);
    }
    // tr not a multiple of the 16-lane group width.
    {
        const PanelPlan plan = kernels::make_panel_plan(32, 8, 8, 4);
        ActPanels x = kernels::pack_activation_panels(codes.data(), plan, ws);
        kernels::attach_packed4(x, 4, ws, 1);
        EXPECT_EQ(x.packed4, nullptr);
    }
    // Small matrices clamp tr below 16 (rows=5 -> tr=5).
    {
        const PanelPlan plan = kernels::make_panel_plan(5, 8, 16, 4);
        ActPanels x = kernels::pack_activation_panels(codes.data(), plan, ws);
        kernels::attach_packed4(x, 4, ws, 1);
        EXPECT_EQ(x.packed4, nullptr);
    }
}

// ---------------------------------------- vector kernels vs the oracle --

/// Gradient tables of random normal entries: unlike STE, neither table is
/// symmetric in (w, x) or constant along a row, so a lookup in the wrong
/// table, the wrong row or with the operands swapped changes the result.
core::GradLut random_grad(unsigned bits, util::Rng& rng) {
    const auto draw = [&rng](std::uint64_t, std::uint64_t) { return rng.normal(); };
    return core::build_custom_grad(bits, draw, draw);
}

/// Random GEMM operands shared by the naive oracle and every dispatch level;
/// mirrors test_layout's fixture plus the packed4 sidecar so 4-bit runs
/// exercise the pshufb path, not just the gather path.
struct SimdRandom {
    appmult::AppMultLut lut;
    core::GradLut grad;
    std::vector<std::uint16_t> wq, xq;
    std::vector<float> gyp;
    std::vector<float> scale_per_o;
    std::vector<std::int32_t> zero_per_o;
    LutGemmArgs args;

    SimdRandom(unsigned bits, std::int64_t o, std::int64_t p, std::int64_t k,
               bool per_channel, util::Rng& rng)
        : lut(appmult::AppMultLut::exact(bits)), grad(random_grad(bits, rng)) {
        wq.resize(static_cast<std::size_t>(o * k));
        xq.resize(static_cast<std::size_t>(p * k));
        gyp.resize(static_cast<std::size_t>(p * o));
        for (auto& v : wq)
            v = static_cast<std::uint16_t>(rng.uniform_u64(lut.domain()));
        for (auto& v : xq)
            v = static_cast<std::uint16_t>(rng.uniform_u64(lut.domain()));
        // Mixed-in zeros hit the nonzero-gradient compaction path.
        for (auto& v : gyp)
            v = (rng.uniform_u64(4) == 0) ? 0.0f
                                          : static_cast<float>(rng.normal());
        args.bits = bits;
        args.lut = lut.table().data();
        args.wq = wq.data();
        args.xq = xq.data();
        args.o = o;
        args.p = p;
        args.k = k;
        args.scale_w = 0.013f;
        args.scale_x = 0.029f;
        args.zero_w = static_cast<std::int32_t>(rng.uniform_u64(1u << bits));
        args.zero_x = static_cast<std::int32_t>(rng.uniform_u64(1u << bits));
        if (per_channel) {
            scale_per_o.resize(static_cast<std::size_t>(o));
            zero_per_o.resize(static_cast<std::size_t>(o));
            for (std::int64_t i = 0; i < o; ++i) {
                scale_per_o[static_cast<std::size_t>(i)] =
                    0.004f + 0.02f * static_cast<float>(rng.normal());
                zero_per_o[static_cast<std::size_t>(i)] =
                    static_cast<std::int32_t>(rng.uniform_u64(1u << bits));
            }
            args.scale_w_per_o = scale_per_o.data();
            args.zero_w_per_o = zero_per_o.data();
        }
    }

    BlockedGemmArgs blocked(std::int64_t tp, std::int64_t to, std::int64_t tk,
                            Workspace& ws) const {
        BlockedGemmArgs b = lut_oracle::pack_blocked(args, tp, to, tk, ws);
        if (args.bits <= 4) kernels::attach_packed4(b.x, args.bits, ws, 1);
        return b;
    }
};

struct GemmShape {
    std::int64_t o, p, k;
};

// Ragged everywhere: single rows/columns, a prime-heavy shape (7x33x19),
// P just over a 16/32-lane boundary, and a bulk shape wide enough to fill
// every vector tail. P >= 16 shapes with tp=16 run the nibble path at 4
// bits; the others prove the eligibility fallbacks stay bitwise too. The
// last three keep P < 8 at every tile, so they run the output-channel-lane
// leaves: a batch-1 conv at 1x1 and at 2x2 (130 channels leave a tail
// inside a vector; depth 1153 spans two 1024-deep blocks) and a 7-row shape
// whose 33 channels leave a 1-lane tail.
constexpr GemmShape kShapes[] = {
    {1, 5, 1},      {7, 33, 19},  {17, 33, 120}, {3, 129, 9},
    {32, 40, 300},  {130, 1, 1153}, {64, 4, 576}, {33, 7, 40}};

constexpr struct {
    std::int64_t tp, to, tk;
} kTiles[] = {{16, 64, 1024}, {16, 16, 64}, {8, 4, 7}, {2, 3, 5}};

TEST(SimdKernels, ForwardMatchesScalarOracleBitwise) {
    util::Rng rng(101);
    const std::vector<Isa> isas = runnable_isas();
    for (const unsigned bits : {4u, 8u}) {
        for (const GemmShape& sh : kShapes) {
            const bool per_channel = (sh.o % 2) == 1;
            const SimdRandom g(bits, sh.o, sh.p, sh.k, per_channel, rng);
            std::vector<float> bias(static_cast<std::size_t>(sh.o));
            for (auto& v : bias) v = static_cast<float>(rng.normal());

            Workspace ws;
            std::vector<float> ref(static_cast<std::size_t>(sh.p * sh.o));
            lut_oracle::naive_forward(g.args, bias.data(), ref.data());

            std::vector<float> y(ref.size());
            for (const auto& t : kTiles) {
                ws.reset();
                const BlockedGemmArgs b = g.blocked(t.tp, t.to, t.tk, ws);
                for (const Isa isa : isas) {
                    ScopedIsa pin(isa);
                    std::fill(y.begin(), y.end(), -1.0f);
                    kernels::lut_forward_blocked(b, bias.data(), y.data(), ws);
                    ASSERT_EQ(std::memcmp(y.data(), ref.data(),
                                          y.size() * sizeof(float)),
                              0)
                        << kernels::simd::isa_name(isa) << " bits=" << bits
                        << " o=" << sh.o << " p=" << sh.p << " k=" << sh.k
                        << " tiles=(" << t.tp << "," << t.to << "," << t.tk
                        << ")";
                }
            }
        }
    }
}

TEST(SimdKernels, NibbleVerdictFollowsTheTableNotItsAddress) {
    // The pshufb path holds byte products, so it may run only while every
    // entry of the table fits uint8. A table rebuilt with larger products at
    // the freed table's address, or rewritten in place, must leave it.
    util::Rng rng(105);
    const std::int64_t o = 8, p = 32, k = 24;
    std::vector<std::uint16_t> wq(static_cast<std::size_t>(o * k));
    std::vector<std::uint16_t> xq(static_cast<std::size_t>(p * k));
    for (auto& v : wq) v = static_cast<std::uint16_t>(rng.uniform_u64(16));
    for (auto& v : xq) v = static_cast<std::uint16_t>(rng.uniform_u64(16));
    Workspace ws;
    const auto expect_oracle = [&](const std::int32_t* table, const char* what) {
        LutGemmArgs a;
        a.bits = 4;
        a.lut = table;
        a.wq = wq.data();
        a.xq = xq.data();
        a.o = o;
        a.p = p;
        a.k = k;
        a.zero_w = 3;
        a.zero_x = 5;
        ws.reset();
        std::vector<float> ref(static_cast<std::size_t>(p * o));
        lut_oracle::naive_forward(a, nullptr, ref.data());
        BlockedGemmArgs b = lut_oracle::pack_blocked(a, 16, 16, 64, ws);
        kernels::attach_packed4(b.x, 4, ws, 1);
        ASSERT_NE(b.x.packed4, nullptr);
        std::vector<float> y(ref.size());
        for (const Isa isa : runnable_isas()) {
            ScopedIsa pin(isa);
            kernels::lut_forward_blocked(b, nullptr, y.data(), ws);
            ASSERT_EQ(std::memcmp(y.data(), ref.data(), y.size() * sizeof(float)),
                      0)
                << what << " " << kernels::simd::isa_name(isa);
        }
    };
    // Destroy and rebuild: the allocator usually returns the same block.
    std::unique_ptr<appmult::AppMultLut> lut;
    for (const std::uint64_t factor : {1u, 3u, 1u, 3u}) {
        lut.reset();
        lut = std::make_unique<appmult::AppMultLut>(
            4, [factor](std::uint64_t w, std::uint64_t x) { return factor * w * x; });
        EXPECT_EQ(kernels::lut_fits_u8(lut->table().data(), 4), factor == 1);
        expect_oracle(lut->table().data(), factor == 1 ? "w*x" : "3*w*x");
    }
    // Rewritten in place: the same address for certain.
    std::vector<std::int32_t> table(lut->table());
    for (const std::int32_t factor : {1, 3}) {
        for (std::int32_t w = 0; w < 16; ++w)
            for (std::int32_t x = 0; x < 16; ++x)
                table[static_cast<std::size_t>(w * 16 + x)] = factor * w * x;
        expect_oracle(table.data(), factor == 1 ? "in-place w*x" : "in-place 3*w*x");
    }
}

/// Runs lut_backward_rows under every runnable dispatch level and memcmps
/// gw and gx against the naive backward over the same codes.
::testing::AssertionResult backward_matches_oracle(const SimdRandom& g) {
    const LutGemmArgs& a = g.args;
    const std::size_t nw = static_cast<std::size_t>(a.o * a.k);
    const std::size_t nx = static_cast<std::size_t>(a.p * a.k);
    std::vector<float> gw_ref(nw, 0.0f), gx_ref(nx, 0.0f);
    lut_oracle::naive_backward(a, g.gyp.data(), g.grad.dw_table().data(),
                               g.grad.dx_table().data(), gw_ref.data(),
                               gx_ref.data());
    Workspace ws;
    std::vector<float> gw(nw), gx(nx);
    for (const Isa isa : runnable_isas()) {
        ScopedIsa pin(isa);
        std::fill(gw.begin(), gw.end(), 0.0f);
        std::fill(gx.begin(), gx.end(), 0.0f);
        ws.reset();
        kernels::lut_backward_rows(a, g.gyp.data(), g.grad.dw_table().data(),
                                   g.grad.dx_t_table().data(), gw.data(),
                                   gx.data(), ws);
        const bool gw_eq =
            std::memcmp(gw.data(), gw_ref.data(), nw * sizeof(float)) == 0;
        const bool gx_eq =
            std::memcmp(gx.data(), gx_ref.data(), nx * sizeof(float)) == 0;
        if (!gw_eq || !gx_eq) {
            return ::testing::AssertionFailure()
                   << (gw_eq ? "gx " : "gw ") << kernels::simd::isa_name(isa)
                   << " bits=" << a.bits << " o=" << a.o << " p=" << a.p
                   << " k=" << a.k
                   << " per_channel=" << (a.scale_w_per_o != nullptr);
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(SimdKernels, BackwardMatchesScalarOracleBitwise) {
    util::Rng rng(102);
    for (const unsigned bits : {4u, 6u, 8u}) {
        for (const GemmShape& sh : kShapes) {
            const bool per_channel = (sh.p % 2) == 1;
            const SimdRandom g(bits, sh.o, sh.p, sh.k, per_channel, rng);
            ASSERT_TRUE(backward_matches_oracle(g));
        }
    }
}

TEST(SimdKernels, BackwardCoversEveryLaneTailAndZeroGradients) {
    // K = 1..17, 31 and 33 leave every remainder of the 16- and 8-lane
    // steps; one position row and one output column of gyp are all zero,
    // so one gx row and one gw row have no nonzero gradient to replay.
    util::Rng rng(104);
    std::vector<std::int64_t> depths;
    for (std::int64_t k = 1; k <= 17; ++k) depths.push_back(k);
    depths.push_back(31);
    depths.push_back(33);
    const std::int64_t o = 6, p = 11;
    for (const unsigned bits : {4u, 6u, 8u}) {
        for (const std::int64_t k : depths) {
            SimdRandom g(bits, o, p, k, /*per_channel=*/k % 2 == 1, rng);
            for (std::int64_t c = 0; c < o; ++c)
                g.gyp[static_cast<std::size_t>(4 * o + c)] = 0.0f;
            for (std::int64_t r = 0; r < p; ++r)
                g.gyp[static_cast<std::size_t>(r * o + 2)] = 0.0f;
            ASSERT_TRUE(backward_matches_oracle(g));
        }
    }
}

// --------------------------------------------- layer / engine level -------

TEST(SimdEngine, VggBatchOneRowsMatchBatchRowsAtEveryIsa) {
    // VGG19 at width 1/8 on 16x16 inputs: the last eight convs run at 2x2
    // and 1x1, so a batch of 1 forms position blocks of 4 and 1 rows (the
    // output-channel-lane leaves) where the batch of 5 forms 20 and 5. Every
    // batch-1 row must memcmp its batch row, and every level the scalar
    // level.
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 16;
    dc.train_samples = 32;
    dc.test_samples = 5;
    dc.seed = 108;
    const data::DatasetPair ds = data::make_synthetic(dc);

    models::ModelConfig mc;
    mc.in_size = 16;
    mc.num_classes = 4;
    mc.width_mult = 0.125f;
    const auto model = train::make_model("vgg19", mc);
    auto& reg = appmult::Registry::instance();
    approx::MultiplierConfig config;
    config.lut = std::make_shared<appmult::AppMultLut>(reg.lut("mul8u_acc"));
    config.grad = std::make_shared<core::GradLut>(core::build_ste_grad(8));
    approx::configure_approx_layers(*model, config,
                                    approx::ComputeMode::kQuantized);
    model->set_training(false);

    const std::int64_t n = ds.test.size();
    const std::int64_t numel = ds.test.sample_numel();
    tensor::Tensor batch(tensor::Shape{n, 3, 16, 16});
    std::copy_n(ds.test.images.data(), n * numel, batch.data());
    approx::IntInferenceEngine engine(*model, ds.train, 32);
    tensor::Tensor ref;
    {
        ScopedIsa pin(Isa::kScalar);
        ref = engine.forward(batch);
    }
    const std::int64_t classes = ref.dim(1);
    for (const Isa isa : runnable_isas()) {
        ScopedIsa pin(isa);
        const tensor::Tensor logits = engine.forward(batch);
        ASSERT_EQ(std::memcmp(logits.data(), ref.data(),
                              static_cast<std::size_t>(ref.numel()) * sizeof(float)),
                  0)
            << kernels::simd::isa_name(isa);
        tensor::Tensor one(tensor::Shape{1, 3, 16, 16});
        for (std::int64_t i = 0; i < n; ++i) {
            std::copy_n(batch.data() + i * numel, numel, one.data());
            const tensor::Tensor row = engine.forward(one);
            ASSERT_EQ(std::memcmp(row.data(), ref.data() + i * classes,
                                  static_cast<std::size_t>(classes) * sizeof(float)),
                      0)
                << "row " << i << " " << kernels::simd::isa_name(isa);
        }
    }
}

TEST(SimdEngine, IntEngineIsBitwiseIdenticalAcrossIsas) {
    // Small untrained LeNet + synthetic data (the engine contract depends on
    // the compiled integer parameters, not accuracy): the engine inlines the
    // blocked tile template with its own requantize epilogue, so this proves
    // the dispatch seam reaches that consumer too.
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 8;
    dc.train_samples = 64;
    dc.test_samples = 32;
    dc.seed = 107;
    const data::DatasetPair ds = data::make_synthetic(dc);

    models::ModelConfig mc;
    mc.in_size = 8;
    mc.num_classes = 4;
    mc.width_mult = 0.5f;
    const auto model = train::make_model("lenet", mc);
    auto& reg = appmult::Registry::instance();
    approx::MultiplierConfig config;
    config.lut = std::make_shared<appmult::AppMultLut>(reg.lut("mul8u_acc"));
    config.grad = std::make_shared<core::GradLut>(core::build_ste_grad(8));
    approx::configure_approx_layers(*model, config,
                                    approx::ComputeMode::kQuantized);
    model->set_training(false);

    data::DataLoader loader(ds.test, 16, /*shuffle=*/false, 0);
    loader.start_epoch();
    data::Batch batch;
    ASSERT_TRUE(loader.next(batch));

    tensor::Tensor ref;
    {
        ScopedIsa pin(Isa::kScalar);
        approx::IntInferenceEngine engine(*model, ds.train, 48);
        ref = engine.forward(batch.images);
    }
    for (const Isa isa : runnable_isas()) {
        ScopedIsa pin(isa);
        approx::IntInferenceEngine engine(*model, ds.train, 48);
        const tensor::Tensor logits = engine.forward(batch.images);
        ASSERT_EQ(logits.numel(), ref.numel());
        ASSERT_EQ(std::memcmp(logits.data(), ref.data(),
                              static_cast<std::size_t>(ref.numel()) * sizeof(float)),
                  0)
            << kernels::simd::isa_name(isa);
    }
}

} // namespace
