// Tests for the runtime-dispatched SIMD LUT-GEMM kernels (kernels/simd):
// dispatch resolution (parse/cap/override semantics of AMRET_SIMD), the
// nibble-packed activation sidecar (format and eligibility), the product
// planes (format, and planes that follow their table), and the bitwise
// contract — at every dispatch level the forward output and the row-major
// backward's grad-X and grad-W must memcmp-equal the naive loops of
// lut_oracle.hpp, on every shape, including ragged edges and every
// lane tail, for 4- to 8-bit codes, per-tensor and per-channel quantization,
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

/// The AppMultLut of the raw product table \p t (2^(2*bits) entries).
appmult::AppMultLut table_lut(unsigned bits, const std::vector<std::int32_t>& t) {
    return appmult::AppMultLut(bits, [&](std::uint64_t w, std::uint64_t x) {
        return static_cast<std::uint64_t>(t[(w << bits) | x]);
    });
}

/// Random GEMM operands shared by the naive oracle and every dispatch level;
/// mirrors test_layout's fixture plus the packed4 sidecar so 4-bit runs
/// exercise the pshufb path, not just the gather path, and the product
/// planes so 5- to 8-bit runs exercise the plane leaf.
struct SimdRandom {
    appmult::AppMultLut lut;
    core::GradLut grad;
    std::vector<std::uint16_t> wq, xq;
    std::vector<float> gyp;
    std::vector<float> scale_per_o;
    std::vector<std::int32_t> zero_per_o;
    std::vector<std::uint8_t> w_ok, x_ok;
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
        args.lut_planes = lut.planes();
        args.wq = wq.data();
        args.xq = xq.data();
        args.o = o;
        args.geom = kernels::matrix_geom(p, k);
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
        lut_oracle::draw_masks(args, rng, w_ok, x_ok);
    }

    /// Makes args a conv of \p geom (same P and K): its codes get zero_x at
    /// every out-of-image tap, the precondition of lut_backward_rows.
    void set_conv(const tensor::ConvGeom& geom);

    /// Runs the forward on product table \p t (2^(2*bits) entries) and the
    /// planes AppMultLut builds for it.
    void set_table(const std::vector<std::int32_t>& t) {
        lut = table_lut(args.bits, t);
        args.lut = lut.table().data();
        args.lut_planes = lut.planes();
    }

    LutGemmArgs blocked(std::int64_t tp, std::int64_t to, std::int64_t tk,
                            Workspace& ws) const {
        LutGemmArgs b = lut_oracle::pack_blocked(args, tp, to, tk, ws);
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

// Row tiles of 64 and 32 put blocks of 32 rows or more on the plane leaf
// (with one or two depth blocks), the others keep every block on the
// gather, nibble and output-channel leaves. None is larger than the
// compiled tiles, lut_gemm_blocked's precondition.
constexpr struct {
    std::int64_t tp, to, tk;
} kTiles[] = {{64, 64, 1024}, {64, 16, 64}, {32, 8, 100}, {16, 64, 1024},
              {16, 16, 64},   {8, 4, 7},    {2, 3, 5}};

/// A 2^(2*bits)-entry product table of random 16-bit values in which every
/// fifth entry is 65535 and every seventh 0: the extremes of the planes'
/// range.
std::vector<std::int32_t> extreme_table(unsigned bits, util::Rng& rng) {
    std::vector<std::int32_t> t(std::size_t{1} << (2 * bits));
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = i % 5 == 0   ? 65535
               : i % 7 == 0 ? 0
                            : static_cast<std::int32_t>(rng.uniform_u64(65536));
    return t;
}

/// Runs lut_forward_blocked over \p g's codes at every tile of kTiles and
/// every runnable dispatch level, with the table's planes and without them
/// (the gather leaf in their place), and memcmps each output against the
/// naive forward.
void expect_forward_matches_oracle(const SimdRandom& g, util::Rng& rng) {
    const LutGemmArgs& a = g.args;
    std::vector<float> bias(static_cast<std::size_t>(a.o));
    for (auto& v : bias) v = static_cast<float>(rng.normal());
    std::vector<float> ref(static_cast<std::size_t>(a.p() * a.o));
    lut_oracle::naive_forward(a, bias.data(), ref.data());
    std::vector<float> y(ref.size());
    Workspace ws;
    for (const auto& t : kTiles) {
        ws.reset();
        LutGemmArgs b = g.blocked(t.tp, t.to, t.tk, ws);
        const kernels::LutPlaneRow* const none = nullptr;
        for (const kernels::LutPlaneRow* planes : {a.lut_planes, none}) {
            b.lut_planes = planes;
            for (const Isa isa : runnable_isas()) {
                ScopedIsa pin(isa);
                std::fill(y.begin(), y.end(), -1.0f);
                kernels::lut_forward_blocked(b, bias.data(), y.data());
                ASSERT_EQ(std::memcmp(y.data(), ref.data(), y.size() * sizeof(float)),
                          0)
                    << kernels::simd::isa_name(isa) << " bits=" << a.bits
                    << " o=" << a.o << " p=" << a.p() << " k=" << a.k() << " tiles=("
                    << t.tp << "," << t.to << "," << t.tk << ")"
                    << " planes=" << (planes != nullptr);
            }
        }
    }
}

// Rows on either side of the plane leaf's 32-row threshold and of a 64-row
// block: a 31-row block gathers, 32 and 33 rows load under a lane mask, 65
// rows leave a 1-row tail, 100 rows a 36-row one.
constexpr std::int64_t kPlaneRows[] = {31, 32, 33, 63, 64, 65, 100};

TEST(SimdKernels, ForwardMatchesScalarOracleBitwise) {
    util::Rng rng(101);
    for (const unsigned bits : {4u, 8u}) {
        for (const GemmShape& sh : kShapes) {
            const bool per_channel = (sh.o % 2) == 1;
            const SimdRandom g(bits, sh.o, sh.p, sh.k, per_channel, rng);
            expect_forward_matches_oracle(g, rng);
        }
    }
    // Every width with planes, on its exact table and on a table holding 0
    // and 65535, around the plane leaf's block edges.
    for (const unsigned bits : {5u, 6u, 7u, 8u}) {
        for (const std::int64_t p : kPlaneRows) {
            SimdRandom g(bits, 9, p, 70, /*per_channel=*/p % 2 == 1, rng);
            ASSERT_NE(g.args.lut_planes, nullptr) << "bits=" << bits;
            expect_forward_matches_oracle(g, rng);
            g.set_table(extreme_table(bits, rng));
            ASSERT_NE(g.args.lut_planes, nullptr) << "bits=" << bits;
            expect_forward_matches_oracle(g, rng);
        }
    }
    // Every product 65535 over a whole depth block of tune::kTileK indices:
    // the largest sums the plane leaf's int32 lanes hold.
    SimdRandom g(8, 5, 64, kernels::tune::kTileK, /*per_channel=*/false, rng);
    g.set_table(std::vector<std::int32_t>(std::size_t{1} << 16, 65535));
    expect_forward_matches_oracle(g, rng);
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
        a.geom = kernels::matrix_geom(p, k);
        a.zero_w = 3;
        a.zero_x = 5;
        ws.reset();
        std::vector<float> ref(static_cast<std::size_t>(p * o));
        lut_oracle::naive_forward(a, nullptr, ref.data());
        LutGemmArgs b = lut_oracle::pack_blocked(a, 16, 16, 64, ws);
        kernels::attach_packed4(b.x, 4, ws, 1);
        ASSERT_NE(b.x.packed4, nullptr);
        std::vector<float> y(ref.size());
        for (const Isa isa : runnable_isas()) {
            ScopedIsa pin(isa);
            kernels::lut_forward_blocked(b, nullptr, y.data());
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

TEST(SimdKernels, PlanesFollowTheTableNotItsAddress) {
    // The plane leaf holds 16-bit products as byte pairs, so a table has
    // planes only while every entry lies in [0, 65535], and each table's
    // planes are built from that table: a table rebuilt at a freed one's
    // address, with other contents, brings its own or none.
    util::Rng rng(110);
    const std::int64_t o = 12, p = 64, k = 40;
    std::vector<std::uint16_t> wq(static_cast<std::size_t>(o * k));
    std::vector<std::uint16_t> xq(static_cast<std::size_t>(p * k));
    for (auto& v : wq) v = static_cast<std::uint16_t>(rng.uniform_u64(256));
    for (auto& v : xq) v = static_cast<std::uint16_t>(rng.uniform_u64(256));
    obs::Counter& plane_tiles = obs::counter("kernels.simd.plane_tiles");
    Workspace ws;
    const auto expect_oracle = [&](const appmult::AppMultLut& lut, bool has_planes,
                                   const char* what) {
        ASSERT_EQ(lut.planes() != nullptr, has_planes) << what;
        LutGemmArgs a;
        a.bits = 8;
        a.lut = lut.table().data();
        a.lut_planes = lut.planes();
        a.wq = wq.data();
        a.xq = xq.data();
        a.o = o;
        a.geom = kernels::matrix_geom(p, k);
        a.zero_w = 3;
        a.zero_x = 5;
        ws.reset();
        std::vector<float> ref(static_cast<std::size_t>(p * o));
        lut_oracle::naive_forward(a, nullptr, ref.data());
        const LutGemmArgs b = lut_oracle::pack_blocked(
            a, kernels::tune::kTileP, kernels::tune::kTileO, kernels::tune::kTileK, ws);
        std::vector<float> y(ref.size());
        for (const Isa isa : runnable_isas()) {
            ScopedIsa pin(isa);
            const std::int64_t before = plane_tiles.value();
            kernels::lut_forward_blocked(b, nullptr, y.data());
            ASSERT_EQ(std::memcmp(y.data(), ref.data(), y.size() * sizeof(float)),
                      0)
                << what << " " << kernels::simd::isa_name(isa);
#if !defined(AMRET_OBS_DISABLED)
            EXPECT_EQ(plane_tiles.value() > before,
                      has_planes && isa == Isa::kAvx512)
                << what << " " << kernels::simd::isa_name(isa);
#endif
        }
    };
    // Destroy and rebuild: the allocator usually returns the same block.
    struct Case {
        const char* what;
        std::int64_t at_17_200; ///< the entry (w, x) = (17, 200)
        bool has_planes;
    };
    std::unique_ptr<appmult::AppMultLut> lut;
    for (const Case c : {Case{"w*x", 17 * 200, true}, Case{"w*x with -1", -1, false},
                         Case{"w*x with 65535", 65535, true},
                         Case{"w*x with 65536", 65536, false},
                         Case{"w*x with 0", 0, true}}) {
        lut.reset();
        lut = std::make_unique<appmult::AppMultLut>(
            8, [c](std::uint64_t w, std::uint64_t x) {
                return w == 17 && x == 200 ? static_cast<std::uint64_t>(c.at_17_200)
                                           : w * x;
            });
        expect_oracle(*lut, c.has_planes, c.what);
    }
    // The format, on a raw table: byte x of row w holds the low and high
    // bytes of LUT[w, x], zero past 2^bits; no planes outside 5..8 bits.
    const std::vector<std::int32_t> t6 = extreme_table(6, rng);
    const appmult::AppMultLut lut6 = table_lut(6, t6);
    const kernels::LutPlaneRow* planes = lut6.planes();
    ASSERT_NE(planes, nullptr);
    for (std::size_t w = 0; w < 64; ++w)
        for (std::size_t x = 0; x < 256; ++x) {
            const std::int32_t want = x < 64 ? t6[(w << 6) | x] : 0;
            ASSERT_EQ(planes[w].lo[x] | (planes[w].hi[x] << 8), want)
                << "w=" << w << " x=" << x;
        }
    EXPECT_EQ(appmult::AppMultLut::exact(4).planes(), nullptr);
    EXPECT_EQ(appmult::AppMultLut::exact(9).planes(), nullptr);
}

TEST(SimdKernels, PadSkippedCountsLookupsOutsideEachBlocksTapBox) {
#if defined(AMRET_OBS_DISABLED)
    GTEST_SKIP() << "obs instrumentation compiled out";
#endif
    // VGG19-slim's deepest 3x3 convs (pad 1) at 2x2: at batch 32 each
    // 64-row block spans two output locations and walks the union of their
    // tap boxes, at batch 64 each holds one location. Independent count:
    // the taps outside the union of the block's rows' in-image taps.
    obs::Counter& skipped = obs::counter("kernels.gemm.pad_skipped");
    const std::int64_t c_in = 16, c_out = 8;
    util::Rng wrng(111);
    approx::ApproxConv2d conv(c_in, c_out, 3, 1, 1, wrng);
    conv.set_multiplier(approx::MultiplierConfig::exact_ste(8));
    conv.set_mode(approx::ComputeMode::kQuantized);
    for (const std::int64_t batch : {std::int64_t{32}, std::int64_t{64}}) {
        const tensor::ConvGeom geom{batch, c_in, 2, 2, 3, 1, 1};
        std::int64_t want = 0;
        const std::int64_t rows = geom.positions();
        for (std::int64_t r0 = 0; r0 < rows; r0 += kernels::tune::kTileP) {
            const std::int64_t r1 = std::min(rows, r0 + kernels::tune::kTileP);
            std::int64_t ky0 = 3, ky1 = 0, kx0 = 3, kx1 = 0;
            for (std::int64_t r = r0; r < r1; ++r) {
                // Location-major row r is location r / batch.
                const std::int64_t pp = (r % batch) * 4 + r / batch;
                for (std::int64_t t = 0; t < 9; ++t)
                    if (lut_oracle::tap_in_image(geom, pp, t * c_in)) {
                        ky0 = std::min(ky0, t / 3);
                        ky1 = std::max(ky1, t / 3 + 1);
                        kx0 = std::min(kx0, t % 3);
                        kx1 = std::max(kx1, t % 3 + 1);
                    }
            }
            want += (9 - (ky1 - ky0) * (kx1 - kx0)) * c_in * (r1 - r0) * c_out;
        }
        // Two locations of one output row: 6 of 9 taps in the box; one
        // location: 4 of 9.
        EXPECT_EQ(want, (batch == 32 ? 3 : 5) * c_in * rows * c_out);
        util::Rng xrng(112);
        const tensor::Tensor x =
            tensor::Tensor::randn(tensor::Shape{batch, c_in, 2, 2}, xrng);
        nn::Context ctx;
        const std::int64_t before = skipped.value();
        conv.forward(x, ctx);
        EXPECT_EQ(skipped.value() - before, want) << "batch " << batch;
    }
}

/// Runs lut_backward_rows under every runnable dispatch level and memcmps
/// the weight gradient and gx against the naive backward over the same
/// codes, from a weight gradient that already holds values.
::testing::AssertionResult backward_matches_oracle(const SimdRandom& g) {
    const LutGemmArgs& a = g.args;
    const std::size_t nw = static_cast<std::size_t>(a.o * a.k());
    const std::size_t nx = static_cast<std::size_t>(a.p() * a.k());
    std::vector<float> gw0(nw);
    for (std::size_t i = 0; i < nw; ++i)
        gw0[i] = i % 3 == 0 ? -0.0f : 0.25f * static_cast<float>(i % 7);
    std::vector<float> gw_ref(gw0), gx_ref(nx);
    lut_oracle::naive_backward(a, g.gyp.data(), g.grad.dw_table().data(),
                               g.grad.dx_table().data(), gw_ref.data(),
                               gx_ref.data());
    Workspace ws;
    std::vector<float> gw(nw), gx(nx);
    for (const Isa isa : runnable_isas()) {
        ScopedIsa pin(isa);
        gw = gw0;
        std::fill(gx.begin(), gx.end(), -1.0f);
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
                   << " bits=" << a.bits << " o=" << a.o << " p=" << a.p()
                   << " k=" << a.k()
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

// Conv geometries of the padding-free backward: pad 1 and 2, stride 1 and
// 2, K = 3 and 5, C = 3, 16, 20, 24 and 32, and an unpadded conv whose rows
// are one full run. The 20-channel maps give grad-X runs from one 20-lane
// tap to whole kernel rows, so the 16-lane body, the 8-lane step and the
// scalar tail all run inside a row's runs. The 16- and 32-channel maps keep
// every grad-W lane group inside one tap, as VGG19-slim's deep layers do (a
// batch of 32 on 2x2 and a 1x1 map); 3, 20 and 24 channels make groups
// straddle taps.
const tensor::ConvGeom kConvGeoms[] = {
    {2, 3, 5, 6, 3, 1, 1},   {3, 20, 3, 3, 3, 1, 1}, {5, 20, 1, 1, 3, 1, 1},
    {2, 3, 7, 6, 3, 2, 1},   {2, 3, 7, 9, 5, 1, 2},  {1, 20, 6, 5, 5, 2, 2},
    {2, 20, 4, 4, 3, 2, 2},  {2, 3, 6, 6, 3, 1, 0},  {32, 32, 2, 2, 3, 1, 1},
    {4, 32, 1, 1, 3, 1, 1},  {2, 24, 4, 4, 3, 1, 1}, {2, 16, 5, 5, 5, 2, 2},
};

using lut_oracle::tap_in_image;

void SimdRandom::set_conv(const tensor::ConvGeom& geom) {
    ASSERT_EQ(geom.positions(), args.p());
    ASSERT_EQ(geom.patch(), args.k());
    args.geom = geom;
    lut_oracle::write_pad_codes(geom, args.zero_x, xq.data());
}

TEST(SimdKernels, ConvBackwardSkipsPaddingTapsAndMatchesOracle) {
    // Codes over im2col rows and a tap-major depth, with zero_x at every
    // out-of-image tap. grad-W keeps every term, so the weight gradient
    // equals the oracle everywhere; grad-X writes only the in-image taps,
    // so gx equals the oracle there and keeps what the caller left on the
    // padding taps, which col2im_tap_major drops.
    util::Rng rng(106);
    const float untouched = -7.5f;
    int variant = 0;
    for (const tensor::ConvGeom& geom : kConvGeoms) {
        for (const unsigned bits : {4u, 8u}) {
            const bool per_channel = (variant++ % 2) == 1;
            SimdRandom g(bits, 7, geom.positions(), geom.patch(), per_channel,
                         rng);
            g.set_conv(geom);
            // Signed zeros beside the randn and +0.0f mix of SimdRandom.
            for (std::size_t i = 0; i < g.gyp.size(); i += 5) g.gyp[i] = -0.0f;
            const LutGemmArgs& a = g.args;
            const std::size_t nw = static_cast<std::size_t>(a.o * a.k());
            const std::size_t nx = static_cast<std::size_t>(a.p() * a.k());
            std::vector<float> gw_ref(nw, 0.0f), gx_ref(nx);
            lut_oracle::naive_backward(a, g.gyp.data(), g.grad.dw_table().data(),
                                       g.grad.dx_table().data(), gw_ref.data(),
                                       gx_ref.data());
            Workspace ws;
            std::vector<float> gw(nw), gx(nx);
            for (const Isa isa : runnable_isas()) {
                ScopedIsa pin(isa);
                std::fill(gw.begin(), gw.end(), 0.0f);
                std::fill(gx.begin(), gx.end(), untouched);
                ws.reset();
                kernels::lut_backward_rows(a, g.gyp.data(),
                                           g.grad.dw_table().data(),
                                           g.grad.dx_t_table().data(),
                                           gw.data(), gx.data(), ws);
                ASSERT_EQ(std::memcmp(gw.data(), gw_ref.data(),
                                      nw * sizeof(float)),
                          0)
                    << kernels::simd::isa_name(isa) << " bits=" << bits
                    << " C=" << geom.in_ch << " K=" << geom.kernel;
                for (std::int64_t pp = 0; pp < a.p(); ++pp)
                    for (std::int64_t d = 0; d < a.k(); ++d) {
                        const std::size_t i = static_cast<std::size_t>(pp * a.k() + d);
                        const float* want =
                            tap_in_image(geom, pp, d) ? &gx_ref[i] : &untouched;
                        ASSERT_EQ(std::memcmp(&gx[i], want, sizeof(float)), 0)
                            << kernels::simd::isa_name(isa) << " bits=" << bits
                            << " C=" << geom.in_ch << " K=" << geom.kernel
                            << " row=" << pp << " depth=" << d;
                    }
            }
        }
    }
}

TEST(SimdKernels, GradXPadSkippedCountsOutOfImageTaps) {
#if defined(AMRET_OBS_DISABLED)
    GTEST_SKIP() << "obs instrumentation compiled out";
#endif
    // Independent count: every (row, tap) pair whose pixel is outside the
    // image leaves C gx elements uncomputed.
    obs::Counter& skipped = obs::counter("kernels.gemm.grad_x_pad_skipped");
    util::Rng rng(107);
    for (const tensor::ConvGeom& geom : kConvGeoms) {
        SimdRandom g(8, 5, geom.positions(), geom.patch(), false, rng);
        g.set_conv(geom);
        std::int64_t want = 0;
        for (std::int64_t pp = 0; pp < geom.positions(); ++pp)
            for (std::int64_t t = 0; t < geom.kernel * geom.kernel; ++t)
                if (!tap_in_image(geom, pp, t * geom.in_ch)) want += geom.in_ch;
        std::vector<float> gw(static_cast<std::size_t>(g.args.o * g.args.k()), 0.0f);
        std::vector<float> gx(static_cast<std::size_t>(g.args.p() * g.args.k()), 0.0f);
        Workspace ws;
        const std::int64_t before = skipped.value();
        kernels::lut_backward_rows(g.args, g.gyp.data(), g.grad.dw_table().data(),
                                   g.grad.dx_t_table().data(), gw.data(),
                                   gx.data(), ws);
        EXPECT_EQ(skipped.value() - before, want)
            << "C=" << geom.in_ch << " K=" << geom.kernel << " pad=" << geom.pad
            << " stride=" << geom.stride;
    }
}

/// Lanes of row \p pp that the grad-W walk at \p isa skips: the lane
/// groups of its leaf chain (16 lanes on AVX-512, then 8 on AVX2, then
/// single lanes) whose taps are all out of the image in that row.
std::int64_t grad_w_skipped_lanes(const tensor::ConvGeom& g, Isa isa,
                                  std::int64_t pp) {
    std::vector<std::int64_t> widths{1};
    if (isa == Isa::kAvx2) widths = {8, 1};
    if (isa == Isa::kAvx512) widths = {16, 8, 1};
    std::int64_t kk = 0, skipped = 0;
    for (const std::int64_t w : widths)
        for (; kk + w <= g.patch(); kk += w) {
            bool out = true;
            for (std::int64_t l = kk; l < kk + w; ++l)
                out = out && !tap_in_image(g, pp, l);
            if (out) skipped += w;
        }
    return skipped;
}

TEST(SimdKernels, GradWPadSkippedCountsPaddingLanes) {
#if defined(AMRET_OBS_DISABLED)
    GTEST_SKIP() << "obs instrumentation compiled out";
#endif
    // Each nonzero gradient of a filter skips the lookups of the lane groups
    // its row reads only padding in. Where C is a multiple of 16, no group
    // straddles taps, and that is every padding lane the geometry implies.
    obs::Counter& skipped = obs::counter("kernels.gemm.grad_w_pad_skipped");
    util::Rng rng(108);
    for (const tensor::ConvGeom& geom : kConvGeoms) {
        SimdRandom g(8, 5, geom.positions(), geom.patch(), false, rng);
        g.set_conv(geom);
        for (const Isa isa : runnable_isas()) {
            ScopedIsa pin(isa);
            std::int64_t want = 0, padding = 0;
            for (std::int64_t pp = 0; pp < geom.positions(); ++pp) {
                std::int64_t rows = 0;
                for (std::int64_t oo = 0; oo < g.args.o; ++oo)
                    rows += g.gyp[static_cast<std::size_t>(pp * g.args.o + oo)] != 0.0f;
                want += rows * grad_w_skipped_lanes(geom, isa, pp);
                for (std::int64_t d = 0; d < geom.patch(); ++d)
                    if (!tap_in_image(geom, pp, d)) padding += rows;
            }
            if (geom.in_ch % 16 == 0) {
                EXPECT_EQ(want, padding);
            }
            std::vector<float> gw(static_cast<std::size_t>(g.args.o * g.args.k()));
            std::vector<float> gx(static_cast<std::size_t>(g.args.p() * g.args.k()));
            Workspace ws;
            const std::int64_t before = skipped.value();
            kernels::lut_backward_rows(g.args, g.gyp.data(), g.grad.dw_table().data(),
                                       g.grad.dx_t_table().data(), gw.data(),
                                       gx.data(), ws);
            EXPECT_EQ(skipped.value() - before, want)
                << kernels::simd::isa_name(isa) << " C=" << geom.in_ch
                << " K=" << geom.kernel << " pad=" << geom.pad
                << " stride=" << geom.stride;
        }
    }
}

TEST(SimdKernels, GemmLoopsSizeChunksWithChunkGrain) {
#if defined(AMRET_OBS_DISABLED)
    GTEST_SKIP() << "obs instrumentation compiled out";
#endif
    // The forward, grad-X and grad-W loops each size their chunks with
    // chunk_grain over their items: position blocks of tp * O * K lookups,
    // gx rows of O * K and gw rows of P * K. A GEMM under
    // tune::kMinChunkWork lookups runs each loop as one chunk.
    namespace tune = kernels::tune;
    obs::Counter& chunks = obs::counter("runtime.parallel_for.chunks");
    util::Rng rng(109);
    struct Shape3 {
        std::int64_t o, p, k;
    };
    for (const Shape3 sh : {Shape3{8, 20, 30}, Shape3{32, 256, 144}}) {
        const bool small = sh.o * sh.p * sh.k < tune::kMinChunkWork;
        SimdRandom g(8, sh.o, sh.p, sh.k, false, rng);
        Workspace ws;
        const LutGemmArgs b = lut_oracle::pack_blocked(
            g.args, tune::kTileP, tune::kTileO, tune::kTileK, ws);
        std::vector<float> y(static_cast<std::size_t>(sh.p * sh.o));
        const std::int64_t nblocks = b.x.plan.row_blocks();
        const std::int64_t fwd_want = runtime::chunk_count(
            0, nblocks, kernels::chunk_grain(nblocks, b.x.plan.tr * sh.o * sh.k));
        std::int64_t before = chunks.value();
        kernels::lut_forward_blocked(b, nullptr, y.data());
        EXPECT_EQ(chunks.value() - before, small ? 1 : fwd_want)
            << "forward, O=" << sh.o << " P=" << sh.p << " K=" << sh.k;
        if (!small) {
            EXPECT_GT(fwd_want, 1);
        }

        const std::int64_t gx_want = runtime::chunk_count(
            0, sh.p, kernels::chunk_grain(sh.p, sh.o * sh.k));
        const std::int64_t gw_want = runtime::chunk_count(
            0, sh.o, kernels::chunk_grain(sh.o, sh.p * sh.k));
        std::vector<float> gw(static_cast<std::size_t>(sh.o * sh.k), 0.0f);
        std::vector<float> gx(static_cast<std::size_t>(sh.p * sh.k), 0.0f);
        before = chunks.value();
        kernels::lut_backward_rows(g.args, g.gyp.data(), g.grad.dw_table().data(),
                                   g.grad.dx_t_table().data(), gw.data(),
                                   gx.data(), ws);
        EXPECT_EQ(chunks.value() - before, small ? 2 : gx_want + gw_want)
            << "backward, O=" << sh.o << " P=" << sh.p << " K=" << sh.k;
        if (!small) {
            EXPECT_GT(gx_want, 1);
            EXPECT_GT(gw_want, 1);
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
