// Tests for the blocked (panelized) code layouts: pack/unpack round trips
// over every ragged-edge configuration, bitwise identity of the LUT-GEMM
// kernels against the naive loops of lut_oracle.hpp (memcmp, not
// approximate) at several panel tiles, fused im2col panel production against
// the unfused im2col + pack reference, the plan-keyed workspace high-water
// tracking, and the analyzer's cross-check of the engine's weight panels.
// Registered at AMRET_THREADS=1 and 8 in CMakeLists.txt: the kernels share
// the runtime determinism contract, so every memcmp here is thread-count
// independent.
#include "amret.hpp"
#include "lut_oracle.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace {

using namespace amret;
using kernels::ActPanels;
using kernels::LutGemmArgs;
using kernels::PanelPlan;
using kernels::WeightPanels;
using kernels::Workspace;
using tensor::ConvGeom;
using tensor::Shape;

// ------------------------------------------------------------ panel plans --

TEST(PanelPlan, RaggedEdgesCoverTheLogicalMatrix) {
    const PanelPlan plan = kernels::make_panel_plan(17, 9, 4, 4);
    EXPECT_EQ(plan.row_blocks(), 5);
    EXPECT_EQ(plan.depth_blocks(), 3);
    EXPECT_EQ(plan.block_rows(4), 1);  // 17 = 4*4 + 1
    EXPECT_EQ(plan.block_depth(2), 1); // 9 = 2*4 + 1
    std::int64_t rows = 0, depth = 0;
    for (std::int64_t rb = 0; rb < plan.row_blocks(); ++rb)
        rows += plan.block_rows(rb);
    for (std::int64_t kb = 0; kb < plan.depth_blocks(); ++kb)
        depth += plan.block_depth(kb);
    EXPECT_EQ(rows, 17);
    EXPECT_EQ(depth, 9);
    EXPECT_EQ(plan.elems(), 5 * 3 * 16);
}

TEST(PanelPlan, TilesClampToTheMatrixAndKeyIsContentBased) {
    const PanelPlan small = kernels::make_panel_plan(3, 2, 16, 1024);
    EXPECT_EQ(small.tr, 3);
    EXPECT_EQ(small.tk, 2);
    EXPECT_EQ(small.row_blocks(), 1);
    EXPECT_EQ(small.depth_blocks(), 1);
    const PanelPlan a = kernels::make_panel_plan(8, 8, 4, 4);
    const PanelPlan b = kernels::make_panel_plan(8, 8, 4, 4);
    const PanelPlan c = kernels::make_panel_plan(8, 8, 2, 4);
    EXPECT_EQ(a.key(), b.key());
    EXPECT_NE(a.key(), c.key());
}

TEST(PanelPlan, ConvActPlanSplitsOnlyConvsWithFewerThanEightPositions) {
    // Batch-1 convs at 2x2 and 1x1: one-row blocks, each walking its box.
    EXPECT_EQ(kernels::make_conv_act_plan(4, 1152, 16, 64).tr, 1);
    EXPECT_EQ(kernels::make_conv_act_plan(1, 1152, 16, 64).tr, 1);
    // The rule reads the shape, not the tile: a 4-row tile keeps its
    // blocks, which at N >= 4 share one output location.
    EXPECT_EQ(kernels::make_conv_act_plan(256, 1152, 4, 64).tr, 4);
    EXPECT_EQ(kernels::make_conv_act_plan(16, 1152, 16, 64).tr, 16);
    EXPECT_EQ(kernels::make_conv_act_plan(8, 1152, 16, 64).tr, 8);
}

TEST(PanelPlan, ConvActPlanKeepsWholeSixteenRowGroups) {
    // A batch-1 conv at 6x6 or 7x7 under a 64-row tile: cut to its 36 or 49
    // positions, the plan keeps 48 or 64 rows, so 4-bit codes keep the
    // nibble sidecar; 16 positions or fewer, and a full tile, keep theirs.
    EXPECT_EQ(kernels::make_conv_act_plan(36, 576, 64, 1024).tr, 48);
    EXPECT_EQ(kernels::make_conv_act_plan(49, 576, 64, 1024).tr, 64);
    EXPECT_EQ(kernels::make_conv_act_plan(17, 576, 64, 1024).tr, 32);
    EXPECT_EQ(kernels::make_conv_act_plan(12, 576, 64, 1024).tr, 12);
    EXPECT_EQ(kernels::make_conv_act_plan(100, 576, 64, 1024).tr, 64);
    EXPECT_EQ(kernels::make_conv_act_plan(36, 576, 40, 1024).tr, 40);
    const tensor::ConvGeom geom{1, 8, 6, 6, 3, 1, 1};
    const PanelPlan plan = kernels::make_conv_act_plan(
        geom.positions(), geom.patch(), kernels::tune::kTileP, kernels::tune::kTileK);
    ASSERT_EQ(plan.row_blocks(), 1);
    ASSERT_EQ(plan.block_rows(0), 36);
    std::vector<std::uint8_t> x(static_cast<std::size_t>(8 * 6 * 6), 3);
    kernels::Workspace ws;
    const kernels::ActPanels panels =
        kernels::pack_im2col_panels_u8(x.data(), geom, 7, plan, ws, 4, 1);
    EXPECT_NE(panels.packed4, nullptr);
}

// ------------------------------------------------------- pack round trips --

TEST(PanelPack, RoundTripIsIdentityForAllPaddingConfigs) {
    util::Rng rng(7);
    struct Cfg {
        std::int64_t rows, depth, tr, tk;
    };
    // Exact fits, row rag only, depth rag only, both, single row/column,
    // tiles larger than the matrix, degenerate 1x1 tiles.
    const Cfg cfgs[] = {{8, 8, 4, 4},   {5, 7, 2, 3},  {16, 300, 16, 64},
                        {17, 9, 4, 4},  {1, 40, 4, 8}, {40, 1, 8, 1024},
                        {3, 2, 16, 64}, {9, 11, 1, 1}};
    for (const unsigned bits : {4u, 8u}) {
        for (const Cfg& cfg : cfgs) {
            const PanelPlan plan =
                kernels::make_panel_plan(cfg.rows, cfg.depth, cfg.tr, cfg.tk);
            const std::size_t n =
                static_cast<std::size_t>(cfg.rows * cfg.depth);
            std::vector<std::uint16_t> codes(n);
            for (auto& v : codes)
                v = static_cast<std::uint16_t>(rng.uniform_u64(1u << bits));

            Workspace ws;
            const WeightPanels w = kernels::pack_conv_weight_panels(
                codes.data(), bits, plan,
                kernels::matrix_geom(cfg.rows, cfg.depth), nullptr, 0, ws);
            std::vector<std::uint16_t> back(n, 0xffffu);
            kernels::unpack_weight_panels(w, bits, back.data());
            EXPECT_EQ(std::memcmp(codes.data(), back.data(),
                                  n * sizeof(std::uint16_t)),
                      0)
                << "weights bits=" << bits << " rows=" << cfg.rows
                << " depth=" << cfg.depth << " tr=" << cfg.tr
                << " tk=" << cfg.tk;

            const ActPanels x =
                kernels::pack_activation_panels(codes.data(), plan, ws);
            std::fill(back.begin(), back.end(), std::uint16_t{0xffffu});
            kernels::unpack_activation_panels(x, back.data());
            EXPECT_EQ(std::memcmp(codes.data(), back.data(),
                                  n * sizeof(std::uint16_t)),
                      0)
                << "acts rows=" << cfg.rows << " depth=" << cfg.depth
                << " tr=" << cfg.tr << " tk=" << cfg.tk;

            // The hoisted Eq. (8) headers must equal the row-major row sums.
            for (std::int64_t r = 0; r < cfg.rows; ++r) {
                std::int64_t want = 0;
                for (std::int64_t kk = 0; kk < cfg.depth; ++kk)
                    want += codes[static_cast<std::size_t>(r * cfg.depth + kk)];
                EXPECT_EQ(w.sum_w[r], want);
                EXPECT_EQ(x.sum_x[r], want);
            }
        }
    }
}

TEST(PanelPack, WeightCodesAreStoredPreShifted) {
    const PanelPlan plan = kernels::make_panel_plan(2, 2, 2, 2);
    const std::uint16_t codes[4] = {1, 2, 3, 4};
    Workspace ws;
    const WeightPanels w = kernels::pack_conv_weight_panels(
        codes, 8, plan, kernels::matrix_geom(2, 2), nullptr, 0, ws);
    // Panel slot (kk=0, rr=0) holds codes[0] << 8: `lut + slot` is the LUT
    // row base for weight code 1.
    EXPECT_EQ(w.codes[0], static_cast<std::uint32_t>(1) << 8);
    EXPECT_EQ(w.codes[1], static_cast<std::uint32_t>(3) << 8); // rr=1
    EXPECT_EQ(w.codes[2], static_cast<std::uint32_t>(2) << 8); // kk=1
}

TEST(PanelPack, OnlyPaddedConvWeightsCarryThePaddingConstant) {
    // A padded conv's panels carry pad_sum[o * K^2 + t], the sum over
    // channels of LUT[(w[o, c, t] << bits) | z_pad]; an unpadded conv and a
    // plain matrix never skip a tap, so the packer builds none for them.
    util::Rng rng(19);
    const auto lut = appmult::AppMultLut::exact(8);
    const std::int64_t o = 5, c = 3, taps = 9;
    std::vector<std::uint16_t> codes(static_cast<std::size_t>(o * c * taps));
    for (auto& v : codes) v = static_cast<std::uint16_t>(rng.uniform_u64(256));
    const PanelPlan plan = kernels::make_panel_plan(o, c * taps, 4, 16);
    const std::uint16_t z_pad = 37;
    Workspace ws;
    const auto pack = [&](const ConvGeom& g) {
        return kernels::pack_conv_weight_panels(codes.data(), 8, plan, g,
                                                lut.table().data(), z_pad, ws);
    };
    const WeightPanels padded = pack(ConvGeom{2, c, 6, 6, 3, 1, 1});
    ASSERT_NE(padded.pad_sum, nullptr);
    for (std::int64_t oo = 0; oo < o; ++oo)
        for (std::int64_t t = 0; t < taps; ++t) {
            std::int64_t want = 0;
            for (std::int64_t cc = 0; cc < c; ++cc)
                want += lut.table()[static_cast<std::size_t>(
                    (codes[static_cast<std::size_t>((oo * c + cc) * taps + t)] << 8) |
                    z_pad)];
            EXPECT_EQ(padded.pad_sum[oo * taps + t], want) << oo << " " << t;
        }
    EXPECT_EQ(pack(ConvGeom{2, c, 6, 6, 3, 1, 0}).pad_sum, nullptr);
    EXPECT_EQ(pack(kernels::matrix_geom(7, c * taps)).pad_sum, nullptr);
}

// ----------------------------------------------- kernels vs the oracle --

/// Random row-major GEMM operands for the naive oracle; the kernels read
/// the same codes, packed (lut_oracle::pack_blocked) or row-major.
struct BlockedRandom {
    appmult::AppMultLut lut;
    core::GradLut grad;
    std::vector<std::uint16_t> wq, xq;
    std::vector<float> gyp;
    std::vector<float> scale_per_o;
    std::vector<std::int32_t> zero_per_o;
    std::vector<std::uint8_t> w_ok, x_ok;
    LutGemmArgs args;

    BlockedRandom(unsigned bits, std::int64_t o, std::int64_t p, std::int64_t k,
                  bool per_channel, util::Rng& rng)
        : lut(appmult::AppMultLut::exact(bits)),
          grad(core::build_ste_grad(bits)) {
        wq.resize(static_cast<std::size_t>(o * k));
        xq.resize(static_cast<std::size_t>(p * k));
        gyp.resize(static_cast<std::size_t>(p * o));
        for (auto& v : wq)
            v = static_cast<std::uint16_t>(rng.uniform_u64(lut.domain()));
        for (auto& v : xq)
            v = static_cast<std::uint16_t>(rng.uniform_u64(lut.domain()));
        // Mix zeros into gyp so the skip path (and its compaction) is hit.
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
        args.scale_w = 0.017f;
        args.scale_x = 0.031f;
        args.zero_w = static_cast<std::int32_t>(rng.uniform_u64(1u << bits));
        args.zero_x = static_cast<std::int32_t>(rng.uniform_u64(1u << bits));
        if (per_channel) {
            scale_per_o.resize(static_cast<std::size_t>(o));
            zero_per_o.resize(static_cast<std::size_t>(o));
            for (std::int64_t i = 0; i < o; ++i) {
                scale_per_o[static_cast<std::size_t>(i)] =
                    0.005f + 0.01f * static_cast<float>(rng.normal());
                zero_per_o[static_cast<std::size_t>(i)] =
                    static_cast<std::int32_t>(rng.uniform_u64(1u << bits));
            }
            args.scale_w_per_o = scale_per_o.data();
            args.zero_w_per_o = zero_per_o.data();
        }
        lut_oracle::draw_masks(args, rng, w_ok, x_ok);
    }
};

struct GemmShape {
    std::int64_t o, p, k;
};

// Odd shapes the panel rag must survive: K=1, O=1, P=1, P not a tile
// multiple, and a bulk shape.
constexpr GemmShape kShapes[] = {
    {1, 5, 1}, {7, 1, 40}, {17, 33, 120}, {3, 129, 9}, {32, 40, 300}};

constexpr struct {
    std::int64_t tp, to, tk;
} kPanelTiles[] = {{16, 64, 1024}, {2, 3, 5}, {1, 1, 1}, {8, 4, 7}};

TEST(BlockedKernels, ForwardMatchesScalarOracleBitwise) {
    util::Rng rng(91);
    for (const unsigned bits : {4u, 8u}) {
        for (const GemmShape& sh : kShapes) {
            const bool per_channel = (sh.o % 2) == 1;
            const BlockedRandom g(bits, sh.o, sh.p, sh.k, per_channel, rng);
            std::vector<float> bias(static_cast<std::size_t>(sh.o));
            for (auto& v : bias) v = static_cast<float>(rng.normal());

            std::vector<float> ref(static_cast<std::size_t>(sh.p * sh.o));
            lut_oracle::naive_forward(g.args, bias.data(), ref.data());

            Workspace ws;
            std::vector<float> y(ref.size());
            for (const auto& t : kPanelTiles) {
                ws.reset();
                const LutGemmArgs b =
                    lut_oracle::pack_blocked(g.args, t.tp, t.to, t.tk, ws);
                std::fill(y.begin(), y.end(), -1.0f);
                kernels::lut_forward_blocked(b, bias.data(), y.data());
                ASSERT_EQ(std::memcmp(y.data(), ref.data(),
                                      y.size() * sizeof(float)),
                          0)
                    << "bits=" << bits << " o=" << sh.o << " p=" << sh.p
                    << " k=" << sh.k << " tiles=(" << t.tp << "," << t.to
                    << "," << t.tk << ")";
            }
        }
    }
}

TEST(BlockedKernels, BackwardMatchesScalarOracleBitwise) {
    // The backward needs no panels: it reads the row-major codes and the
    // transposed dX table, and must memcmp-match the oracle, masks and the
    // s_x fold included.
    util::Rng rng(92);
    for (const unsigned bits : {4u, 8u}) {
        for (const GemmShape& sh : kShapes) {
            const bool per_channel = (sh.p % 2) == 1;
            const BlockedRandom g(bits, sh.o, sh.p, sh.k, per_channel, rng);
            const std::size_t nw = static_cast<std::size_t>(sh.o * sh.k);
            const std::size_t nx = static_cast<std::size_t>(sh.p * sh.k);

            std::vector<float> gw_ref(nw, 0.0f), gx_ref(nx, 0.0f);
            lut_oracle::naive_backward(g.args, g.gyp.data(),
                                       g.grad.dw_table().data(),
                                       g.grad.dx_table().data(), gw_ref.data(),
                                       gx_ref.data());

            Workspace ws;
            std::vector<float> gw(nw, 0.0f), gx(nx, 0.0f);
            kernels::lut_backward_rows(g.args, g.gyp.data(),
                                       g.grad.dw_table().data(),
                                       g.grad.dx_t_table().data(), gw.data(),
                                       gx.data(), ws);
            ASSERT_EQ(std::memcmp(gw.data(), gw_ref.data(),
                                  nw * sizeof(float)),
                      0)
                << "gw bits=" << bits << " o=" << sh.o << " p=" << sh.p
                << " k=" << sh.k;
            ASSERT_EQ(std::memcmp(gx.data(), gx_ref.data(),
                                  nx * sizeof(float)),
                      0)
                << "gx bits=" << bits << " o=" << sh.o << " p=" << sh.p
                << " k=" << sh.k;
        }
    }
}

// -------------------------------------------------- fused im2col packing --

/// Reference panels of a conv's im2col matrix \p cols (positions x patch,
/// rows (n, oy, ox), depth (c, ky, kx)), written out here rather than taken
/// from a packer: rows renumbered location-major, r = (oy * OW + ox) * N + n,
/// depth tap-major, d = (ky * K + kx) * C + c, then interleaved into
/// (tr x tk) panels at slot (rb * kb_n + kb) * tr * tk + kk * tr + rr, with
/// zero pad slots. `sums` is each panel row's code sum.
struct PanelImage {
    std::vector<std::uint16_t> codes;
    std::vector<std::int64_t> sums;
    std::vector<std::size_t> src; ///< im2col index of each panel-order element
};

template <typename Code>
PanelImage conv_panel_image(const std::vector<Code>& cols, const ConvGeom& g,
                            const PanelPlan& plan) {
    const std::int64_t spatial = g.out_h() * g.out_w();
    const std::int64_t taps = g.kernel * g.kernel;
    const std::int64_t rows = g.positions(), depth = g.patch();
    const std::int64_t kb_n = (depth + plan.tk - 1) / plan.tk;
    const std::int64_t rb_n = (rows + plan.tr - 1) / plan.tr;
    PanelImage img;
    img.codes.assign(static_cast<std::size_t>(rb_n * kb_n * plan.tr * plan.tk), 0);
    img.sums.assign(static_cast<std::size_t>(rows), 0);
    img.src.resize(static_cast<std::size_t>(rows * depth));
    for (std::int64_t r = 0; r < rows; ++r) {
        const std::int64_t n = r % g.batch, s = r / g.batch;
        for (std::int64_t d = 0; d < depth; ++d) {
            const std::int64_t t = d / g.in_ch, c = d % g.in_ch;
            const std::size_t from =
                static_cast<std::size_t>((n * spatial + s) * depth + c * taps + t);
            const auto code = static_cast<std::uint16_t>(cols[from]);
            img.src[static_cast<std::size_t>(r * depth + d)] = from;
            img.codes[static_cast<std::size_t>(
                ((r / plan.tr) * kb_n + d / plan.tk) * plan.tr * plan.tk +
                (d % plan.tk) * plan.tr + r % plan.tr)] = code;
            img.sums[static_cast<std::size_t>(r)] += code;
        }
    }
    return img;
}

TEST(FusedIm2col, U8PanelsMatchUnfusedIm2colPlusPack) {
    util::Rng rng(17);
    const ConvGeom geoms[] = {
        {2, 3, 8, 8, 3, 1, 1},  // same-pad 3x3
        {1, 4, 7, 5, 3, 2, 0},  // strided valid
        {3, 1, 6, 6, 2, 2, 1},  // even kernel, odd rag
    };
    for (const ConvGeom& geom : geoms) {
        const std::size_t img =
            static_cast<std::size_t>(geom.batch * geom.in_ch * geom.in_h *
                                     geom.in_w);
        std::vector<std::uint8_t> x(img);
        for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_u64(256));
        const std::uint16_t zp =
            static_cast<std::uint16_t>(rng.uniform_u64(256));
        const PanelPlan plan = kernels::make_panel_plan(
            geom.positions(), geom.patch(), 16, 64);

        // Reference: full im2col_u8 buffer, permuted and interleaved by hand.
        Workspace ws;
        std::vector<std::uint16_t> cols(
            static_cast<std::size_t>(geom.positions() * geom.patch()));
        kernels::im2col_u8(x.data(), geom, zp, cols.data());
        const PanelImage want = conv_panel_image(cols, geom, plan);
        ASSERT_EQ(static_cast<std::int64_t>(want.codes.size()), plan.elems());

        // Any chunking gives the same panels: one block per chunk, two, and
        // one chunk for all blocks.
        for (const std::int64_t grain : {std::int64_t{1}, std::int64_t{2},
                                         plan.row_blocks()}) {
            const ActPanels got = kernels::pack_im2col_panels_u8(
                x.data(), geom, zp, plan, ws, 8, grain);
            ASSERT_EQ(std::memcmp(got.codes, want.codes.data(),
                                  static_cast<std::size_t>(plan.elems()) *
                                      sizeof(std::uint16_t)),
                      0);
            ASSERT_EQ(std::memcmp(got.sum_x, want.sums.data(),
                                  static_cast<std::size_t>(plan.rows) *
                                      sizeof(std::int64_t)),
                      0);
        }

    }
}

TEST(FusedIm2col, QuantizePanelsMatchUnfusedFloatPath) {
    util::Rng rng(18);
    // Interior and border windows: same-pad, strided, strided valid, even
    // kernel with an odd rag, and a window wider than the padding.
    const ConvGeom geoms[] = {
        {2, 3, 9, 7, 3, 1, 1},
        {2, 2, 9, 7, 3, 2, 1},
        {1, 4, 7, 5, 3, 2, 0},
        {3, 1, 6, 6, 2, 2, 1},
        {1, 2, 7, 9, 5, 1, 2},
    };
    const quant::QuantParams params = quant::choose_params(-2.5f, 2.5f, 8);
    for (const ConvGeom& geom : geoms) {
        const std::size_t img = static_cast<std::size_t>(
            geom.batch * geom.in_ch * geom.in_h * geom.in_w);
        std::vector<float> x(img);
        for (auto& v : x) v = static_cast<float>(rng.normal());
        const std::int64_t positions = geom.positions(), patch = geom.patch();
        const PanelPlan plan = kernels::make_panel_plan(positions, patch, 8, 16);

        // Reference: unfused float im2col, the row-major quantizer for the
        // codes and masks in im2col order, and the hand-written panel image
        // of the quantized columns.
        Workspace ws;
        std::vector<float> cols(static_cast<std::size_t>(positions * patch));
        kernels::im2col(x.data(), geom, cols.data());
        const kernels::QuantView want_rows = kernels::quantize_into(
            cols.data(), positions * patch, params, ws);
        std::vector<std::uint16_t> qcols(cols.size());
        for (std::size_t i = 0; i < cols.size(); ++i)
            qcols[i] = static_cast<std::uint16_t>(params.quantize(cols[i]));
        const PanelImage want = conv_panel_image(qcols, geom, plan);

        // Any chunking gives the same panels, codes and masks: one block per
        // chunk, two, and one chunk for all blocks.
        for (const std::int64_t grain : {std::int64_t{1}, std::int64_t{2},
                                         plan.row_blocks()}) {
            const kernels::QuantPanels got =
                kernels::quantize_conv_panels(x.data(), geom, params, plan, grain, ws);

            EXPECT_EQ(std::memcmp(got.panels.codes, want.codes.data(),
                                  static_cast<std::size_t>(plan.elems()) *
                                      sizeof(std::uint16_t)),
                      0);
            EXPECT_EQ(std::memcmp(got.panels.sum_x, want.sums.data(),
                                  static_cast<std::size_t>(plan.rows) *
                                      sizeof(std::int64_t)),
                      0);
            // And the codes really are the quantized column matrix: in panel
            // order in the panels, in im2col order in the reference copy, and
            // in the packer's row-major copy and mask with the rows kept and
            // the depth tap-major: element d = (ky * K + kx) * C + c of a row
            // is im2col column c * K * K + ky * K + kx.
            std::vector<std::uint16_t> back(cols.size());
            kernels::unpack_activation_panels(got.panels, back.data());
            const std::int64_t taps = geom.kernel * geom.kernel;
            for (std::size_t i = 0; i < cols.size(); ++i) {
                ASSERT_EQ(back[i], qcols[want.src[i]]);
                ASSERT_EQ(want_rows.codes[i], qcols[i]);
                const std::int64_t p = static_cast<std::int64_t>(i) / patch;
                const std::int64_t d = static_cast<std::int64_t>(i) % patch;
                const std::size_t col = static_cast<std::size_t>(
                    p * patch + (d % geom.in_ch) * taps + d / geom.in_ch);
                ASSERT_EQ(got.rows.codes[i], qcols[col]) << "row " << p << " depth " << d;
                ASSERT_EQ(got.rows.in_range[i], want_rows.in_range[col])
                    << "row " << p << " depth " << d;
            }
        }
    }
}

TEST(FusedIm2col, QuantizePanelsWriteZeroXAtEveryOutOfImageTap) {
    // lut_backward_rows reads each out-of-image tap of the row codes as the
    // pad code zero_x, the int32 zero point GemmLayer hands it: the packer
    // must write exactly that code there, whatever the range and width.
    util::Rng rng(19);
    const ConvGeom geoms[] = {
        {2, 3, 5, 6, 3, 1, 1}, {1, 2, 7, 9, 5, 1, 2}, {2, 4, 2, 2, 3, 1, 1},
        {3, 2, 1, 1, 3, 1, 1}, {2, 3, 7, 6, 3, 2, 1},
    };
    for (const quant::QuantParams& params :
         {quant::choose_params(-1.0f, 3.0f, 8), quant::choose_params(-2.5f, 0.5f, 8),
          quant::choose_params(-0.7f, 1.9f, 4)}) {
        const auto zero_x = static_cast<std::int32_t>(params.zero_point);
        for (const ConvGeom& geom : geoms) {
            std::vector<float> x(static_cast<std::size_t>(
                geom.batch * geom.in_ch * geom.in_h * geom.in_w));
            for (auto& v : x) v = 2.0f + static_cast<float>(rng.normal());
            const PanelPlan plan = kernels::make_conv_act_plan(
                geom.positions(), geom.patch(), 16, 64);
            Workspace ws;
            const kernels::QuantPanels got =
                kernels::quantize_conv_panels(x.data(), geom, params, plan, 1, ws);
            std::int64_t padding = 0;
            for (std::int64_t p = 0; p < geom.positions(); ++p)
                for (std::int64_t d = 0; d < geom.patch(); ++d) {
                    if (lut_oracle::tap_in_image(geom, p, d)) continue;
                    ++padding;
                    const std::int64_t i = p * geom.patch() + d;
                    ASSERT_EQ(got.rows.codes[i], zero_x) << "row " << p << " depth " << d;
                    ASSERT_EQ(got.rows.in_range[i], 1) << "row " << p << " depth " << d;
                }
            EXPECT_GT(padding, 0);
        }
    }
}

// ------------------------------------------------ plan-keyed workspace ----

TEST(WorkspacePlans, TrimKeepsTheHotPlanWorkingSet) {
    Workspace ws;
    // Hot model: ~1 MiB epoch under plan key 1.
    ws.begin(1);
    ws.alloc<float>(1 << 18);
    const std::size_t hot = ws.used();
    // Cold model: small epoch under plan key 2.
    ws.begin(2);
    ws.alloc<float>(1 << 10);
    // Idle trim with a low-water mark far below the hot working set: the
    // per-plan high water must win, keeping enough capacity for the hot
    // model's next batch.
    ws.trim(std::size_t{1} << 12);
    EXPECT_GE(ws.plan_high_water(), hot);
    EXPECT_GE(ws.capacity(), hot);
    // The hot model's next epoch fits without regrowing.
    const std::size_t cap = ws.capacity();
    ws.begin(1);
    ws.alloc<float>(1 << 18);
    EXPECT_EQ(ws.capacity(), cap);
    EXPECT_EQ(ws.slab_count(), 1u);
}

TEST(WorkspacePlans, UntrackedTrimKeepsLegacySemantics) {
    Workspace ws;
    for (int round = 0; round < 8; ++round) ws.alloc<float>(1 << 16);
    ws.reset();
    // No begin() calls: plan_high_water() is 0 and trim is exact, as before.
    EXPECT_EQ(ws.plan_high_water(), 0u);
    ws.trim(std::size_t{1} << 16);
    EXPECT_EQ(ws.capacity(), std::size_t{1} << 16);
}

TEST(WorkspacePlans, MidEpochRegrowBumpsTheObsCounter) {
#if defined(AMRET_OBS_DISABLED)
    GTEST_SKIP() << "obs instrumentation compiled out";
#endif
    obs::Counter& regrows = obs::counter("kernels.workspace.regrow");
    Workspace ws;
    ws.alloc<float>(16); // first slab
    const std::int64_t before = regrows.value();
    ws.alloc<float>(1 << 20); // cannot fit: chains a slab mid-epoch
    EXPECT_GE(regrows.value(), before + 1);
    // Steady state after reset: no further regrowth events.
    ws.reset();
    const std::int64_t steady = regrows.value();
    ws.alloc<float>(16);
    ws.alloc<float>(1 << 20);
    EXPECT_EQ(regrows.value(), steady);
}

// ------------------------------------------------------- engine panels --

struct EngineFixture {
    std::unique_ptr<nn::Sequential> model;
    data::DatasetPair data;
};

// Small untrained LeNet + synthetic data: the engine's bitwise contract does
// not depend on accuracy, only on the compiled integer parameters.
EngineFixture make_engine_fixture() {
    EngineFixture out;
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 8;
    dc.train_samples = 64;
    dc.test_samples = 32;
    dc.seed = 99;
    out.data = data::make_synthetic(dc);

    models::ModelConfig mc;
    mc.in_size = 8;
    mc.num_classes = 4;
    mc.width_mult = 0.5f;
    out.model = train::make_model("lenet", mc);

    auto& reg = appmult::Registry::instance();
    approx::MultiplierConfig config;
    config.lut = std::make_shared<appmult::AppMultLut>(reg.lut("mul8u_acc"));
    config.grad =
        std::make_shared<core::GradLut>(core::build_ste_grad(8));
    approx::configure_approx_layers(*out.model, config,
                                    approx::ComputeMode::kQuantized);
    out.model->set_training(false);
    return out;
}

bool has_check(const analysis::Certificate& cert, const char* name) {
    for (const auto& d : cert.diags)
        if (d.check == name) return true;
    return false;
}

TEST(EngineLayout, AnalyzerCrossChecksThePanelPacking) {
    EngineFixture fx = make_engine_fixture();
    approx::IntInferenceEngine engine(*fx.model, fx.data.train, 48,
                                      approx::SafetyPolicy::kOff);

    analysis::GraphDesc desc = engine.describe();
    std::size_t conv_i = desc.ops.size();
    for (std::size_t i = 0; i < desc.ops.size(); ++i)
        if (desc.ops[i].kind == analysis::OpDesc::Kind::kConv) {
            conv_i = i;
            break;
        }
    ASSERT_LT(conv_i, desc.ops.size());
    analysis::ConvOpDesc& conv = desc.ops[conv_i].conv;
    ASSERT_FALSE(conv.wq_panels.empty());
    ASSERT_GT(conv.panel_tr, 0);
    ASSERT_GT(conv.panel_tk, 0);
    ASSERT_EQ(conv.panel_taps, 25); // LeNet's 5x5 convs: tap-major panels
    ASSERT_EQ(conv.pad_sum.size(),
              static_cast<std::size_t>(conv.out_ch * conv.panel_taps));
    EXPECT_TRUE(analysis::analyze_graph(desc).safe);

    // Panels are derived data: stripping them must not change the content
    // digest (engines that differ only in blocking share a certificate).
    analysis::GraphDesc stripped = desc;
    for (auto& op : stripped.ops) {
        op.conv.wq_panels.clear();
        op.conv.pad_sum.clear();
        op.conv.panel_tr = op.conv.panel_tk = 0;
        op.conv.panel_taps = 1;
    }
    EXPECT_EQ(analysis::digest(desc), analysis::digest(stripped));

    // Panels read in the im2col depth order (taps = 1) do not match the
    // tap-major packing.
    {
        analysis::GraphDesc bad = desc;
        bad.ops[conv_i].conv.panel_taps = 1;
        const analysis::Certificate cert = analysis::analyze_graph(bad);
        EXPECT_FALSE(cert.safe);
        EXPECT_TRUE(has_check(cert, "panel-pack-mismatch"));
    }
    // A padding constant that disagrees with wq, the LUT and the input zero
    // point is caught by the recomputation, as is a missing one.
    {
        analysis::GraphDesc bad = desc;
        bad.ops[conv_i].conv.pad_sum.back() += 1;
        const analysis::Certificate cert = analysis::analyze_graph(bad);
        EXPECT_FALSE(cert.safe);
        EXPECT_TRUE(has_check(cert, "pad-sum-mismatch"));
    }
    {
        analysis::GraphDesc bad = desc;
        bad.ops[conv_i].conv.zero_x += 1;
        EXPECT_TRUE(has_check(analysis::analyze_graph(bad), "pad-sum-mismatch"));
        bad = desc;
        bad.ops[conv_i].conv.pad_sum.clear();
        EXPECT_TRUE(has_check(analysis::analyze_graph(bad), "pad-sum-mismatch"));
    }

    // A corrupted packed code is caught by the independent re-derivation.
    {
        analysis::GraphDesc bad = desc;
        bad.ops[conv_i].conv.wq_panels[0] ^= // invariant-ok: deliberate corruption
            1u << bad.ops[conv_i].conv.bits;
        const analysis::Certificate cert = analysis::analyze_graph(bad);
        EXPECT_FALSE(cert.safe);
        EXPECT_TRUE(has_check(cert, "panel-pack-mismatch"));
    }
    // A header that disagrees with the packed codes is caught too.
    {
        analysis::GraphDesc bad = desc;
        bad.ops[conv_i].conv.sum_w[0] += 1;
        const analysis::Certificate cert = analysis::analyze_graph(bad);
        EXPECT_FALSE(cert.safe);
        EXPECT_TRUE(has_check(cert, "panel-sum-mismatch"));
    }
    // Panel codes without valid tile dims are a malformed description.
    {
        analysis::GraphDesc bad = desc;
        bad.ops[conv_i].conv.panel_tr = 0;
        const analysis::Certificate cert = analysis::analyze_graph(bad);
        EXPECT_FALSE(cert.safe);
        EXPECT_TRUE(has_check(cert, "desc-inconsistent"));
    }
}

} // namespace
