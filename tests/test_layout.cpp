// Tests for the blocked (panelized) kernel layouts of PR 8: pack/unpack
// round trips over every ragged-edge configuration, bitwise identity of the
// blocked LUT-GEMM kernels against the scalar oracle (memcmp, not
// approximate), fused im2col panel production against the unfused
// im2col + pack reference, the plan-keyed workspace high-water tracking,
// and the runtime Tuning / LayoutMode resolution. Registered at
// AMRET_THREADS=1 and 8 in CMakeLists.txt: the blocked kernels share the
// runtime determinism contract, so every memcmp here is thread-count
// independent.
#include "amret.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

namespace {

using namespace amret;
using kernels::ActPanels;
using kernels::ActivationLayout;
using kernels::BlockedGemmArgs;
using kernels::LutGemmArgs;
using kernels::PanelPlan;
using kernels::TileConfig;
using kernels::Tuning;
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
    // The rule reads the shape, not the tile: a tuned 4-row tile keeps its
    // blocks, which at N >= 4 share one output location.
    EXPECT_EQ(kernels::make_conv_act_plan(256, 1152, 4, 64).tr, 4);
    EXPECT_EQ(kernels::make_conv_act_plan(16, 1152, 16, 64).tr, 16);
    EXPECT_EQ(kernels::make_conv_act_plan(8, 1152, 16, 64).tr, 8);
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
            const WeightPanels w =
                kernels::pack_weight_panels(codes.data(), bits, plan, ws);
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
    const WeightPanels w = kernels::pack_weight_panels(codes, 8, plan, ws);
    // Panel slot (kk=0, rr=0) holds codes[0] << 8: `lut + slot` is the LUT
    // row base for weight code 1.
    EXPECT_EQ(w.codes[0], static_cast<std::uint32_t>(1) << 8);
    EXPECT_EQ(w.codes[1], static_cast<std::uint32_t>(3) << 8); // rr=1
    EXPECT_EQ(w.codes[2], static_cast<std::uint32_t>(2) << 8); // kk=1
}

// ----------------------------------------- blocked kernels vs the oracle --

/// Random GEMM operands shared by the scalar oracle and the blocked path.
struct BlockedRandom {
    appmult::AppMultLut lut;
    core::GradLut grad;
    std::vector<std::uint16_t> wq, xq;
    std::vector<float> gyp;
    std::vector<float> scale_per_o;
    std::vector<std::int32_t> zero_per_o;
    LutGemmArgs scalar;

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
        scalar.bits = bits;
        scalar.lut = lut.table().data();
        scalar.wq = wq.data();
        scalar.xq = xq.data();
        scalar.o = o;
        scalar.p = p;
        scalar.k = k;
        scalar.scale_w = 0.017f;
        scalar.scale_x = 0.031f;
        scalar.zero_w = static_cast<std::int32_t>(rng.uniform_u64(1u << bits));
        scalar.zero_x = static_cast<std::int32_t>(rng.uniform_u64(1u << bits));
        if (per_channel) {
            scale_per_o.resize(static_cast<std::size_t>(o));
            zero_per_o.resize(static_cast<std::size_t>(o));
            for (std::int64_t i = 0; i < o; ++i) {
                scale_per_o[static_cast<std::size_t>(i)] =
                    0.005f + 0.01f * static_cast<float>(rng.normal());
                zero_per_o[static_cast<std::size_t>(i)] =
                    static_cast<std::int32_t>(rng.uniform_u64(1u << bits));
            }
            scalar.scale_w_per_o = scale_per_o.data();
            scalar.zero_w_per_o = zero_per_o.data();
        }
    }

    /// Packs both operands under (tp, to, tk) and mirrors the scalar args.
    BlockedGemmArgs blocked(std::int64_t tp, std::int64_t to, std::int64_t tk,
                            Workspace& ws) const {
        BlockedGemmArgs b;
        b.bits = scalar.bits;
        b.lut = scalar.lut;
        b.w = kernels::pack_weight_panels(
            wq.data(), scalar.bits,
            kernels::make_panel_plan(scalar.o, scalar.k, to, tk), ws);
        b.x = kernels::pack_activation_panels(
            xq.data(), kernels::make_panel_plan(scalar.p, scalar.k, tp, tk),
            ws);
        b.o = scalar.o;
        b.p = scalar.p;
        b.k = scalar.k;
        b.scale_w = scalar.scale_w;
        b.scale_x = scalar.scale_x;
        b.zero_w = scalar.zero_w;
        b.zero_x = scalar.zero_x;
        b.scale_w_per_o = scalar.scale_w_per_o;
        b.zero_w_per_o = scalar.zero_w_per_o;
        return b;
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

            Workspace ws;
            std::vector<float> ref(static_cast<std::size_t>(sh.p * sh.o));
            kernels::lut_forward(g.scalar, bias.data(), ref.data(), ws);

            std::vector<float> y(ref.size());
            for (const auto& t : kPanelTiles) {
                ws.reset();
                const BlockedGemmArgs b = g.blocked(t.tp, t.to, t.tk, ws);
                std::fill(y.begin(), y.end(), -1.0f);
                kernels::lut_forward_blocked(b, bias.data(), y.data(), ws);
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
    // The blocked layout's backward needs no panels: it reads the row-major
    // codes and the transposed dX table, and must memcmp-match the oracle.
    util::Rng rng(92);
    for (const unsigned bits : {4u, 8u}) {
        for (const GemmShape& sh : kShapes) {
            const bool per_channel = (sh.p % 2) == 1;
            const BlockedRandom g(bits, sh.o, sh.p, sh.k, per_channel, rng);
            const std::size_t nw = static_cast<std::size_t>(sh.o * sh.k);
            const std::size_t nx = static_cast<std::size_t>(sh.p * sh.k);

            std::vector<float> gw_ref(nw, 0.0f), gx_ref(nx, 0.0f);
            kernels::lut_backward(g.scalar, g.gyp.data(),
                                  g.grad.dw_table().data(),
                                  g.grad.dx_table().data(), gw_ref.data(),
                                  gx_ref.data());

            Workspace ws;
            std::vector<float> gw(nw, 0.0f), gx(nx, 0.0f);
            kernels::lut_backward_rows(g.scalar, g.gyp.data(),
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
                x.data(), geom, ActivationLayout::kNCHW, zp, plan, ws, 8, grain);
            ASSERT_EQ(std::memcmp(got.codes, want.codes.data(),
                                  static_cast<std::size_t>(plan.elems()) *
                                      sizeof(std::uint16_t)),
                      0);
            ASSERT_EQ(std::memcmp(got.sum_x, want.sums.data(),
                                  static_cast<std::size_t>(plan.rows) *
                                      sizeof(std::int64_t)),
                      0);
        }

        // NHWC interleave of the same image produces the same panels.
        std::vector<std::uint8_t> nhwc(img);
        for (std::int64_t n = 0; n < geom.batch; ++n)
            for (std::int64_t c = 0; c < geom.in_ch; ++c)
                for (std::int64_t yy = 0; yy < geom.in_h; ++yy)
                    for (std::int64_t xx = 0; xx < geom.in_w; ++xx)
                        nhwc[static_cast<std::size_t>(
                            ((n * geom.in_h + yy) * geom.in_w + xx) *
                                geom.in_ch +
                            c)] =
                            x[static_cast<std::size_t>(
                                ((n * geom.in_ch + c) * geom.in_h + yy) *
                                    geom.in_w +
                                xx)];
        const ActPanels got_nhwc = kernels::pack_im2col_panels_u8(
            nhwc.data(), geom, ActivationLayout::kNHWC, zp, plan, ws, 8, 1);
        ASSERT_EQ(std::memcmp(got_nhwc.codes, want.codes.data(),
                              static_cast<std::size_t>(plan.elems()) *
                                  sizeof(std::uint16_t)),
                  0);
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
        // row-major copies and masks, and the hand-written panel image of
        // the quantized columns.
        Workspace ws;
        std::vector<float> cols(static_cast<std::size_t>(positions * patch));
        kernels::im2col(x.data(), geom, cols.data());
        std::vector<std::uint8_t> mask_want(cols.size(), 2);
        std::vector<std::uint16_t> rows_want(cols.size(), 2);
        kernels::quantize_into_panels(cols.data(), params, plan,
                                      mask_want.data(), rows_want.data(), ws);
        std::vector<std::uint16_t> qcols(cols.size());
        for (std::size_t i = 0; i < cols.size(); ++i)
            qcols[i] = static_cast<std::uint16_t>(params.quantize(cols[i]));
        const PanelImage want = conv_panel_image(qcols, geom, plan);

        std::vector<std::uint8_t> mask_got(cols.size(), 3);
        std::vector<std::uint16_t> rows_got(cols.size(), 3);
        const ActPanels got = kernels::quantize_im2col_panels(
            x.data(), geom, params, plan, mask_got.data(), rows_got.data(), ws);

        EXPECT_EQ(std::memcmp(got.codes, want.codes.data(),
                              static_cast<std::size_t>(plan.elems()) *
                                  sizeof(std::uint16_t)),
                  0);
        EXPECT_EQ(std::memcmp(got.sum_x, want.sums.data(),
                              static_cast<std::size_t>(plan.rows) *
                                  sizeof(std::int64_t)),
                  0);
        EXPECT_EQ(std::memcmp(mask_got.data(), mask_want.data(), mask_want.size()),
                  0);
        // And the codes really are the quantized column matrix: in panel
        // order in the panels, in im2col order in both row-major copies.
        std::vector<std::uint16_t> back(cols.size());
        kernels::unpack_activation_panels(got, back.data());
        for (std::size_t i = 0; i < cols.size(); ++i) {
            ASSERT_EQ(back[i], qcols[want.src[i]]);
            ASSERT_EQ(rows_got[i], qcols[i]);
            ASSERT_EQ(rows_want[i], qcols[i]);
        }
    }
}

// --------------------------------------- layer-level scalar vs blocked ---

struct LayerRun {
    tensor::Tensor y, gx, gw, gb;
};

LayerRun run_conv(kernels::LayoutMode mode, bool per_channel, std::int64_t pad,
                  const tensor::Tensor& x, const tensor::Tensor& gy) {
    kernels::set_layout_mode(mode);
    util::Rng rng(21); // identical weights for both runs
    nn::Context ctx;
    approx::ApproxConv2d conv(3, 5, 3, 2, pad, rng);
    conv.set_multiplier(approx::MultiplierConfig::exact_ste(8));
    conv.set_mode(approx::ComputeMode::kQuantized);
    conv.set_per_channel_weights(per_channel);
    conv.set_training(true);
    LayerRun run;
    run.y = conv.forward(x, ctx);
    conv.zero_grad();
    run.gx = conv.backward(gy, ctx);
    run.gw = conv.weight.grad;
    run.gb = conv.bias.grad;
    kernels::clear_layout_mode_override();
    return run;
}

TEST(LayerLayout, QuantizedConvIsBitwiseIdenticalAcrossLayouts) {
    util::Rng rng(77);
    // 7x9 input under stride 2: odd output extent, position count not a
    // multiple of any default tile.
    const tensor::Tensor x = tensor::Tensor::randn(Shape{2, 3, 7, 9}, rng);
    // pad 0: an unpadded conv packs no padding constant.
    for (const auto& [per_channel, pad] :
         {std::pair{false, 1}, std::pair{true, 1}, std::pair{false, 0}}) {
        kernels::set_layout_mode(kernels::LayoutMode::kScalar);
        util::Rng wrng(21);
        nn::Context shape_ctx;
        approx::ApproxConv2d shape_conv(3, 5, 3, 2, pad, wrng);
        shape_conv.set_multiplier(approx::MultiplierConfig::exact_ste(8));
        shape_conv.set_mode(approx::ComputeMode::kQuantized);
        const tensor::Tensor y0 = shape_conv.forward(x, shape_ctx);
        kernels::clear_layout_mode_override();
        const tensor::Tensor gy = tensor::Tensor::randn(y0.shape(), rng);

        const LayerRun scalar =
            run_conv(kernels::LayoutMode::kScalar, per_channel, pad, x, gy);
        for (const auto mode : {kernels::LayoutMode::kBlocked,
                                kernels::LayoutMode::kBlockedNhwc}) {
            const LayerRun blocked = run_conv(mode, per_channel, pad, x, gy);
            ASSERT_EQ(std::memcmp(blocked.y.data(), scalar.y.data(),
                                  static_cast<std::size_t>(scalar.y.numel()) *
                                      sizeof(float)),
                      0)
                << "forward per_channel=" << per_channel << " pad=" << pad;
            ASSERT_EQ(std::memcmp(blocked.gx.data(), scalar.gx.data(),
                                  static_cast<std::size_t>(scalar.gx.numel()) *
                                      sizeof(float)),
                      0)
                << "gx per_channel=" << per_channel << " pad=" << pad;
            ASSERT_EQ(std::memcmp(blocked.gw.data(), scalar.gw.data(),
                                  static_cast<std::size_t>(scalar.gw.numel()) *
                                      sizeof(float)),
                      0)
                << "gw per_channel=" << per_channel << " pad=" << pad;
            ASSERT_EQ(std::memcmp(blocked.gb.data(), scalar.gb.data(),
                                  static_cast<std::size_t>(scalar.gb.numel()) *
                                      sizeof(float)),
                      0)
                << "gb per_channel=" << per_channel << " pad=" << pad;
        }
    }
}

TEST(LayerLayout, QuantizedLinearIsBitwiseIdenticalAcrossLayouts) {
    util::Rng rng(78);
    const tensor::Tensor x = tensor::Tensor::randn(Shape{9, 37}, rng);
    const tensor::Tensor gy = tensor::Tensor::randn(Shape{9, 11}, rng);
    auto run = [&](kernels::LayoutMode mode) {
        kernels::set_layout_mode(mode);
        util::Rng wrng(33);
        nn::Context ctx;
        approx::ApproxLinear lin(37, 11, wrng);
        lin.set_multiplier(approx::MultiplierConfig::exact_ste(8));
        lin.set_mode(approx::ComputeMode::kQuantized);
        lin.set_training(true);
        LayerRun r;
        r.y = lin.forward(x, ctx);
        lin.zero_grad();
        r.gx = lin.backward(gy, ctx);
        r.gw = lin.weight.grad;
        r.gb = lin.bias.grad;
        kernels::clear_layout_mode_override();
        return r;
    };
    const LayerRun scalar = run(kernels::LayoutMode::kScalar);
    const LayerRun blocked = run(kernels::LayoutMode::kBlocked);
    EXPECT_EQ(std::memcmp(blocked.y.data(), scalar.y.data(),
                          static_cast<std::size_t>(scalar.y.numel()) *
                              sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(blocked.gx.data(), scalar.gx.data(),
                          static_cast<std::size_t>(scalar.gx.numel()) *
                              sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(blocked.gw.data(), scalar.gw.data(),
                          static_cast<std::size_t>(scalar.gw.numel()) *
                              sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(blocked.gb.data(), scalar.gb.data(),
                          static_cast<std::size_t>(scalar.gb.numel()) *
                              sizeof(float)),
              0);
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

// ------------------------------------------------- tuning + layout mode ---

TEST(TuningResolve, EnvOverrideWinsAndRejectsGarbage) {
    ::setenv("AMRET_TILES", "16x8x32", 1);
    Tuning t = Tuning::resolve();
    EXPECT_EQ(t.tp, 16);
    EXPECT_EQ(t.to, 8);
    EXPECT_EQ(t.tk, 32);
    ::setenv("AMRET_TILES", "12,34,56", 1); // comma separators also accepted
    t = Tuning::resolve();
    EXPECT_EQ(t.tp, 12);
    EXPECT_EQ(t.to, 34);
    EXPECT_EQ(t.tk, 56);
    // Malformed and out-of-range picks fall back to the defaults.
    ::setenv("AMRET_TUNING_FILE", "/nonexistent/kernel_tuning.json", 1);
    for (const char* bad : {"garbage", "0x4x4", "4x4", "4x4x0", "4x4x9999999"}) {
        ::setenv("AMRET_TILES", bad, 1);
        t = Tuning::resolve();
        EXPECT_EQ(t.tp, kernels::tune::kTileP) << bad;
        EXPECT_EQ(t.to, kernels::tune::kTileO) << bad;
        EXPECT_EQ(t.tk, kernels::tune::kTileK) << bad;
    }
    ::unsetenv("AMRET_TILES");
    ::unsetenv("AMRET_TUNING_FILE");
}

TEST(TuningResolve, AutoTunerFileFeedsTheDefaults) {
    const char* path = "kernel_tuning_test.json";
    {
        std::ofstream out(path);
        out << "{\n  \"tp\": 4, \"to\": 32, \"tk\": 128,\n"
               "  \"source\": \"bench_micro --tile-sweep\"\n}\n";
    }
    ::unsetenv("AMRET_TILES");
    ::setenv("AMRET_TUNING_FILE", path, 1);
    const Tuning t = Tuning::resolve();
    EXPECT_EQ(t.tp, 4);
    EXPECT_EQ(t.to, 32);
    EXPECT_EQ(t.tk, 128);
    ::unsetenv("AMRET_TUNING_FILE");
    std::remove(path);
}

TEST(TuningOverride, TestOverrideFeedsTileConfigDefaults) {
    Tuning t;
    t.tp = 3;
    t.to = 5;
    t.tk = 7;
    Tuning::set_for_test(t);
    const TileConfig tile;
    EXPECT_EQ(tile.tp, 3);
    EXPECT_EQ(tile.to, 5);
    EXPECT_EQ(tile.tk, 7);
    Tuning::clear_test_override();
    const TileConfig fallback;
    EXPECT_GE(fallback.tp, 1);
}

TEST(LayoutModeTest, OverrideRoundTrips) {
    kernels::set_layout_mode(kernels::LayoutMode::kScalar);
    EXPECT_EQ(kernels::layout_mode(), kernels::LayoutMode::kScalar);
    kernels::set_layout_mode(kernels::LayoutMode::kBlockedNhwc);
    EXPECT_EQ(kernels::layout_mode(), kernels::LayoutMode::kBlockedNhwc);
    kernels::clear_layout_mode_override();
}

// ------------------------------------------------------- engine layouts --

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

TEST(EngineLayout, IntEngineIsBitwiseIdenticalAcrossLayouts) {
    EngineFixture fx = make_engine_fixture();
    data::DataLoader loader(fx.data.test, 16, /*shuffle=*/false, 0);
    loader.start_epoch();
    data::Batch batch;
    ASSERT_TRUE(loader.next(batch));

    const kernels::LayoutMode modes[] = {kernels::LayoutMode::kScalar,
                                         kernels::LayoutMode::kBlocked,
                                         kernels::LayoutMode::kBlockedNhwc};
    std::vector<tensor::Tensor> logits;
    for (const kernels::LayoutMode mode : modes) {
        kernels::set_layout_mode(mode);
        approx::IntInferenceEngine engine(*fx.model, fx.data.train, 48);
        ASSERT_NE(engine.certificate(), nullptr);
        EXPECT_TRUE(engine.certificate()->safe);
        logits.push_back(engine.forward(batch.images));
    }
    kernels::clear_layout_mode_override();

    ASSERT_EQ(logits[0].numel(), logits[1].numel());
    ASSERT_EQ(logits[0].numel(), logits[2].numel());
    EXPECT_EQ(std::memcmp(logits[0].data(), logits[1].data(),
                          static_cast<std::size_t>(logits[0].numel()) *
                              sizeof(float)),
              0)
        << "blocked engine diverges from the scalar oracle";
    EXPECT_EQ(std::memcmp(logits[0].data(), logits[2].data(),
                          static_cast<std::size_t>(logits[0].numel()) *
                              sizeof(float)),
              0)
        << "blocked-nhwc engine diverges from the scalar oracle";
}

bool has_check(const analysis::Certificate& cert, const char* name) {
    for (const auto& d : cert.diags)
        if (d.check == name) return true;
    return false;
}

TEST(EngineLayout, AnalyzerCrossChecksThePanelPacking) {
    EngineFixture fx = make_engine_fixture();
    kernels::set_layout_mode(kernels::LayoutMode::kBlocked);
    approx::IntInferenceEngine engine(*fx.model, fx.data.train, 48,
                                      approx::SafetyPolicy::kOff);
    kernels::clear_layout_mode_override();

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
