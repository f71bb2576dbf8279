// Fused-vs-legacy bit-exactness for the ConvPipeline variants that joined
// the shared engine after BConv2D: binary depthwise, grouped binary, and
// int8. Each variant's fused row-tile execution must be bit-identical to
// its force_unfused legacy pipeline (which in turn is covered against the
// float/dequantized references by the per-kernel suites), single- and
// multi-threaded. The per-variant `*.fused_tiles` / `*.interior_tiles`
// telemetry and the bconv2d fallback tripwire are pinned down here too.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/bitpack.h"
#include "core/random.h"
#include "gemm/bgemm.h"
#include "kernels/bconv2d.h"
#include "kernels/bdepthwise.h"
#include "kernels/conv2d_int8.h"
#include "kernels/im2col.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

std::int64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Global().Counter(name)->value();
}

// ---------------------------------------------------------------------------
// Binary depthwise
// ---------------------------------------------------------------------------

struct DepthwiseCase {
  int hw, channels, k, stride;
  Padding pad;
};

class DepthwiseFusedParity : public ::testing::TestWithParam<DepthwiseCase> {};

TEST_P(DepthwiseFusedParity, FusedMatchesLegacy) {
  const DepthwiseCase c = GetParam();
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = c.hw;
  geo.in_c = geo.out_c = c.channels;
  geo.filter_h = geo.filter_w = c.k;
  geo.stride_h = geo.stride_w = c.stride;
  geo.padding = c.pad;

  Rng rng(c.hw * 17 + c.channels + c.k);
  Tensor in_f(DataType::kFloat32, Shape{1, c.hw, c.hw, c.channels});
  FillSigns(in_f, rng);
  Tensor in_b(DataType::kBitpacked, in_f.shape());
  BitpackTensor(in_f, in_b);
  std::vector<float> w(static_cast<std::size_t>(c.k) * c.k * c.channels);
  for (auto& v : w) v = rng.Sign();
  std::vector<float> mult(c.channels), bias(c.channels);
  for (auto& v : mult) v = rng.Uniform(-0.5f, 0.5f);
  for (auto& v : bias) v = rng.Uniform(-1.0f, 1.0f);

  BDepthwiseConv2DAttrs attrs;
  attrs.geo = geo;
  attrs.multiplier = mult;
  attrs.bias = bias;
  BDepthwiseConv2D fused(w.data(), attrs);
  attrs.force_unfused = true;
  BDepthwiseConv2D legacy(w.data(), attrs);

  Tensor out_legacy(DataType::kFloat32,
                    Shape{1, geo.out_h(), geo.out_w(), c.channels});
  {
    gemm::Context ctx(1);
    legacy.Run(in_b, out_legacy, ctx);
  }
  for (const int threads : {1, 4}) {
    Tensor out_fused(DataType::kFloat32, out_legacy.shape());
    gemm::Context ctx(threads);
    fused.Run(in_b, out_fused, ctx);
    for (std::int64_t i = 0; i < out_fused.num_elements(); ++i) {
      ASSERT_EQ(out_fused.data<float>()[i], out_legacy.data<float>()[i])
          << "threads=" << threads << " element " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DepthwiseFusedParity,
    ::testing::Values(DepthwiseCase{8, 32, 3, 1, Padding::kSameOne},
                      DepthwiseCase{8, 64, 3, 1, Padding::kValid},
                      DepthwiseCase{9, 33, 3, 2, Padding::kSameOne},
                      DepthwiseCase{7, 100, 3, 2, Padding::kValid},
                      DepthwiseCase{11, 40, 3, 3, Padding::kSameOne},
                      DepthwiseCase{6, 32, 1, 1, Padding::kValid}));

TEST(DepthwiseFused, TileCountersAdvance) {
  // 12-wide output rows: the 10-position interior run of each SAME row
  // fully contains one aligned 4-row tile, so interior tiles exist without
  // covering everything (an 8-wide image would legitimately have zero).
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 12;
  geo.in_c = geo.out_c = 32;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameOne;

  Rng rng(3);
  Tensor in_b(DataType::kBitpacked, Shape{1, 12, 12, 32});
  FillBitpacked(in_b, rng);
  std::vector<float> w(9 * 32, 1.0f);
  BDepthwiseConv2DAttrs attrs;
  attrs.geo = geo;
  BDepthwiseConv2D op(w.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, 12, 12, 32});

  const std::int64_t rows = Im2ColRows(geo);
  const std::int64_t m_tiles = (rows + gemm::kBgemmMr - 1) / gemm::kBgemmMr;
  telemetry::MetricsRegistry::Global().Reset();
  gemm::Context ctx(2);
  op.Run(in_b, out, ctx);
  EXPECT_EQ(CounterValue("bdepthwise.fused_tiles"), m_tiles);
  EXPECT_GT(CounterValue("bdepthwise.interior_tiles"), 0);
  EXPECT_LT(CounterValue("bdepthwise.interior_tiles"), m_tiles);
}

// ---------------------------------------------------------------------------
// Grouped binary convolution
// ---------------------------------------------------------------------------

struct GroupedCase {
  int hw, in_c, out_c, groups, k;
  Padding pad;
  BConvOutputType output;
};

class GroupedFusedParity : public ::testing::TestWithParam<GroupedCase> {};

TEST_P(GroupedFusedParity, FusedMatchesLegacy) {
  const GroupedCase c = GetParam();
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = c.hw;
  geo.in_c = c.in_c;
  geo.out_c = c.out_c;
  geo.filter_h = geo.filter_w = c.k;
  geo.padding = c.pad;

  Rng rng(c.in_c * 13 + c.out_c + c.groups);
  Tensor in_f(DataType::kFloat32, Shape{1, c.hw, c.hw, c.in_c});
  FillSigns(in_f, rng);
  Tensor in_b(DataType::kBitpacked, in_f.shape());
  BitpackTensor(in_f, in_b);
  std::vector<float> w(static_cast<std::size_t>(c.out_c) * c.k * c.k *
                       (c.in_c / c.groups));
  for (auto& v : w) v = rng.Sign();
  std::vector<float> mult(c.out_c), bias(c.out_c);
  for (auto& v : mult) v = rng.Uniform(-0.3f, 0.3f);
  for (auto& v : bias) v = rng.Uniform(-2.0f, 2.0f);

  BConv2DAttrs attrs;
  attrs.geo = geo;
  attrs.groups = c.groups;
  attrs.output_type = c.output;
  attrs.multiplier = mult;
  attrs.bias = bias;
  BConv2D fused(w.data(), attrs);
  attrs.force_unfused = true;
  BConv2D legacy(w.data(), attrs);

  const DataType out_dtype = c.output == BConvOutputType::kBitpacked
                                 ? DataType::kBitpacked
                                 : DataType::kFloat32;
  Tensor out_legacy(out_dtype, Shape{1, geo.out_h(), geo.out_w(), c.out_c});
  {
    gemm::Context ctx(1);
    legacy.Run(in_b, out_legacy, ctx);
  }
  telemetry::MetricsRegistry::Global().Reset();
  for (const int threads : {1, 4}) {
    Tensor out_fused(out_dtype, out_legacy.shape());
    gemm::Context ctx(threads);
    fused.Run(in_b, out_fused, ctx);
    if (out_dtype == DataType::kFloat32) {
      for (std::int64_t i = 0; i < out_fused.num_elements(); ++i) {
        ASSERT_EQ(out_fused.data<float>()[i], out_legacy.data<float>()[i])
            << "threads=" << threads << " element " << i;
      }
    } else {
      const std::int64_t words =
          Im2ColRows(geo) * BitpackedWords(geo.out_c);
      for (std::int64_t i = 0; i < words; ++i) {
        ASSERT_EQ(out_fused.data<TBitpacked>()[i],
                  out_legacy.data<TBitpacked>()[i])
            << "threads=" << threads << " word " << i;
      }
    }
  }
  // Grouped runs now go through the fused engine: tiles counted, no silent
  // fallback (the legacy runs above were explicitly forced).
  EXPECT_GT(CounterValue("bconv2d.fused_tiles"), 0);
  EXPECT_EQ(CounterValue("bconv2d.fallback_unfused"), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GroupedFusedParity,
    ::testing::Values(
        // Odd channels-per-group (34/2 = 17) exercises the group column
        // slices that straddle output word boundaries.
        GroupedCase{8, 64, 34, 2, 3, Padding::kSameOne,
                    BConvOutputType::kFloat},
        GroupedCase{8, 64, 32, 2, 3, Padding::kSameZero,
                    BConvOutputType::kFloat},
        GroupedCase{7, 128, 68, 4, 3, Padding::kSameZero,
                    BConvOutputType::kFloat},
        GroupedCase{7, 128, 64, 4, 3, Padding::kSameOne,
                    BConvOutputType::kBitpacked},
        GroupedCase{9, 64, 48, 2, 5, Padding::kSameZero,
                    BConvOutputType::kBitpacked},
        GroupedCase{6, 96, 36, 3, 1, Padding::kValid,
                    BConvOutputType::kFloat}));

TEST(GroupedFused, ForcedUnfusedCounterAdvances) {
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 6;
  geo.in_c = 64;
  geo.out_c = 16;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameOne;

  Rng rng(8);
  Tensor in_b(DataType::kBitpacked, Shape{1, 6, 6, 64});
  FillBitpacked(in_b, rng);
  std::vector<float> w(static_cast<std::size_t>(16) * 9 * 32, 1.0f);

  BConv2DAttrs attrs;
  attrs.geo = geo;
  attrs.groups = 2;
  attrs.force_unfused = true;
  BConv2D op(w.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, 6, 6, 16});

  telemetry::MetricsRegistry::Global().Reset();
  gemm::Context ctx(1);
  op.Run(in_b, out, ctx);
  EXPECT_EQ(CounterValue("bconv2d.forced_unfused"), 1);
  // Explicitly forced runs are not fallbacks.
  EXPECT_EQ(CounterValue("bconv2d.fallback_unfused"), 0);
  EXPECT_EQ(CounterValue("bconv2d.fused_tiles"), 0);
}

// ---------------------------------------------------------------------------
// Int8 convolution
// ---------------------------------------------------------------------------

struct Int8Case {
  int hw, in_c, out_c, k, stride;
  Activation act;
  bool per_channel;
  float out_scale;
  int block_tiles = 64;  // Conv2DInt8Attrs::block_tiles
};

// Every int8 tier selectable on this machine (gemm/int8_isa.h).
std::vector<gemm::Int8Tier> AvailableInt8Tiers() {
  std::vector<gemm::Int8Tier> tiers;
  for (gemm::Int8Tier t :
       {gemm::Int8Tier::kScalar, gemm::Int8Tier::kWidened,
        gemm::Int8Tier::kAvx2Dot, gemm::Int8Tier::kNeonDot,
        gemm::Int8Tier::kVnni}) {
    if (gemm::Int8TierAvailable(t)) tiers.push_back(t);
  }
  return tiers;
}

class Int8FusedParity : public ::testing::TestWithParam<Int8Case> {};

TEST_P(Int8FusedParity, FusedMatchesLegacy) {
  const Int8Case c = GetParam();
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = c.hw;
  geo.in_c = c.in_c;
  geo.out_c = c.out_c;
  geo.filter_h = geo.filter_w = c.k;
  geo.stride_h = geo.stride_w = c.stride;
  geo.padding = Padding::kSameZero;

  Rng rng(c.hw + c.in_c * 3 + c.out_c);
  Tensor in(DataType::kInt8, Shape{1, c.hw, c.hw, c.in_c});
  FillInt8(in, rng);
  std::vector<std::int8_t> w(static_cast<std::size_t>(c.out_c) * c.k * c.k *
                             c.in_c);
  for (auto& v : w) v = rng.Int8(-127, 127);

  Conv2DInt8Attrs attrs;
  attrs.geo = geo;
  attrs.activation = c.act;
  attrs.input_quant = {0.02f, 3};  // nonzero input zero point: padded taps
  attrs.weight_quant = {0.005f, 0};
  // A small output scale pushes many accumulators past +/-127, so the
  // requantization rounding and clamping at the saturation boundaries is
  // exercised on both paths.
  attrs.output_quant = {c.out_scale, -4};
  attrs.bias.resize(c.out_c);
  for (auto& v : attrs.bias) {
    v = static_cast<std::int32_t>(rng.UniformInt(2000)) - 1000;
  }
  if (c.per_channel) {
    attrs.weight_scales.resize(c.out_c);
    for (auto& v : attrs.weight_scales) v = rng.Uniform(0.001f, 0.01f);
  }
  attrs.block_tiles = c.block_tiles;
  Conv2DInt8 fused(w.data(), attrs);
  attrs.force_unfused = true;
  Conv2DInt8 legacy(w.data(), attrs);

  Tensor out_legacy(DataType::kInt8,
                    Shape{1, geo.out_h(), geo.out_w(), c.out_c});
  {
    gemm::Context ctx(1);
    legacy.Run(in, out_legacy, ctx);
  }
  // Every tier selectable on this machine must reproduce the legacy
  // widened path byte-for-byte, single- and multi-threaded.
  for (const gemm::Int8Tier tier : AvailableInt8Tiers()) {
    gemm::SetInt8TierOverrideForTest(static_cast<int>(tier));
    for (const int threads : {1, 4}) {
      Tensor out_fused(DataType::kInt8, out_legacy.shape());
      gemm::Context ctx(threads);
      fused.Run(in, out_fused, ctx);
      for (std::int64_t i = 0; i < out_fused.num_elements(); ++i) {
        ASSERT_EQ(out_fused.data<std::int8_t>()[i],
                  out_legacy.data<std::int8_t>()[i])
            << "tier=" << gemm::Int8TierName(tier) << " threads=" << threads
            << " element " << i;
      }
    }
  }
  gemm::SetInt8TierOverrideForTest(0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Int8FusedParity,
    ::testing::Values(
        // Tiny out_scale saturates many outputs at -128/127.
        Int8Case{8, 16, 24, 3, 1, Activation::kNone, false, 0.001f},
        Int8Case{8, 16, 24, 3, 1, Activation::kNone, false, 0.05f},
        Int8Case{9, 24, 17, 3, 2, Activation::kRelu, false, 0.02f},
        Int8Case{7, 8, 40, 5, 1, Activation::kRelu6, false, 0.01f},
        Int8Case{8, 16, 24, 3, 1, Activation::kNone, true, 0.002f},
        Int8Case{6, 32, 8, 1, 1, Activation::kNone, true, 0.05f},
        // ResNet-18 stem (7x7 s2, in_c 3) with 14-row blocks: every block
        // ends in a 6-row tail of the 8-row VNNI register block.
        Int8Case{224, 3, 64, 7, 2, Activation::kRelu, true, 0.02f, 7},
        // ResNet-18 1x1 s2 shortcut: 196 rows = one 128-row block plus a
        // 68-row block (68 % 8 = 4).
        Int8Case{28, 128, 256, 1, 2, Activation::kNone, true, 0.05f}));

TEST(Int8Fused, TileCountersAdvance) {
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 8;
  geo.in_c = 16;
  geo.out_c = 8;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameZero;

  Rng rng(4);
  Tensor in(DataType::kInt8, Shape{1, 8, 8, 16});
  FillInt8(in, rng);
  std::vector<std::int8_t> w(static_cast<std::size_t>(8) * 9 * 16, 1);
  Conv2DInt8Attrs attrs;
  attrs.geo = geo;
  attrs.input_quant = {0.02f, 0};
  attrs.weight_quant = {0.005f, 0};
  attrs.output_quant = {0.05f, 0};
  Conv2DInt8 op(w.data(), attrs);
  Tensor out(DataType::kInt8, Shape{1, 8, 8, 8});

  const std::int64_t rows = Im2ColRows(geo);
  const std::int64_t m_tiles = (rows + gemm::kInt8Mr - 1) / gemm::kInt8Mr;
  telemetry::MetricsRegistry::Global().Reset();
  gemm::Context ctx(2);
  op.Run(in, out, ctx);
  EXPECT_EQ(CounterValue("conv2d_int8.fused_tiles"), m_tiles);
  EXPECT_GT(CounterValue("conv2d_int8.interior_tiles"), 0);
  EXPECT_LT(CounterValue("conv2d_int8.interior_tiles"), m_tiles);
}

// Adversarial saturation property test at the convolution level: weights
// and activations drawn only from {-128, -127, +127}, so a saturating
// vpmaddubsw pairwise sum (or a bias/rowsum bookkeeping slip) in any tier
// diverges from the exact widened-dot legacy path. Padding is exercised
// too (kSameZero with a nonzero input zero point). `block_tiles` sets the
// fused block size (row tails of the 8-row VNNI block); `per_channel`
// draws per-channel weight scales.
void CheckExtremeValueTierParity(const Conv2DGeometry& geo, int block_tiles,
                                 bool per_channel, std::uint64_t seed) {
  Rng rng(seed);
  const std::int8_t extremes[3] = {-128, -127, 127};
  Tensor in(DataType::kInt8, Shape{1, geo.in_h, geo.in_w, geo.in_c});
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<std::int8_t>()[i] = extremes[rng.Int8(0, 2)];
  }
  std::vector<std::int8_t> w(static_cast<std::size_t>(geo.out_c) *
                             geo.filter_h * geo.filter_w * geo.in_c);
  for (auto& v : w) v = extremes[rng.Int8(0, 2)];

  Conv2DInt8Attrs attrs;
  attrs.geo = geo;
  attrs.input_quant = {0.02f, 3};
  attrs.weight_quant = {0.005f, 0};
  attrs.output_quant = {0.25f, -4};  // keep most outputs off the clamp rails
  if (per_channel) {
    attrs.weight_scales.resize(geo.out_c);
    for (auto& v : attrs.weight_scales) v = rng.Uniform(0.0005f, 0.005f);
  }
  attrs.block_tiles = block_tiles;
  Conv2DInt8 fused(w.data(), attrs);
  attrs.force_unfused = true;
  Conv2DInt8 legacy(w.data(), attrs);

  Tensor out_legacy(DataType::kInt8,
                    Shape{1, geo.out_h(), geo.out_w(), geo.out_c});
  {
    gemm::Context ctx(1);
    legacy.Run(in, out_legacy, ctx);
  }
  for (const gemm::Int8Tier tier : AvailableInt8Tiers()) {
    gemm::SetInt8TierOverrideForTest(static_cast<int>(tier));
    for (const int threads : {1, 4}) {
      Tensor out(DataType::kInt8, out_legacy.shape());
      gemm::Context ctx(threads);
      fused.Run(in, out, ctx);
      EXPECT_EQ(std::memcmp(out.raw_data(), out_legacy.raw_data(),
                            static_cast<std::size_t>(out.num_elements())),
                0)
          << "tier=" << gemm::Int8TierName(tier) << " threads=" << threads;
    }
  }
  gemm::SetInt8TierOverrideForTest(0);
}

TEST(Int8Fused, ExtremeValueTierParity) {
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 9;
  geo.in_c = 32;
  geo.out_c = 24;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameZero;
  CheckExtremeValueTierParity(geo, /*block_tiles=*/64, /*per_channel=*/false,
                              31337);
}

// The same on the ResNet-18 shapes that dominate the int8 benchmark: the
// stem (224x224x3 -> 64, 7x7 s2; K = 147 is not a multiple of the 4-byte
// K-group) and a 1x1 s2 shortcut, each with a block size that leaves a
// row tail of the 8-row VNNI register block (10 and 6 rows).
TEST(Int8Fused, ExtremeValueTierParityResNet18Shapes) {
  Conv2DGeometry stem;
  stem.in_h = stem.in_w = 224;
  stem.in_c = 3;
  stem.out_c = 64;
  stem.filter_h = stem.filter_w = 7;
  stem.stride_h = stem.stride_w = 2;
  stem.padding = Padding::kSameZero;
  CheckExtremeValueTierParity(stem, /*block_tiles=*/5, /*per_channel=*/true,
                              224);
  Conv2DGeometry shortcut = stem;
  shortcut.in_h = shortcut.in_w = 28;
  shortcut.in_c = 128;
  shortcut.out_c = 256;
  shortcut.filter_h = shortcut.filter_w = 1;
  CheckExtremeValueTierParity(shortcut, /*block_tiles=*/3,
                              /*per_channel=*/true, 28);
}

// The conv2d_int8.tier gauge must report the tier that actually ran.
TEST(Int8Fused, TierGaugeReportsSelectedTier) {
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 8;
  geo.in_c = 16;
  geo.out_c = 8;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameZero;

  Rng rng(5);
  Tensor in(DataType::kInt8, Shape{1, 8, 8, 16});
  FillInt8(in, rng);
  std::vector<std::int8_t> w(static_cast<std::size_t>(8) * 9 * 16, 2);
  Conv2DInt8Attrs attrs;
  attrs.geo = geo;
  attrs.input_quant = {0.02f, 0};
  attrs.weight_quant = {0.005f, 0};
  attrs.output_quant = {0.05f, 0};
  Conv2DInt8 op(w.data(), attrs);
  Tensor out(DataType::kInt8, Shape{1, 8, 8, 8});

  auto gauge = [] {
    return telemetry::MetricsRegistry::Global().Gauge("conv2d_int8.tier");
  };
  for (const gemm::Int8Tier tier : AvailableInt8Tiers()) {
    gemm::SetInt8TierOverrideForTest(static_cast<int>(tier));
    gemm::Context ctx(1);
    op.Run(in, out, ctx);
    EXPECT_EQ(gauge()->value(), static_cast<std::int64_t>(tier))
        << "forced tier " << gemm::Int8TierName(tier);
  }
  gemm::SetInt8TierOverrideForTest(0);
  {
    gemm::Context ctx(1);
    op.Run(in, out, ctx);
    EXPECT_EQ(gauge()->value(),
              static_cast<std::int64_t>(gemm::SelectInt8Tier()));
  }
  // A scalar-profile context pins the gauge to the scalar tier regardless
  // of the machine's best tier.
  {
    gemm::Context ctx(1, gemm::KernelProfile::kScalar);
    op.Run(in, out, ctx);
    EXPECT_EQ(gauge()->value(),
              static_cast<std::int64_t>(gemm::Int8Tier::kScalar));
  }
}

}  // namespace
}  // namespace lce
