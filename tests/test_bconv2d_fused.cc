// Fused row-tile BConv2D pipeline tests.
//
// The fused path (BConv2D's only path) must be bit-identical to the float
// reference for every geometry class -- pointwise, grouped, one- and
// zero-padded, strided, odd channel counts -- single- and multi-threaded,
// and to the full-image im2col + BGEMM oracle in kernels/reference.h for
// every output type. On top of the value parity, these tests pin down the
// resource contract: no full-image accumulator in scratch slot 2, no im2col
// patch buffer in slot 1, and the `bconv2d.fused_tiles` telemetry counter.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "core/bitpack.h"
#include "core/random.h"
#include "gemm/bgemm.h"
#include "kernels/bconv2d.h"
#include "kernels/im2col.h"
#include "kernels/reference.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

std::int64_t GaugeValue(const char* name) {
  return telemetry::MetricsRegistry::Global().Gauge(name)->value();
}

std::int64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Global().Counter(name)->value();
}

struct Problem {
  Conv2DGeometry geo;
  int groups = 1;
  Tensor input_float;          // +/-1 values
  Tensor input_packed;         // bitpacked
  std::vector<float> weights;  // +/-1 OHWI, innermost dim in_c/groups
};

Problem MakeProblem(int hw, int in_c, int out_c, int k, int stride,
                    Padding pad, int groups, std::uint64_t seed) {
  Problem p;
  p.geo.batch = 1;
  p.geo.in_h = p.geo.in_w = hw;
  p.geo.in_c = in_c;
  p.geo.out_c = out_c;
  p.geo.filter_h = p.geo.filter_w = k;
  p.geo.stride_h = p.geo.stride_w = stride;
  p.geo.padding = pad;
  p.groups = groups;

  Rng rng(seed);
  p.input_float = Tensor(DataType::kFloat32, Shape{1, hw, hw, in_c});
  FillSigns(p.input_float, rng);
  p.input_packed = Tensor(DataType::kBitpacked, p.input_float.shape());
  BitpackTensor(p.input_float, p.input_packed);
  p.weights.resize(static_cast<std::size_t>(out_c) * k * k * (in_c / groups));
  for (auto& v : p.weights) v = rng.Sign();
  return p;
}

// Float reference supporting groups: per group, slice the input channels and
// run the dense reference convolution.
std::vector<float> Reference(const Problem& p) {
  const Conv2DGeometry& g = p.geo;
  const float pad_value = g.padding == Padding::kSameOne ? 1.0f : 0.0f;
  const int in_c_pg = g.in_c / p.groups, out_c_pg = g.out_c / p.groups;
  const std::int64_t pixels =
      static_cast<std::int64_t>(g.batch) * g.in_h * g.in_w;
  const std::int64_t out_pixels =
      static_cast<std::int64_t>(g.batch) * g.out_h() * g.out_w();
  std::vector<float> out(out_pixels * g.out_c);
  std::vector<float> slice(pixels * in_c_pg);
  std::vector<float> group_out(out_pixels * out_c_pg);
  for (int grp = 0; grp < p.groups; ++grp) {
    for (std::int64_t px = 0; px < pixels; ++px) {
      std::memcpy(slice.data() + px * in_c_pg,
                  p.input_float.data<float>() + px * g.in_c + grp * in_c_pg,
                  in_c_pg * sizeof(float));
    }
    Conv2DGeometry ref_geo = g;
    ref_geo.in_c = in_c_pg;
    ref_geo.out_c = out_c_pg;
    RefConv2DFloat(slice.data(),
                   p.weights.data() + static_cast<std::size_t>(grp) *
                                          out_c_pg * g.filter_h * g.filter_w *
                                          in_c_pg,
                   ref_geo, pad_value, nullptr, nullptr, Activation::kNone,
                   group_out.data());
    for (std::int64_t px = 0; px < out_pixels; ++px) {
      std::memcpy(out.data() + px * g.out_c + grp * out_c_pg,
                  group_out.data() + px * out_c_pg, out_c_pg * sizeof(float));
    }
  }
  return out;
}

// (hw, in_c, out_c, filter, stride, padding, groups, threads)
using FusedCase = std::tuple<int, int, int, int, int, Padding, int, int>;

class FusedParity : public ::testing::TestWithParam<FusedCase> {};

TEST_P(FusedParity, BitExactVsReference) {
  const auto [hw, in_c, out_c, k, stride, pad, groups, threads] = GetParam();
  const Problem p = MakeProblem(hw, in_c, out_c, k, stride, pad, groups,
                                hw * 131 + in_c * 7 + out_c + k + stride);
  const auto expected = Reference(p);

  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.groups = groups;
  attrs.output_type = BConvOutputType::kFloat;
  BConv2D op(p.weights.data(), attrs);

  Tensor out(DataType::kFloat32,
             Shape{1, p.geo.out_h(), p.geo.out_w(), out_c});
  gemm::Context ctx(threads);
  op.Run(p.input_packed, out, ctx);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(out.data<float>()[i], expected[i]) << "element " << i;
  }
}

// ::testing::Combine over independent axes would multiply out illegal
// combinations (grouped pointwise etc.), so the sweep is an explicit list:
// every geometry class the fused pipeline dispatches on, each at 1 and 4
// threads.
std::vector<FusedCase> FusedSweep() {
  const std::vector<std::tuple<int, int, int, int, int, Padding, int>> geos = {
      {8, 64, 32, 1, 1, Padding::kValid, 1},      // pointwise fast path
      {8, 64, 64, 3, 1, Padding::kSameOne, 1},    // one-padding
      {8, 64, 64, 3, 1, Padding::kSameZero, 1},   // zero-padding correction
      {9, 96, 40, 3, 2, Padding::kSameZero, 1},   // strided + zero-padding
      {9, 96, 40, 3, 2, Padding::kSameOne, 1},    // strided + one-padding
      {7, 33, 17, 3, 1, Padding::kSameZero, 1},   // odd channels
      {7, 33, 17, 5, 1, Padding::kSameOne, 1},    // 5x5, odd channels
      {10, 100, 64, 3, 2, Padding::kValid, 1},    // VALID, strided
      {6, 128, 16, 3, 1, Padding::kSameOne, 2},   // grouped (fused gather)
      {6, 128, 16, 3, 1, Padding::kSameZero, 4},  // grouped + zero-padding
  };
  std::vector<FusedCase> cases;
  for (const auto& [hw, in_c, out_c, k, s, pad, g] : geos) {
    for (int threads : {1, 4}) {
      cases.emplace_back(hw, in_c, out_c, k, s, pad, g, threads);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(GeometrySweep, FusedParity,
                         ::testing::ValuesIn(FusedSweep()));

TEST(BConvFused, MatchesIm2ColOracle) {
  // The fused pipeline and the full-image im2col + BGEMM oracle are two
  // implementations of one operator; their outputs must be bit-identical,
  // including the zero-padding correction.
  const Problem p =
      MakeProblem(12, 72, 40, 3, 2, Padding::kSameZero, 1, 2026);
  const auto expected = Reference(p);
  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.output_type = BConvOutputType::kFloat;
  BConv2D fused(p.weights.data(), attrs);
  const RefBConv2DIm2ColBGemm oracle(p.weights.data(), attrs);
  for (const int threads : {1, 4}) {
    Tensor out_fused(DataType::kFloat32,
                     Shape{1, p.geo.out_h(), p.geo.out_w(), p.geo.out_c});
    Tensor out_oracle(DataType::kFloat32, out_fused.shape());
    gemm::Context ctx(threads);
    fused.Run(p.input_packed, out_fused, ctx);
    oracle.Run(p.input_packed, out_oracle, ctx);
    for (std::int64_t i = 0; i < out_fused.num_elements(); ++i) {
      ASSERT_EQ(out_fused.data<float>()[i], out_oracle.data<float>()[i])
          << "threads=" << threads << " element " << i;
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(out_fused.data<float>()[i], expected[i]) << i;
    }
  }
}

TEST(BConvFused, BitpackedOutputMatchesOracle) {
  const Problem p = MakeProblem(7, 40, 48, 3, 1, Padding::kSameOne, 1, 99);
  Rng rng(100);
  std::vector<float> mult(48), bias(48);
  for (int i = 0; i < 48; ++i) {
    mult[i] = (i % 5 == 0) ? 0.0f : rng.Uniform(-0.2f, 0.2f);
    bias[i] = rng.Uniform(-3.0f, 3.0f);
  }
  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.output_type = BConvOutputType::kBitpacked;
  attrs.pre_activation = Activation::kRelu;
  attrs.multiplier = mult;
  attrs.bias = bias;
  BConv2D fused(p.weights.data(), attrs);
  const RefBConv2DIm2ColBGemm oracle(p.weights.data(), attrs);

  Tensor out_fused(DataType::kBitpacked, Shape{1, 7, 7, 48});
  Tensor out_oracle(DataType::kBitpacked, out_fused.shape());
  gemm::Context ctx(4);
  fused.Run(p.input_packed, out_fused, ctx);
  oracle.Run(p.input_packed, out_oracle, ctx);
  const std::int64_t words = Im2ColRows(p.geo) * BitpackedWords(p.geo.out_c);
  for (std::int64_t i = 0; i < words; ++i) {
    ASSERT_EQ(out_fused.data<TBitpacked>()[i],
              out_oracle.data<TBitpacked>()[i])
        << i;
  }
}

TEST(BConvFused, Int32OutputMatchesOracle) {
  const Problem p = MakeProblem(6, 96, 24, 3, 1, Padding::kSameZero, 1, 123);
  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.output_type = BConvOutputType::kInt32;
  BConv2D fused(p.weights.data(), attrs);
  const RefBConv2DIm2ColBGemm oracle(p.weights.data(), attrs);

  Tensor out_fused(DataType::kInt32, Shape{1, 6, 6, 24});
  Tensor out_oracle(DataType::kInt32, out_fused.shape());
  gemm::Context ctx(2);
  fused.Run(p.input_packed, out_fused, ctx);
  oracle.Run(p.input_packed, out_oracle, ctx);
  for (std::int64_t i = 0; i < out_fused.num_elements(); ++i) {
    ASSERT_EQ(out_fused.data<std::int32_t>()[i],
              out_oracle.data<std::int32_t>()[i])
        << i;
  }
}

TEST(BConvFused, NoFullImageAccumulatorInScratch) {
  // The defining property of the fusion: scratch slot 2 holds per-shard
  // tiles (independent of the image size), not a rows x out_c accumulator.
  const Problem p = MakeProblem(32, 64, 64, 3, 1, Padding::kSameOne, 1, 7);
  const std::int64_t full_acc_bytes =
      Im2ColRows(p.geo) * p.geo.out_c * sizeof(std::int32_t);

  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.output_type = BConvOutputType::kFloat;
  BConv2D fused(p.weights.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, 32, 32, 64});

  auto& registry = telemetry::MetricsRegistry::Global();
  registry.Reset();
  {
    gemm::Context ctx(1);
    fused.Run(p.input_packed, out, ctx);
  }
  const std::int64_t fused_slot2 = GaugeValue("gemm.scratch_bytes.slot2");
  EXPECT_GT(fused_slot2, 0);
  EXPECT_LT(fused_slot2, full_acc_bytes / 4)
      << "fused path still allocates an image-sized accumulator";

  // The full-image oracle, by contrast, must show the full-image allocation.
  registry.Reset();
  const RefBConv2DIm2ColBGemm oracle(p.weights.data(), attrs);
  {
    gemm::Context ctx(1);
    oracle.Run(p.input_packed, out, ctx);
  }
  EXPECT_GE(GaugeValue("gemm.scratch_bytes.slot2"), full_acc_bytes);
}

TEST(BConvFused, SkipsIm2ColScratch) {
  // The gather replaces im2col: the kernel never touches the slot-1 patch
  // buffer.
  const Problem p = MakeProblem(16, 64, 32, 3, 1, Padding::kSameOne, 1, 11);
  Tensor out(DataType::kFloat32, Shape{1, 16, 16, 32});
  auto& registry = telemetry::MetricsRegistry::Global();

  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.output_type = BConvOutputType::kFloat;
  BConv2D op(p.weights.data(), attrs);
  registry.Reset();
  {
    gemm::Context ctx(1);
    op.Run(p.input_packed, out, ctx);
  }
  EXPECT_EQ(GaugeValue("gemm.scratch_bytes.slot1"), 0);

  // Sanity: the im2col oracle does touch it.
  const RefBConv2DIm2ColBGemm oracle(p.weights.data(), attrs);
  registry.Reset();
  gemm::Context ctx(1);
  oracle.Run(p.input_packed, out, ctx);
  EXPECT_GT(GaugeValue("gemm.scratch_bytes.slot1"), 0);
}

TEST(BConvFused, FusedTilesCounter) {
  const Problem p = MakeProblem(8, 64, 32, 3, 1, Padding::kSameOne, 1, 13);
  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.output_type = BConvOutputType::kFloat;
  BConv2D op(p.weights.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, 8, 8, 32});

  const std::int64_t rows = Im2ColRows(p.geo);
  const std::int64_t m_tiles = (rows + gemm::kBgemmMr - 1) / gemm::kBgemmMr;
  telemetry::MetricsRegistry::Global().Reset();
  gemm::Context ctx(2);
  op.Run(p.input_packed, out, ctx);
  EXPECT_EQ(CounterValue("bconv2d.fused_tiles"), m_tiles);
  op.Run(p.input_packed, out, ctx);
  EXPECT_EQ(CounterValue("bconv2d.fused_tiles"), 2 * m_tiles);
}

TEST(BConvFused, StageTimesSurviveFusion) {
  // The Table 4 stage split must keep flowing from the fused pipeline: the
  // gemm share is reconstructed from per-shard busy time.
  const Problem p = MakeProblem(16, 64, 64, 3, 1, Padding::kSameOne, 1, 21);
  Tensor out(DataType::kFloat32, Shape{1, 16, 16, 64});

  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.output_type = BConvOutputType::kFloat;
  BConv2D op(p.weights.data(), attrs);

  gemm::Context ctx(2);
  BConvStageTimes times;
  op.Run(p.input_packed, out, ctx, &times);
  EXPECT_GT(times.gemm, 0.0);
  EXPECT_GT(times.transform, 0.0);
}

}  // namespace
}  // namespace lce
