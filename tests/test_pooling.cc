// Full-precision pooling tests, and row-parallel MaxPool2D / depthwise
// conv bit-exactness across thread counts.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "core/random.h"
#include "core/thread_pool.h"
#include "kernels/depthwise_conv.h"
#include "kernels/pooling.h"
#include "kernels/reference.h"

namespace lce {
namespace {

TEST(MaxPool2D, MatchesReference) {
  Pool2DGeometry geo;
  geo.in_h = geo.in_w = 7;
  geo.channels = 9;
  geo.filter_h = geo.filter_w = 3;
  geo.stride_h = geo.stride_w = 2;
  geo.padding = Padding::kSameZero;

  Rng rng(1);
  Tensor in(DataType::kFloat32, Shape{1, 7, 7, 9});
  FillUniform(in, rng);
  Tensor out(DataType::kFloat32, Shape{1, geo.out_h(), geo.out_w(), 9});
  MaxPool2DFloat(in, geo, out);

  std::vector<float> expected(out.num_elements());
  RefMaxPool2DFloat(in.data<float>(), geo, expected.data());
  for (std::int64_t i = 0; i < out.num_elements(); ++i) {
    ASSERT_EQ(out.data<float>()[i], expected[i]);
  }
}

TEST(MaxPool2D, PaddedWindowsIgnorePadding) {
  // TF semantics: padded elements never win the max (even when all inputs
  // are negative).
  Pool2DGeometry geo;
  geo.in_h = geo.in_w = 2;
  geo.channels = 1;
  geo.filter_h = geo.filter_w = 3;
  geo.stride_h = geo.stride_w = 1;
  geo.padding = Padding::kSameZero;

  Tensor in(DataType::kFloat32, Shape{1, 2, 2, 1});
  for (int i = 0; i < 4; ++i) in.data<float>()[i] = -5.0f - i;
  Tensor out(DataType::kFloat32, Shape{1, 2, 2, 1});
  MaxPool2DFloat(in, geo, out);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out.data<float>()[i], -5.0f);
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.num_elements() == b.num_elements() &&
         std::memcmp(a.raw_data(), b.raw_data(),
                     static_cast<std::size_t>(a.num_elements()) *
                         sizeof(float)) == 0;
}

// (in_hw, batch, stride): out rows = batch * out_h include 1, 2 and 3 rows
// (fewer than the 4 threads) as well as odd counts above it.
class RowParallelShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RowParallelShapes, MaxPoolBitIdenticalAcrossThreads) {
  const auto [hw, batch, stride] = GetParam();
  Pool2DGeometry geo;
  geo.batch = batch;
  geo.in_h = hw;
  geo.in_w = hw + 2;
  geo.channels = 13;
  geo.filter_h = geo.filter_w = 3;
  geo.stride_h = geo.stride_w = stride;
  geo.padding = Padding::kSameZero;
  Rng rng(hw * 10 + batch + stride);
  Tensor in(DataType::kFloat32, Shape{batch, geo.in_h, geo.in_w, 13});
  FillUniform(in, rng);
  const Shape out_shape{batch, geo.out_h(), geo.out_w(), 13};
  Tensor serial(DataType::kFloat32, out_shape);
  MaxPool2DFloat(in, geo, serial);
  std::vector<float> expected(serial.num_elements());
  RefMaxPool2DFloat(in.data<float>(), geo, expected.data());
  ASSERT_EQ(std::memcmp(serial.raw_data(), expected.data(),
                        expected.size() * sizeof(float)),
            0);
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    Tensor out(DataType::kFloat32, out_shape);
    MaxPool2DFloat(in, geo, out, &pool);
    EXPECT_TRUE(SameBits(out, serial)) << threads << " threads";
  }
}

TEST_P(RowParallelShapes, DepthwiseBitIdenticalAcrossThreads) {
  const auto [hw, batch, stride] = GetParam();
  Conv2DGeometry geo;
  geo.batch = batch;
  geo.in_h = hw;
  geo.in_w = hw + 2;
  geo.in_c = geo.out_c = 13;
  geo.filter_h = geo.filter_w = 3;
  geo.stride_h = geo.stride_w = stride;
  geo.padding = Padding::kSameZero;
  Rng rng(hw * 10 + batch + stride + 1);
  Tensor in(DataType::kFloat32, Shape{batch, geo.in_h, geo.in_w, 13});
  FillUniform(in, rng);
  std::vector<float> weights(3 * 3 * 13), bias(13);
  for (auto& v : weights) v = rng.Uniform();
  for (auto& v : bias) v = rng.Uniform();
  DepthwiseConv2DAttrs attrs;
  attrs.geo = geo;
  attrs.activation = Activation::kRelu;
  attrs.bias = bias;
  const DepthwiseConv2DFloat op(weights.data(), attrs);
  const Shape out_shape{batch, geo.out_h(), geo.out_w(), 13};
  Tensor serial(DataType::kFloat32, out_shape);
  op.Run(in, serial);
  std::vector<float> expected(serial.num_elements());
  RefDepthwiseConv2DFloat(in.data<float>(), weights.data(), geo, bias.data(),
                          Activation::kRelu, expected.data());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(serial.data<float>()[i], expected[i], 1e-5f) << i;
  }
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    Tensor out(DataType::kFloat32, out_shape);
    op.Run(in, out, &pool);
    EXPECT_TRUE(SameBits(out, serial)) << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Rows, RowParallelShapes,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 1, 1),
                                           std::make_tuple(5, 1, 2),
                                           std::make_tuple(3, 1, 1),
                                           std::make_tuple(7, 1, 1),
                                           std::make_tuple(9, 3, 2)));

TEST(AvgPool2D, UniformInputIsIdentity) {
  Pool2DGeometry geo;
  geo.in_h = geo.in_w = 4;
  geo.channels = 3;
  geo.filter_h = geo.filter_w = 2;
  geo.stride_h = geo.stride_w = 2;
  geo.padding = Padding::kValid;

  Tensor in(DataType::kFloat32, Shape{1, 4, 4, 3});
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<float>()[i] = 2.5f;
  }
  Tensor out(DataType::kFloat32, Shape{1, 2, 2, 3});
  AvgPool2DFloat(in, geo, out);
  for (std::int64_t i = 0; i < out.num_elements(); ++i) {
    EXPECT_FLOAT_EQ(out.data<float>()[i], 2.5f);
  }
}

TEST(AvgPool2D, BorderDivisorCountsValidOnly) {
  Pool2DGeometry geo;
  geo.in_h = geo.in_w = 2;
  geo.channels = 1;
  geo.filter_h = geo.filter_w = 2;
  geo.stride_h = geo.stride_w = 1;
  geo.padding = Padding::kSameZero;

  Tensor in(DataType::kFloat32, Shape{1, 2, 2, 1});
  in.data<float>()[0] = 1.0f;
  in.data<float>()[1] = 2.0f;
  in.data<float>()[2] = 3.0f;
  in.data<float>()[3] = 4.0f;
  Tensor out(DataType::kFloat32, Shape{1, 2, 2, 1});
  AvgPool2DFloat(in, geo, out);
  EXPECT_FLOAT_EQ(out.data<float>()[0], 2.5f);   // all four
  EXPECT_FLOAT_EQ(out.data<float>()[1], 3.0f);   // (2+4)/2
  EXPECT_FLOAT_EQ(out.data<float>()[2], 3.5f);   // (3+4)/2
  EXPECT_FLOAT_EQ(out.data<float>()[3], 4.0f);   // lone corner
}

TEST(GlobalAvgPool, ComputesChannelMeans) {
  Tensor in(DataType::kFloat32, Shape{2, 2, 2, 3});
  for (int b = 0; b < 2; ++b) {
    for (int p = 0; p < 4; ++p) {
      for (int c = 0; c < 3; ++c) {
        in.data<float>()[(b * 4 + p) * 3 + c] =
            static_cast<float>(b * 100 + c + p);
      }
    }
  }
  Tensor out(DataType::kFloat32, Shape{2, 3});
  GlobalAvgPoolFloat(in, out);
  // mean over p of (b*100 + c + p) = b*100 + c + 1.5
  for (int b = 0; b < 2; ++b) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_FLOAT_EQ(out.data<float>()[b * 3 + c],
                      static_cast<float>(b * 100 + c) + 1.5f);
    }
  }
}

}  // namespace
}  // namespace lce
