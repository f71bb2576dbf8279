// Full-precision convolution / depthwise / fully-connected kernel tests
// against the naive references, plus bit-exactness of the ConvPipeline
// float convolution against the im2col + GEMM oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "core/random.h"
#include "gemm/context.h"
#include "kernels/conv2d_float.h"
#include "kernels/depthwise_conv.h"
#include "kernels/fully_connected.h"
#include "kernels/reference.h"

namespace lce {
namespace {

class ConvFloatShapes
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, int, int, Padding>> {};

TEST_P(ConvFloatShapes, MatchesReference) {
  const auto [hw, in_c, out_c, k, stride, pad] = GetParam();
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = hw;
  geo.in_c = in_c;
  geo.out_c = out_c;
  geo.filter_h = geo.filter_w = k;
  geo.stride_h = geo.stride_w = stride;
  geo.padding = pad;

  Rng rng(hw + in_c * 3 + out_c * 7 + k + stride);
  Tensor input(DataType::kFloat32, Shape{1, hw, hw, in_c});
  FillUniform(input, rng);
  std::vector<float> weights(static_cast<std::size_t>(out_c) * k * k * in_c);
  for (auto& v : weights) v = rng.Uniform();
  std::vector<float> bias(out_c);
  for (auto& v : bias) v = rng.Uniform();

  Conv2DFloatAttrs attrs;
  attrs.geo = geo;
  attrs.activation = Activation::kRelu;
  attrs.bias = bias;
  Conv2DFloat op(weights.data(), attrs);

  Tensor out(DataType::kFloat32, Shape{1, geo.out_h(), geo.out_w(), out_c});
  gemm::Context ctx(1);
  op.Run(input, out, ctx);

  std::vector<float> expected(out.num_elements());
  RefConv2DFloat(input.data<float>(), weights.data(), geo, 0.0f, nullptr,
                 bias.data(), Activation::kRelu, expected.data());
  for (std::int64_t i = 0; i < out.num_elements(); ++i) {
    ASSERT_NEAR(out.data<float>()[i], expected[i],
                1e-4f * std::max(1.0f, std::abs(expected[i])))
        << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvFloatShapes,
    ::testing::Values(
        std::make_tuple(6, 3, 8, 3, 1, Padding::kSameZero),
        std::make_tuple(8, 16, 16, 3, 1, Padding::kValid),
        std::make_tuple(9, 4, 20, 5, 2, Padding::kSameZero),
        std::make_tuple(12, 3, 16, 7, 2, Padding::kSameZero),
        std::make_tuple(5, 10, 10, 1, 1, Padding::kValid),
        std::make_tuple(11, 7, 33, 3, 2, Padding::kValid)));

TEST(Conv2DFloat, OnePaddingForEmulatedBinarizedConv) {
  // SAME_ONE pads with +1.0 (used when executing the training dialect).
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 4;
  geo.in_c = 2;
  geo.out_c = 3;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameOne;

  Rng rng(4);
  Tensor input(DataType::kFloat32, Shape{1, 4, 4, 2});
  FillSigns(input, rng);
  std::vector<float> weights(3 * 3 * 3 * 2);
  for (auto& v : weights) v = rng.Sign();

  Conv2DFloatAttrs attrs;
  attrs.geo = geo;
  Conv2DFloat op(weights.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, 4, 4, 3});
  gemm::Context ctx(1);
  op.Run(input, out, ctx);

  std::vector<float> expected(out.num_elements());
  RefConv2DFloat(input.data<float>(), weights.data(), geo, 1.0f, nullptr,
                 nullptr, Activation::kNone, expected.data());
  for (std::int64_t i = 0; i < out.num_elements(); ++i) {
    ASSERT_EQ(out.data<float>()[i], expected[i]);
  }
}

// Engine float conv vs the im2col + FloatGemm oracle, bit for bit:
// (threads, stride, padding, filter, in_c, batch).
class ConvFloatEngine
    : public ::testing::TestWithParam<
          std::tuple<int, int, Padding, int, int, int>> {};

TEST_P(ConvFloatEngine, BitIdenticalToIm2ColGemmOracle) {
  const auto [threads, stride, pad, k, in_c, batch] = GetParam();
  Conv2DGeometry geo;
  geo.batch = batch;
  geo.in_h = 13;  // odd, so the last row tile is partial for most shapes
  geo.in_w = 11;
  geo.in_c = in_c;
  geo.out_c = 20;  // one full and one partial 16-wide B tile
  geo.filter_h = geo.filter_w = k;
  geo.stride_h = geo.stride_w = stride;
  geo.padding = pad;

  Rng rng(threads * 131 + stride * 17 + k * 7 + in_c + batch * 3 +
          static_cast<int>(pad));
  Tensor input(DataType::kFloat32,
               Shape{batch, geo.in_h, geo.in_w, geo.in_c});
  FillUniform(input, rng);
  std::vector<float> weights(static_cast<std::size_t>(geo.out_c) * k * k *
                             in_c);
  for (auto& v : weights) v = rng.Uniform(-1.0f, 1.0f);
  // Cover both epilogue forms: bias + ReLU, and the bare accumulator
  // (no bias add at all, so -0.0 sums must survive).
  const bool epilogue = stride == 1;
  std::vector<float> bias;
  if (epilogue) {
    bias.resize(geo.out_c);
    for (auto& v : bias) v = rng.Uniform(-1.0f, 1.0f);
  }
  const Activation act = epilogue ? Activation::kRelu : Activation::kNone;

  Conv2DFloatAttrs attrs;
  attrs.geo = geo;
  attrs.activation = act;
  attrs.bias = bias;
  Conv2DFloat op(weights.data(), attrs);
  Tensor out(DataType::kFloat32,
             Shape{batch, geo.out_h(), geo.out_w(), geo.out_c});
  gemm::Context ctx(threads);
  op.Run(input, out, ctx);

  std::vector<float> expected(out.num_elements());
  gemm::Context oracle_ctx(1);
  RefConv2DFloatIm2ColGemm(input.data<float>(), weights.data(), geo,
                           bias.empty() ? nullptr : bias.data(), act,
                           oracle_ctx, expected.data());
  ASSERT_EQ(std::memcmp(out.data<float>(), expected.data(),
                        expected.size() * sizeof(float)),
            0);
  // The oracle itself still agrees with the naive loop nest.
  std::vector<float> naive(out.num_elements());
  RefConv2DFloat(input.data<float>(), weights.data(), geo,
                 pad == Padding::kSameOne ? 1.0f : 0.0f, nullptr,
                 bias.empty() ? nullptr : bias.data(), act, naive.data());
  for (std::size_t i = 0; i < naive.size(); ++i) {
    ASSERT_NEAR(expected[i], naive[i],
                1e-4f * std::max(1.0f, std::abs(naive[i])))
        << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvFloatEngine,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Values(1, 2),
                       ::testing::Values(Padding::kValid, Padding::kSameZero,
                                         Padding::kSameOne),
                       ::testing::Values(1, 3), ::testing::Values(3, 16, 64),
                       ::testing::Values(1, 4)));

TEST(Conv2DFloat, ScalarProfileMatchesScalarOracle) {
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 10;
  geo.in_c = 8;
  geo.out_c = 24;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameZero;
  Rng rng(21);
  Tensor input(DataType::kFloat32, Shape{1, 10, 10, 8});
  FillUniform(input, rng);
  std::vector<float> weights(24 * 3 * 3 * 8);
  for (auto& v : weights) v = rng.Uniform(-1.0f, 1.0f);
  Conv2DFloatAttrs attrs;
  attrs.geo = geo;
  Conv2DFloat op(weights.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, 10, 10, 24});
  gemm::Context ctx(4, gemm::KernelProfile::kScalar);
  op.Run(input, out, ctx);
  std::vector<float> expected(out.num_elements());
  gemm::Context oracle_ctx(1, gemm::KernelProfile::kScalar);
  RefConv2DFloatIm2ColGemm(input.data<float>(), weights.data(), geo, nullptr,
                           Activation::kNone, oracle_ctx, expected.data());
  ASSERT_EQ(std::memcmp(out.data<float>(), expected.data(),
                        expected.size() * sizeof(float)),
            0);
}

TEST(Conv2DFloat, ShapeBucketSiblingsShareWeightsAndStayBitExact) {
  // The QuickNet stem conv at its compiled 224 px resolution, then the
  // 96/160/320 px shape-bucket siblings built from it (shared packed
  // weights, own indirection cache and tile plan).
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 224;
  geo.in_c = 3;
  geo.out_c = 16;
  geo.filter_h = geo.filter_w = 3;
  geo.stride_h = geo.stride_w = 2;
  geo.padding = Padding::kSameZero;
  Rng rng(5);
  std::vector<float> weights(16 * 3 * 3 * 3);
  for (auto& v : weights) v = rng.Uniform(-1.0f, 1.0f);
  std::vector<float> bias(16);
  for (auto& v : bias) v = rng.Uniform(-1.0f, 1.0f);
  Conv2DFloatAttrs attrs;
  attrs.geo = geo;
  attrs.activation = Activation::kRelu;
  attrs.bias = bias;
  const Conv2DFloat root(weights.data(), attrs);
  for (int hw : {96, 160, 320}) {
    Conv2DFloatAttrs sibling_attrs = attrs;
    sibling_attrs.geo.in_h = sibling_attrs.geo.in_w = hw;
    const Conv2DFloat sibling(root, sibling_attrs);
    const Conv2DGeometry& g = sibling_attrs.geo;
    Tensor input(DataType::kFloat32, Shape{1, hw, hw, 3});
    FillUniform(input, rng);
    Tensor out(DataType::kFloat32, Shape{1, g.out_h(), g.out_w(), 16});
    gemm::Context ctx(4);
    sibling.Run(input, out, ctx);
    std::vector<float> expected(out.num_elements());
    gemm::Context oracle_ctx(1);
    RefConv2DFloatIm2ColGemm(input.data<float>(), weights.data(), g,
                             bias.data(), Activation::kRelu, oracle_ctx,
                             expected.data());
    ASSERT_EQ(std::memcmp(out.data<float>(), expected.data(),
                          expected.size() * sizeof(float)),
              0)
        << hw << " px";
  }
}

TEST(DepthwiseConv, MatchesReference) {
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 7;
  geo.in_c = geo.out_c = 12;
  geo.filter_h = geo.filter_w = 3;
  geo.stride_h = geo.stride_w = 2;
  geo.padding = Padding::kSameZero;

  Rng rng(6);
  Tensor input(DataType::kFloat32, Shape{1, 7, 7, 12});
  FillUniform(input, rng);
  std::vector<float> weights(3 * 3 * 12);
  for (auto& v : weights) v = rng.Uniform();

  DepthwiseConv2DAttrs attrs;
  attrs.geo = geo;
  DepthwiseConv2DFloat op(weights.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, 4, 4, 12});
  op.Run(input, out);

  std::vector<float> expected(out.num_elements());
  RefDepthwiseConv2DFloat(input.data<float>(), weights.data(), geo, nullptr,
                          Activation::kNone, expected.data());
  for (std::int64_t i = 0; i < out.num_elements(); ++i) {
    ASSERT_NEAR(out.data<float>()[i], expected[i], 1e-5f);
  }
}

TEST(DepthwiseConv, BlurKernelSumsToOne) {
  const auto blur = MakeBlurKernel3x3(5);
  ASSERT_EQ(blur.size(), 45u);
  for (int c = 0; c < 5; ++c) {
    float sum = 0.0f;
    for (int p = 0; p < 9; ++p) sum += blur[p * 5 + c];
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
}

TEST(FullyConnected, MatchesNaive) {
  const int batch = 3, in = 50, out_f = 17;
  Rng rng(9);
  Tensor input(DataType::kFloat32, Shape{batch, in});
  FillUniform(input, rng);
  std::vector<float> weights(static_cast<std::size_t>(out_f) * in);
  for (auto& v : weights) v = rng.Uniform();
  std::vector<float> bias(out_f);
  for (auto& v : bias) v = rng.Uniform();

  FullyConnectedAttrs attrs;
  attrs.in_features = in;
  attrs.out_features = out_f;
  attrs.bias = bias;
  attrs.activation = Activation::kSigmoid;
  FullyConnectedFloat op(weights.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{batch, out_f});
  gemm::Context ctx(1);
  op.Run(input, out, ctx);

  for (int b = 0; b < batch; ++b) {
    for (int n = 0; n < out_f; ++n) {
      double acc = bias[n];
      for (int i = 0; i < in; ++i) {
        acc += static_cast<double>(input.data<float>()[b * in + i]) *
               weights[static_cast<std::size_t>(n) * in + i];
      }
      const float expected = ApplyActivation(static_cast<float>(acc),
                                             Activation::kSigmoid);
      ASSERT_NEAR(out.data<float>()[b * out_f + n], expected, 1e-5f);
    }
  }
}

}  // namespace
}  // namespace lce
