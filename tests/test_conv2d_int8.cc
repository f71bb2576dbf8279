// Quantized Conv2D tests: the int8 kernel must approximate the float
// convolution of the dequantized data to within quantization error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/random.h"
#include "kernels/conv2d_int8.h"
#include "kernels/pipeline/output_transform.h"
#include "kernels/reference.h"

namespace lce {
namespace {

TEST(Conv2DInt8, ApproximatesFloatConv) {
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 8;
  geo.in_c = 16;
  geo.out_c = 24;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameZero;

  Rng rng(42);
  // Float data in [-1, 1]; weights in [-0.2, 0.2].
  std::vector<float> input_f(static_cast<std::size_t>(8) * 8 * 16);
  for (auto& v : input_f) v = rng.Uniform(-1.0f, 1.0f);
  std::vector<float> weights_f(static_cast<std::size_t>(24) * 9 * 16);
  for (auto& v : weights_f) v = rng.Uniform(-0.2f, 0.2f);

  Conv2DInt8Attrs attrs;
  attrs.geo = geo;
  attrs.input_quant = ChooseQuantParams(-1.0f, 1.0f);
  attrs.weight_quant = ChooseQuantParams(-0.2f, 0.2f, /*symmetric=*/true);
  attrs.output_quant = ChooseQuantParams(-8.0f, 8.0f);

  // Quantize operands.
  Tensor input_q(DataType::kInt8, Shape{1, 8, 8, 16});
  for (std::size_t i = 0; i < input_f.size(); ++i) {
    input_q.data<std::int8_t>()[i] = QuantizeValue(input_f[i], attrs.input_quant);
  }
  std::vector<std::int8_t> weights_q(weights_f.size());
  for (std::size_t i = 0; i < weights_f.size(); ++i) {
    weights_q[i] = QuantizeValue(weights_f[i], attrs.weight_quant);
  }

  Conv2DInt8 op(weights_q.data(), attrs);
  Tensor out_q(DataType::kInt8, Shape{1, 8, 8, 24});
  gemm::Context ctx(1);
  op.Run(input_q, out_q, ctx);

  // Float reference on the *dequantized* operands (so only output
  // requantization error remains).
  std::vector<float> input_dq(input_f.size());
  for (std::size_t i = 0; i < input_f.size(); ++i) {
    input_dq[i] = DequantizeValue(input_q.data<std::int8_t>()[i], attrs.input_quant);
  }
  std::vector<float> weights_dq(weights_f.size());
  for (std::size_t i = 0; i < weights_f.size(); ++i) {
    weights_dq[i] = DequantizeValue(weights_q[i], attrs.weight_quant);
  }
  std::vector<float> expected(out_q.num_elements());
  RefConv2DFloat(input_dq.data(), weights_dq.data(), geo, 0.0f, nullptr,
                 nullptr, Activation::kNone, expected.data());

  for (std::int64_t i = 0; i < out_q.num_elements(); ++i) {
    const float got =
        DequantizeValue(out_q.data<std::int8_t>()[i], attrs.output_quant);
    ASSERT_NEAR(got, expected[i], 2.0f * attrs.output_quant.scale) << i;
  }
}

TEST(Conv2DInt8, FusedReluClampsAtZeroPoint) {
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 4;
  geo.in_c = 8;
  geo.out_c = 8;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameZero;

  Rng rng(11);
  Tensor input_q(DataType::kInt8, Shape{1, 4, 4, 8});
  FillInt8(input_q, rng);
  std::vector<std::int8_t> weights_q(static_cast<std::size_t>(8) * 9 * 8);
  for (auto& v : weights_q) v = rng.Int8(-127, 127);

  Conv2DInt8Attrs attrs;
  attrs.geo = geo;
  attrs.activation = Activation::kRelu;
  attrs.input_quant = {0.02f, 3};
  attrs.weight_quant = {0.005f, 0};
  attrs.output_quant = {0.05f, -10};
  Conv2DInt8 op(weights_q.data(), attrs);
  Tensor out_q(DataType::kInt8, geo.batch == 1 ? Shape{1, 4, 4, 8} : Shape{});
  gemm::Context ctx(1);
  op.Run(input_q, out_q, ctx);

  // ReLU in the quantized domain: no output below the zero point.
  for (std::int64_t i = 0; i < out_q.num_elements(); ++i) {
    EXPECT_GE(out_q.data<std::int8_t>()[i], -10);
  }
}

TEST(Conv2DInt8, ZeroPointPaddingContributesNothing) {
  // With input == zero_point everywhere, every output must be the bias-only
  // value regardless of padding: quantized convolution of "all real zeros".
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 5;
  geo.in_c = 4;
  geo.out_c = 4;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameZero;

  Conv2DInt8Attrs attrs;
  attrs.geo = geo;
  attrs.input_quant = {0.1f, 7};
  attrs.weight_quant = {0.01f, 0};
  attrs.output_quant = {0.1f, 0};

  Tensor input_q(DataType::kInt8, Shape{1, 5, 5, 4});
  std::fill_n(input_q.data<std::int8_t>(), input_q.num_elements(),
              static_cast<std::int8_t>(7));
  Rng rng(14);
  std::vector<std::int8_t> weights_q(static_cast<std::size_t>(4) * 9 * 4);
  for (auto& v : weights_q) v = rng.Int8(-127, 127);

  Conv2DInt8 op(weights_q.data(), attrs);
  Tensor out_q(DataType::kInt8, Shape{1, 5, 5, 4});
  gemm::Context ctx(1);
  op.Run(input_q, out_q, ctx);
  for (std::int64_t i = 0; i < out_q.num_elements(); ++i) {
    EXPECT_EQ(out_q.data<std::int8_t>()[i], 0) << i;
  }
}

// One-pixel 1x1 convolution with a single channel: acc = input * weight.
// Runs it on a SIMD and a scalar-profile context and returns both outputs.
std::vector<int> RunOnePixel(std::int8_t input,
                                                std::int8_t weight,
                                                const Conv2DInt8Attrs& base) {
  Conv2DInt8Attrs attrs = base;
  attrs.geo.in_h = attrs.geo.in_w = 1;
  attrs.geo.in_c = attrs.geo.out_c = 1;
  attrs.geo.filter_h = attrs.geo.filter_w = 1;
  Conv2DInt8 op(&weight, attrs);
  Tensor in(DataType::kInt8, Shape{1, 1, 1, 1});
  in.data<std::int8_t>()[0] = input;
  Tensor out(DataType::kInt8, Shape{1, 1, 1, 1});
  gemm::Context simd_ctx(1);
  op.Run(in, out, simd_ctx);
  const int simd = out.data<std::int8_t>()[0];
  gemm::Context scalar_ctx(1, gemm::KernelProfile::kScalar);
  op.Run(in, out, scalar_ctx);
  return {simd, out.data<std::int8_t>()[0]};
}

// The requantize arithmetic saturates instead of wrapping: a huge real
// multiplier (1e12, shift 40) saturates the fixed-point product, and the
// z_out add after it must not wrap past INT32_MAX to the lower rail; a bias
// of INT32_MAX must not wrap the offset sum either.
TEST(Conv2DInt8, RequantSaturatesInsteadOfWrapping) {
  Conv2DInt8Attrs attrs;
  attrs.input_quant = {1e6f, 0};
  attrs.weight_quant = {1e6f, 0};
  attrs.output_quant = {1.0f, 5};
  // acc = 10 * 100 = 1000; 1000 * 1e12 is far past INT32_MAX.
  EXPECT_EQ(RunOnePixel(10, 100, attrs), (std::vector<int>{127, 127}));
  EXPECT_EQ(RunOnePixel(-10, 100, attrs),
            (std::vector<int>{-128, -128}));

  attrs.input_quant = {1e-3f, 0};
  attrs.weight_quant = {1e-3f, 0};  // real multiplier 1e-6
  attrs.bias = {std::numeric_limits<std::int32_t>::max()};
  EXPECT_EQ(RunOnePixel(10, 100, attrs), (std::vector<int>{127, 127}));
  attrs.bias = {std::numeric_limits<std::int32_t>::min()};
  EXPECT_EQ(RunOnePixel(-10, 100, attrs),
            (std::vector<int>{-128, -128}));
}

// Independent statement of the saturating requantize definition (int64
// sums, saturated to int32 before the multiply and before the clamp).
std::int8_t ExpectedRequant(std::int32_t acc, std::int64_t offset,
                            std::int32_t mult, int shift, std::int32_t z_out,
                            std::int32_t act_min, std::int32_t act_max) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  const auto x =
      static_cast<std::int32_t>(std::clamp<std::int64_t>(acc + offset, kMin, kMax));
  const std::int64_t y =
      std::clamp<std::int64_t>(
          static_cast<std::int64_t>(MultiplyByQuantizedMultiplier(x, mult, shift)) +
              z_out,
          kMin, kMax);
  return static_cast<std::int8_t>(std::clamp<std::int64_t>(y, act_min, act_max));
}

// The 16-channel SIMD requantize epilogue against the scalar reference
// loop and the definition above: every shift in [-31, 40], per-tensor and
// per-channel parameters, channel counts with and without a partial
// 16-lane block, each activation clamp, and accumulators, biases and
// row sums at the int32 edges.
TEST(Int8Requant, SimdMatchesReference) {
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  const std::int32_t edges[] = {kMin,     kMin + 1, kMin / 2, -65536, -1000,
                                -1,       0,        1,        999,    65535,
                                kMax / 2, kMax - 1, kMax};
  struct Clamp {
    std::int32_t z_out, act_min, act_max;
  };
  const Clamp clamps[] = {{-4, -128, 127},    // None
                          {-128, -128, 127},  // ReLU at the lower rail
                          {5, 5, 127},        // ReLU
                          {-10, -10, 50},     // ReLU6
                          {127, 127, 127}};
  Rng rng(1234);
  for (const int out_c : {1, 3, 16, 17, 64, 130}) {
    const int rows = 29;
    std::vector<std::int32_t> acc(static_cast<std::size_t>(rows) * out_c);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      acc[i] = i % 3 == 0 ? edges[rng.UniformInt(std::size(edges))]
                          : static_cast<std::int32_t>(rng.Next());
    }
    std::vector<std::int32_t> row_sums(out_c), bias(out_c);
    for (int n = 0; n < out_c; ++n) {
      row_sums[n] = n % 4 == 0 ? edges[rng.UniformInt(std::size(edges))]
                               : static_cast<std::int32_t>(rng.UniformInt(20001)) - 10000;
      bias[n] = n % 5 == 0 ? edges[rng.UniformInt(std::size(edges))]
                           : static_cast<std::int32_t>(rng.Next());
    }
    for (const bool per_channel : {false, true}) {
      for (int shift0 = -31; shift0 <= 40; ++shift0) {
        // Per-tensor: one shift per pass. Per-channel: every channel a
        // different shift, rotating through the whole range across passes.
        std::vector<std::int32_t> mult(per_channel ? out_c : 1);
        std::vector<int> shift(mult.size());
        for (std::size_t n = 0; n < mult.size(); ++n) {
          mult[n] = (1 << 30) + static_cast<std::int32_t>(rng.UniformInt(1u << 30));
          shift[n] = -31 + static_cast<int>((shift0 + 31 + 7 * n) % 72);
        }
        const Clamp& cl = clamps[(shift0 + 31) % std::size(clamps)];
        const std::int32_t z_in = shift0 % 2 == 0 ? -128 : 127;
        pipeline::Int8RequantTransform t(out_c, z_in, cl.z_out, row_sums.data(),
                                         bias, mult, shift, cl.act_min,
                                         cl.act_max);
        std::vector<std::int8_t> simd(acc.size()), ref(acc.size());
        t.Apply(acc.data(), 0, rows, simd.data());
        t.ApplyReference(acc.data(), 0, rows, ref.data());
        for (int r = 0; r < rows; ++r) {
          for (int n = 0; n < out_c; ++n) {
            const std::size_t i = static_cast<std::size_t>(r) * out_c + n;
            const std::size_t q = per_channel ? n : 0;
            const std::int64_t offset =
                static_cast<std::int64_t>(bias[n]) -
                static_cast<std::int64_t>(z_in) * row_sums[n];
            ASSERT_EQ(ref[i], ExpectedRequant(acc[i], offset, mult[q],
                                              shift[q], cl.z_out, cl.act_min,
                                              cl.act_max))
                << "out_c=" << out_c << " shift=" << shift[q] << " acc=" << acc[i];
            ASSERT_EQ(simd[i], ref[i])
                << "out_c=" << out_c << " per_channel=" << per_channel
                << " shift=" << shift[q] << " acc=" << acc[i]
                << " offset=" << offset << " row=" << r << " channel=" << n;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace lce
