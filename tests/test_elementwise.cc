// Element-wise operator tests: Add, ReLU, BatchNorm folding, Softmax, and
// the row-parallel Add / LceQuantize against their serial form.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/bitpack.h"
#include "core/random.h"
#include "core/thread_pool.h"
#include "kernels/elementwise.h"
#include "kernels/quantize_ops.h"

namespace lce {
namespace {

TEST(AddFloat, RowParallelMatchesSerial) {
  ThreadPool pool(4);
  // 3 pixels (fewer than the threads) and 7x5 pixels of 37 channels.
  for (const Shape& shape : {Shape{1, 1, 3, 5}, Shape{1, 7, 5, 37}}) {
    Rng rng(shape.dim(3));
    Tensor a(DataType::kFloat32, shape);
    Tensor b(DataType::kFloat32, shape);
    FillUniform(a, rng);
    FillUniform(b, rng);
    for (Activation act : {Activation::kNone, Activation::kRelu}) {
      Tensor serial(DataType::kFloat32, shape);
      Tensor parallel(DataType::kFloat32, shape);
      AddFloat(a, b, act, serial);
      AddFloat(a, b, act, parallel, &pool);
      EXPECT_EQ(std::memcmp(serial.raw_data(), parallel.raw_data(),
                            serial.num_elements() * sizeof(float)),
                0);
    }
  }
}

TEST(LceQuantize, RowParallelMatchesSerial) {
  ThreadPool pool(4);
  // Channel counts with and without a partial last word.
  for (const Shape& shape : {Shape{1, 1, 2, 40}, Shape{1, 9, 7, 64}}) {
    Rng rng(shape.dim(3));
    Tensor x(DataType::kFloat32, shape);
    FillUniform(x, rng);
    Tensor serial(DataType::kBitpacked, shape);
    Tensor parallel(DataType::kBitpacked, shape);
    LceQuantize(x, serial);
    LceQuantize(x, parallel, &pool);
    const std::int64_t words =
        shape.dim(0) * shape.dim(1) * shape.dim(2) * BitpackedWords(shape.dim(3));
    EXPECT_EQ(std::memcmp(serial.raw_data(), parallel.raw_data(),
                          words * sizeof(TBitpacked)),
              0);
  }
}

// QuantizeInt8 (the QuantizeInt8 op's kernel) against the scalar
// QuantizeValue it must reproduce bit for bit, on the inputs where a
// vectorized round/saturate most easily drifts: NaN, +-inf, exact .5
// ties on both sides of zero, the clamp rails, denormals, and random bit
// patterns. Counts that are not a multiple of 16 exercise the scalar tail.
TEST(QuantizeInt8, SimdMatchesQuantizeValue) {
  std::vector<float> special = {
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::min(),
      std::numeric_limits<float>::max(),
      std::numeric_limits<float>::lowest(),
      0.0f, -0.0f, 0.49999997f, -0.49999997f, 8388607.5f, -8388607.5f,
      16777216.0f, -16777217.0f};
  for (int t = -300; t <= 300; ++t) {
    special.push_back(0.5f * static_cast<float>(t));  // ties and integers
    special.push_back(std::nextafter(0.5f * static_cast<float>(t), 0.0f));
  }
  Rng rng(0x5EED);
  std::vector<float> random(100003);
  for (float& v : random) {
    const auto bits = static_cast<std::uint32_t>(rng.Next());
    std::memcpy(&v, &bits, sizeof(v));
  }
  const QuantParams params[] = {
      {1.0f, 0},    {0.5f, 3},   {0.02f, -128}, {0.1f, 127},
      {3.0f, -7},   {1e-30f, 0}, {1e30f, 5},
      {std::numeric_limits<float>::denorm_min(), -1}};
  for (const std::vector<float>* in : {&special, &random}) {
    for (const QuantParams& q : params) {
      std::vector<std::int8_t> ref(in->size()), simd(in->size());
      QuantizeInt8Reference(in->data(), static_cast<std::int64_t>(in->size()),
                            q, ref.data());
      QuantizeInt8(in->data(), static_cast<std::int64_t>(in->size()), q,
                   /*simd=*/true, simd.data());
      for (std::size_t i = 0; i < in->size(); ++i) {
        ASSERT_EQ(ref[i], QuantizeValue((*in)[i], q));
        ASSERT_EQ(simd[i], ref[i])
            << "v=" << (*in)[i] << " scale=" << q.scale
            << " zero_point=" << q.zero_point << " i=" << i;
      }
    }
  }
}

TEST(AddFloat, ElementwiseSumWithActivation) {
  Rng rng(1);
  Tensor a(DataType::kFloat32, Shape{1, 2, 2, 3});
  Tensor b(DataType::kFloat32, a.shape());
  FillUniform(a, rng, -1.0f, 1.0f);
  FillUniform(b, rng, -1.0f, 1.0f);
  Tensor out(DataType::kFloat32, a.shape());
  AddFloat(a, b, Activation::kRelu, out);
  for (std::int64_t i = 0; i < a.num_elements(); ++i) {
    const float expected =
        std::max(0.0f, a.data<float>()[i] + b.data<float>()[i]);
    EXPECT_FLOAT_EQ(out.data<float>()[i], expected);
  }
}

TEST(ReluFloat, ClampsNegatives) {
  Tensor x(DataType::kFloat32, Shape{4});
  x.data<float>()[0] = -1.0f;
  x.data<float>()[1] = 0.0f;
  x.data<float>()[2] = 2.5f;
  x.data<float>()[3] = -0.0f;
  Tensor out(DataType::kFloat32, Shape{4});
  ReluFloat(x, out);
  EXPECT_EQ(out.data<float>()[0], 0.0f);
  EXPECT_EQ(out.data<float>()[1], 0.0f);
  EXPECT_EQ(out.data<float>()[2], 2.5f);
  EXPECT_EQ(out.data<float>()[3], 0.0f);
}

TEST(BatchNorm, PerChannelAffine) {
  Tensor x(DataType::kFloat32, Shape{1, 1, 2, 2});
  x.data<float>()[0] = 1.0f;
  x.data<float>()[1] = 2.0f;
  x.data<float>()[2] = 3.0f;
  x.data<float>()[3] = 4.0f;
  Tensor out(DataType::kFloat32, x.shape());
  BatchNormFloat(x, {2.0f, -1.0f}, {0.5f, 10.0f}, out);
  EXPECT_FLOAT_EQ(out.data<float>()[0], 2.5f);
  EXPECT_FLOAT_EQ(out.data<float>()[1], 8.0f);
  EXPECT_FLOAT_EQ(out.data<float>()[2], 6.5f);
  EXPECT_FLOAT_EQ(out.data<float>()[3], 6.0f);
}

TEST(BatchNorm, FoldMatchesDefinition) {
  // scale = gamma / sqrt(var + eps); offset = beta - mean * scale.
  std::vector<float> gamma{1.0f, 2.0f}, beta{0.5f, -0.5f}, mean{1.0f, -2.0f},
      var{4.0f, 0.25f};
  std::vector<float> scale, offset;
  FoldBatchNorm(gamma, beta, mean, var, /*epsilon=*/0.0f, &scale, &offset);
  EXPECT_FLOAT_EQ(scale[0], 0.5f);
  EXPECT_FLOAT_EQ(scale[1], 4.0f);
  EXPECT_FLOAT_EQ(offset[0], 0.0f);
  EXPECT_FLOAT_EQ(offset[1], 7.5f);

  // The folded affine must equal normalize-then-scale-shift.
  for (float x : {-3.0f, 0.0f, 1.7f}) {
    for (int c = 0; c < 2; ++c) {
      const float direct =
          gamma[c] * (x - mean[c]) / std::sqrt(var[c]) + beta[c];
      EXPECT_NEAR(x * scale[c] + offset[c], direct, 1e-5f);
    }
  }
}

TEST(Softmax, NormalizesAndOrders) {
  Tensor x(DataType::kFloat32, Shape{2, 3});
  const float vals[6] = {1.0f, 2.0f, 3.0f, -1.0f, -1.0f, -1.0f};
  std::copy(vals, vals + 6, x.data<float>());
  Tensor out(DataType::kFloat32, x.shape());
  SoftmaxFloat(x, out);
  float sum0 = 0.0f;
  for (int i = 0; i < 3; ++i) sum0 += out.data<float>()[i];
  EXPECT_NEAR(sum0, 1.0f, 1e-6f);
  EXPECT_LT(out.data<float>()[0], out.data<float>()[1]);
  EXPECT_LT(out.data<float>()[1], out.data<float>()[2]);
  // Uniform row -> uniform probabilities.
  for (int i = 3; i < 6; ++i) {
    EXPECT_NEAR(out.data<float>()[i], 1.0f / 3.0f, 1e-6f);
  }
}

TEST(Softmax, LargeLogitsAreStable) {
  Tensor x(DataType::kFloat32, Shape{1, 2});
  x.data<float>()[0] = 1000.0f;
  x.data<float>()[1] = 999.0f;
  Tensor out(DataType::kFloat32, x.shape());
  SoftmaxFloat(x, out);
  EXPECT_FALSE(std::isnan(out.data<float>()[0]));
  EXPECT_NEAR(out.data<float>()[0] + out.data<float>()[1], 1.0f, 1e-6f);
}

}  // namespace
}  // namespace lce
