// Float GEMM tests against a naive triple loop, both kernel profiles,
// edge tiles and prepacked reuse.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "core/random.h"
#include "gemm/float_gemm.h"

namespace lce::gemm {
namespace {

void NaiveGemm(const std::vector<float>& lhs, const std::vector<float>& rhs,
               int m, int n, int k, std::vector<float>* out) {
  out->assign(static_cast<std::size_t>(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(lhs[static_cast<std::size_t>(i) * k + kk]) *
               rhs[static_cast<std::size_t>(j) * k + kk];
      }
      (*out)[static_cast<std::size_t>(i) * n + j] = static_cast<float>(acc);
    }
  }
}

class FloatGemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(FloatGemmShapes, MatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(m * 7 + n * 3 + k);
  std::vector<float> lhs(static_cast<std::size_t>(m) * k);
  std::vector<float> rhs(static_cast<std::size_t>(n) * k);
  for (auto& v : lhs) v = rng.Uniform();
  for (auto& v : rhs) v = rng.Uniform();
  std::vector<float> expected;
  NaiveGemm(lhs, rhs, m, n, k, &expected);

  Context ctx(1);
  std::vector<float> out(static_cast<std::size_t>(m) * n);
  FloatGemm(lhs.data(), m, rhs.data(), n, k, out.data(), n, ctx);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], expected[i], 1e-4f * std::max(1.0f, std::abs(expected[i])))
        << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, FloatGemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 16, 8),
                      std::make_tuple(4, 16, 32), std::make_tuple(5, 17, 3),
                      std::make_tuple(3, 50, 27), std::make_tuple(64, 64, 147),
                      std::make_tuple(31, 33, 65),
                      std::make_tuple(100, 10, 576)));

TEST(FloatGemm, ProfilesAgree) {
  const int m = 19, n = 37, k = 123;
  Rng rng(5);
  std::vector<float> lhs(static_cast<std::size_t>(m) * k);
  std::vector<float> rhs(static_cast<std::size_t>(n) * k);
  for (auto& v : lhs) v = rng.Uniform();
  for (auto& v : rhs) v = rng.Uniform();
  std::vector<float> simd(static_cast<std::size_t>(m) * n);
  std::vector<float> scalar(simd.size());
  {
    Context ctx(1, KernelProfile::kSimd);
    FloatGemm(lhs.data(), m, rhs.data(), n, k, simd.data(), n, ctx);
  }
  {
    Context ctx(1, KernelProfile::kScalar);
    FloatGemm(lhs.data(), m, rhs.data(), n, k, scalar.data(), n, ctx);
  }
  for (std::size_t i = 0; i < simd.size(); ++i) {
    EXPECT_NEAR(simd[i], scalar[i], 1e-4f) << i;
  }
}

TEST(FloatGemm, MultithreadedMatches) {
  const int m = 70, n = 20, k = 64;
  Rng rng(8);
  std::vector<float> lhs(static_cast<std::size_t>(m) * k);
  std::vector<float> rhs(static_cast<std::size_t>(n) * k);
  for (auto& v : lhs) v = rng.Uniform();
  for (auto& v : rhs) v = rng.Uniform();
  std::vector<float> expected;
  NaiveGemm(lhs, rhs, m, n, k, &expected);
  Context ctx(3);
  std::vector<float> out(static_cast<std::size_t>(m) * n);
  FloatGemm(lhs.data(), m, rhs.data(), n, k, out.data(), n, ctx);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], expected[i], 1e-4f);
  }
}

TEST(FloatGemm, FewRowsShardOverColumnsBitIdentical) {
  // Fewer row tiles than threads (a batch-1 classifier is one row) shards
  // over B tiles instead; the result must not depend on the split.
  for (const int m : {1, 5}) {
    const int n = 1000, k = 96;
    Rng rng(m);
    std::vector<float> lhs(static_cast<std::size_t>(m) * k);
    std::vector<float> rhs(static_cast<std::size_t>(n) * k);
    for (auto& v : lhs) v = rng.Uniform();
    for (auto& v : rhs) v = rng.Uniform();
    const PackedFloatMatrix packed(rhs.data(), n, k);
    std::vector<float> one(static_cast<std::size_t>(m) * n);
    std::vector<float> four(one.size());
    Context ctx1(1);
    FloatGemm(lhs.data(), m, packed, one.data(), n, ctx1);
    Context ctx4(4);
    FloatGemm(lhs.data(), m, packed, four.data(), n, ctx4);
    EXPECT_EQ(std::memcmp(one.data(), four.data(), one.size() * sizeof(float)),
              0)
        << "m=" << m;
  }
}

TEST(FloatGemm, ExactForSmallIntegers) {
  // Integer-valued inputs below the fp32 exact range must produce exact
  // results -- the property the training-vs-converted equivalence tests for
  // binarized convolutions rely on.
  const int m = 8, n = 24, k = 100;
  Rng rng(12);
  std::vector<float> lhs(static_cast<std::size_t>(m) * k);
  std::vector<float> rhs(static_cast<std::size_t>(n) * k);
  for (auto& v : lhs) v = rng.Sign();
  for (auto& v : rhs) v = rng.Sign();
  std::vector<float> expected;
  NaiveGemm(lhs, rhs, m, n, k, &expected);
  Context ctx(1);
  std::vector<float> out(static_cast<std::size_t>(m) * n);
  FloatGemm(lhs.data(), m, rhs.data(), n, k, out.data(), n, ctx);
  EXPECT_EQ(out, expected);
}

}  // namespace
}  // namespace lce::gemm
