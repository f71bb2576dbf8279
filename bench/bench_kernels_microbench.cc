// Google-benchmark micro-suite for the individual kernels: BGEMM vs the
// float/int8 GEMMs, bitpacking, the binary max pool and the bconv output
// transforms. Complements the table/figure harnesses with statistically
// robust per-kernel numbers (real time, iterations auto-tuned).
#include <benchmark/benchmark.h>

#include <vector>

#include "core/bitpack.h"
#include "core/random.h"
#include "gemm/bgemm.h"
#include "gemm/float_gemm.h"
#include "gemm/int8_gemm.h"
#include "kernels/bconv2d.h"
#include "kernels/bmaxpool.h"
#include "kernels/quantize_ops.h"
#include "kernels/reference.h"

namespace {

using namespace lce;

// GEMM dimensions modeled on conv C of Figure 2 (14x14x256x256, 3x3).
constexpr int kM = 196, kN = 256, kK = 2304;

void BM_BGemm(benchmark::State& state) {
  Rng rng(1);
  const int kw = BitpackedWords(kK);
  std::vector<TBitpacked> lhs(static_cast<std::size_t>(kM) * kw);
  std::vector<TBitpacked> rhs(static_cast<std::size_t>(kN) * kw);
  for (auto& v : lhs) v = static_cast<TBitpacked>(rng.Next());
  for (auto& v : rhs) v = static_cast<TBitpacked>(rng.Next());
  gemm::PackedBinaryMatrix packed(rhs.data(), kN, kw);
  std::vector<std::int32_t> out(static_cast<std::size_t>(kM) * kN);
  gemm::Context ctx(1);
  for (auto _ : state) {
    gemm::BGemm(lhs.data(), kM, packed, kK, out.data(), kN, ctx);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GMAC/s"] = benchmark::Counter(
      static_cast<double>(kM) * kN * kK * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BGemm);

void BM_FloatGemm(benchmark::State& state) {
  Rng rng(2);
  std::vector<float> lhs(static_cast<std::size_t>(kM) * kK);
  std::vector<float> rhs(static_cast<std::size_t>(kN) * kK);
  for (auto& v : lhs) v = rng.Uniform();
  for (auto& v : rhs) v = rng.Uniform();
  gemm::PackedFloatMatrix packed(rhs.data(), kN, kK);
  std::vector<float> out(static_cast<std::size_t>(kM) * kN);
  gemm::Context ctx(1);
  for (auto _ : state) {
    gemm::FloatGemm(lhs.data(), kM, packed, out.data(), kN, ctx);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GMAC/s"] = benchmark::Counter(
      static_cast<double>(kM) * kN * kK * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FloatGemm);

void BM_Int8DotGemm(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::int8_t> lhs(static_cast<std::size_t>(kM) * kK);
  std::vector<std::int8_t> rhs(static_cast<std::size_t>(kN) * kK);
  for (auto& v : lhs) v = rng.Int8();
  for (auto& v : rhs) v = rng.Int8();
  // kK is a multiple of the 4-byte K-group, so the rows need no padding.
  static_assert(kK % gemm::kInt8DotKg == 0);
  gemm::PackedInt8DotPanels panels(rhs.data(), kN, kK);
  const gemm::Int8Tier tier = gemm::SelectInt8Tier();
  std::vector<std::int32_t> out(static_cast<std::size_t>(kM) * kN);
  for (auto _ : state) {
    gemm::Int8DotComputeBlock(lhs.data(), kK, panels, tier, kM, out.data(),
                              kN);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(gemm::Int8TierName(tier));
  state.counters["GMAC/s"] = benchmark::Counter(
      static_cast<double>(kM) * kN * kK * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Int8DotGemm);

void BM_LceQuantize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  Tensor in(DataType::kFloat32, Shape{1, n, n, 256});
  FillUniform(in, rng);
  Tensor out(DataType::kBitpacked, in.shape());
  for (auto _ : state) {
    LceQuantize(in, out);
    benchmark::DoNotOptimize(out.raw_data());
  }
  state.SetBytesProcessed(state.iterations() * in.byte_size());
}
BENCHMARK(BM_LceQuantize)->Arg(14)->Arg(56);

void BM_LceBMaxPool(benchmark::State& state) {
  Rng rng(5);
  Tensor in(DataType::kBitpacked, Shape{1, 56, 56, 256});
  FillBitpacked(in, rng);
  Pool2DGeometry geo;
  geo.in_h = geo.in_w = 56;
  geo.channels = 256;
  geo.filter_h = geo.filter_w = 2;
  geo.stride_h = geo.stride_w = 2;
  geo.padding = Padding::kValid;
  Tensor out(DataType::kBitpacked, Shape{1, 28, 28, 256});
  for (auto _ : state) {
    LceBMaxPool2d(in, geo, out);
    benchmark::DoNotOptimize(out.raw_data());
  }
}
BENCHMARK(BM_LceBMaxPool);

void BM_BConv2D(benchmark::State& state) {
  const bool bitpacked_out = state.range(0) != 0;
  Conv2DGeometry g;
  g.in_h = g.in_w = 14;
  g.in_c = g.out_c = 256;
  g.filter_h = g.filter_w = 3;
  g.padding = Padding::kSameOne;
  Rng rng(6);
  Tensor in_f(DataType::kFloat32, Shape{1, 14, 14, 256});
  FillSigns(in_f, rng);
  Tensor in(DataType::kBitpacked, in_f.shape());
  BitpackTensor(in_f, in);
  std::vector<float> w(static_cast<std::size_t>(256) * 9 * 256);
  for (auto& v : w) v = rng.Sign();
  BConv2DAttrs attrs;
  attrs.geo = g;
  attrs.multiplier.assign(256, 0.02f);
  attrs.bias.assign(256, 0.1f);
  attrs.output_type =
      bitpacked_out ? BConvOutputType::kBitpacked : BConvOutputType::kFloat;
  BConv2D op(w.data(), attrs);
  Tensor out(bitpacked_out ? DataType::kBitpacked : DataType::kFloat32,
             Shape{1, 14, 14, 256});
  gemm::Context ctx(1);
  for (auto _ : state) {
    op.Run(in, out, ctx);
    benchmark::DoNotOptimize(out.raw_data());
  }
  state.counters["GMAC/s"] = benchmark::Counter(
      static_cast<double>(g.macs()) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BConv2D)->Arg(0)->Arg(1);

// Execution-mode comparison on a QuickNet-S shape (28x28x128, 3x3).
// Mode 0 = the full-image im2col + BGEMM oracle (kernels/reference.h),
// 1 = the fused tiled BConv2D (the production path). The second argument
// is the thread count, showing the fused pipeline's row-tile sharding.
void BM_BConv2DExecMode(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  Conv2DGeometry g;
  g.in_h = g.in_w = 28;
  g.in_c = g.out_c = 128;
  g.filter_h = g.filter_w = 3;
  g.padding = Padding::kSameOne;
  Rng rng(7);
  Tensor in_f(DataType::kFloat32, Shape{1, 28, 28, 128});
  FillSigns(in_f, rng);
  Tensor in(DataType::kBitpacked, in_f.shape());
  BitpackTensor(in_f, in);
  std::vector<float> w(static_cast<std::size_t>(128) * 9 * 128);
  for (auto& v : w) v = rng.Sign();
  BConv2DAttrs attrs;
  attrs.geo = g;
  attrs.output_type = BConvOutputType::kFloat;
  const RefBConv2DIm2ColBGemm oracle(w.data(), attrs);
  const BConv2D op(w.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, 28, 28, 128});
  gemm::Context ctx(threads);
  for (auto _ : state) {
    if (mode == 0) {
      oracle.Run(in, out, ctx);
    } else {
      op.Run(in, out, ctx);
    }
    benchmark::DoNotOptimize(out.raw_data());
  }
  state.counters["GMAC/s"] = benchmark::Counter(
      static_cast<double>(g.macs()) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BConv2DExecMode)
    ->ArgNames({"mode", "threads"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({1, 4});

}  // namespace

BENCHMARK_MAIN();
