// Two-way BConv2D execution ablation on the QuickNet-S 3x3 shapes:
//
//   im2col    -- full-image bitpacked im2col + packed BGEMM + full-image
//                accumulator (the retired unfused pipeline, timed as the
//                RefBConv2DIm2ColBGemm oracle of kernels/reference.h);
//   fused     -- the production BConv2D: cached indirection offsets +
//                row-tile pipeline (gather-pack -> SIMD BGEMM -> padding
//                correction -> output transform per cache-resident tile).
//
// `--json=<path>` writes a RunReport with per-shape milliseconds and the
// fused-vs-im2col speedups; the committed BENCH_bconv_fusion.json at the
// repo root is this report for the default single-threaded run.
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>

#include "bench_common.h"
#include "core/bitpack.h"
#include "kernels/bconv2d.h"
#include "kernels/reference.h"
#include "telemetry/metrics.h"
#include "telemetry/run_report.h"

namespace {

using namespace lce;
using namespace lce::bench;

// Measures the im2col oracle and the fused kernel on one shape with
// round-robin interleaved single-run samples: slow noise (frequency drift,
// other tenants on the core) hits both equally instead of corrupting
// whichever happened to be on the clock, which matters for the ratio this
// ablation exists to report. Returns {im2col, fused} median seconds.
std::array<double, 2> BConvModeLatencies(int hw, int channels, int kernel,
                                         gemm::Context& ctx) {
  Conv2DGeometry g;
  g.in_h = g.in_w = hw;
  g.in_c = g.out_c = channels;
  g.filter_h = g.filter_w = kernel;
  g.padding = kernel == 1 ? Padding::kValid : Padding::kSameOne;
  Rng rng(hw + channels + kernel);
  Tensor input_f(DataType::kFloat32, Shape{1, hw, hw, channels});
  FillSigns(input_f, rng);
  Tensor input(DataType::kBitpacked, input_f.shape());
  BitpackTensor(input_f, input);
  std::vector<float> w(static_cast<std::size_t>(channels) * kernel * kernel *
                       channels);
  for (auto& v : w) v = rng.Sign();

  BConv2DAttrs attrs;
  attrs.geo = g;
  attrs.output_type = BConvOutputType::kFloat;
  const RefBConv2DIm2ColBGemm im2col(w.data(), attrs);
  const BConv2D fused(w.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, g.out_h(), g.out_w(), channels});
  const std::function<void()> runs[2] = {
      [&] { im2col.Run(input, out, ctx); },
      [&] { fused.Run(input, out, ctx); }};
  constexpr int kWarmup = 2, kSamples = 41;
  std::array<std::vector<double>, 2> samples;
  for (int m = 0; m < 2; ++m) {
    for (int i = 0; i < kWarmup; ++i) runs[m]();
    samples[m].reserve(kSamples);
  }
  for (int s = 0; s < kSamples; ++s) {
    for (int m = 0; m < 2; ++m) {
      const double t0 = profiling::NowSeconds();
      runs[m]();
      samples[m].push_back(profiling::NowSeconds() - t0);
    }
  }
  return {profiling::Median(std::move(samples[0])),
          profiling::Median(std::move(samples[1]))};
}

}  // namespace

int main(int argc, char** argv) {
  const auto profile = ParseProfile(argc, argv);
  const std::string json_path = ParseJsonPath(argc, argv);
  const int threads = std::atoi(
      ParseStringFlag(argc, argv, "--threads=", "1").c_str());
  gemm::Context ctx(threads > 0 ? threads : 1, profile);

  telemetry::RunReport report("bench_ablation_im2col");
  report.AddMeta("profile", ProfileName(profile));
  report.AddMetaInt("threads", ctx.num_threads());

  std::printf(
      "=== Ablation: im2col BGEMM vs fused tiled "
      "(profile=%s, threads=%d) ===\n\n",
      ProfileName(profile), ctx.num_threads());
  std::printf("%-22s %12s %10s %17s\n", "Convolution", "im2col (ms)",
              "fused (ms)", "fused vs im2col");
  CsvWriter csv("ablation_bconv_fusion",
                "hw,channels,kernel,im2col_ms,fused_ms,"
                "fused_speedup_vs_im2col");
  struct Case {
    int hw, ch, k;
  };
  // The four QuickNet-S binary 3x3 stages (sections at 56/28/14/7 spatial
  // with 32/64/256/512 filters), QuickNet-L's two widest-image 3x3 stages
  // (56x56x64, 28x28x128: its costliest bconv nodes), plus two 1x1 shapes
  // showing the pointwise fast path is mode-independent.
  double log_speedup_3x3 = 0.0;
  int n_3x3 = 0;
  for (const Case& c : {Case{56, 32, 3}, Case{28, 64, 3}, Case{14, 256, 3},
                        Case{7, 512, 3}, Case{56, 64, 3}, Case{28, 128, 3},
                        Case{28, 64, 1}, Case{14, 256, 1}}) {
    const auto [im2col, fused] = BConvModeLatencies(c.hw, c.ch, c.k, ctx);
    const double speedup = fused > 0 ? im2col / fused : 0.0;
    std::printf("%dx%dx%dx%d k=%d %*s %10.3f %10.3f %15.2fx\n", c.hw, c.hw,
                c.ch, c.ch, c.k, 2, "", im2col * 1e3, fused * 1e3, speedup);
    char row[160];
    std::snprintf(row, sizeof(row), "%d,%d,%d,%.6f,%.6f,%.3f", c.hw, c.ch,
                  c.k, im2col * 1e3, fused * 1e3, speedup);
    csv.Row(row);
    char key[64];
    std::snprintf(key, sizeof(key), "%dx%dx%d_k%d", c.hw, c.hw, c.ch, c.k);
    report.AddResult(std::string("im2col_ms.") + key, im2col * 1e3);
    report.AddResult(std::string("fused_ms.") + key, fused * 1e3);
    report.AddResult(std::string("fused_speedup_vs_im2col.") + key, speedup);
    if (c.k == 3 && speedup > 0) {
      log_speedup_3x3 += std::log(speedup);
      ++n_3x3;
    }
  }
  if (n_3x3 > 0) {
    const double geomean = std::exp(log_speedup_3x3 / n_3x3);
    std::printf("\ngeomean fused speedup over the 3x3 stages: %.2fx\n",
                geomean);
    report.AddResult("fused_speedup_vs_im2col.geomean_3x3", geomean);
  }
  std::printf(
      "\nim2col pays the patch copy and a full-image accumulator round trip;\n"
      "the fused row-tile pipeline gathers through prepare-time offsets into\n"
      "the same SIMD micro-kernels and never leaves the cache between BGEMM\n"
      "and output transform. 1x1 shapes skip patch materialization in both.\n");
  if (!json_path.empty()) {
    const Status s = report.WriteJson(json_path);
    if (s.ok()) {
      std::printf("wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s: %s\n", json_path.c_str(),
                   s.message().c_str());
      return 1;
    }
  }
  return 0;
}
