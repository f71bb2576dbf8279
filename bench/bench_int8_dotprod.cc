// Int8 dot-product tier microbenchmark: QuickNet-stage int8 convolutions
// and the ResNet-18 stem and 1x1 s2 shortcut swept over the selectable
// micro-kernel tiers (gemm/int8_isa.h) and, for the best tier, over the
// weight-stationary blocking factor (Conv2DInt8Attrs::block_tiles).
//
// All tiers run the same fused row-tile pipeline on the same prepared
// kernels (one packed weight layout); the portable scalar tier, which
// every build has, is the baseline. Samples are interleaved round-robin
// across tiers so drift on a shared host hits every tier equally;
// per-tier medians are reported.
//
// The committed BENCH_int8_dotprod.json at the repo root is this report
// (Release, --json=...) plus a `before` section from the previous commit
// (docs/PERFORMANCE.md, "Measuring it"); the perf-smoke CI job re-runs it
// and asserts the selected tier is the best compiled-in one.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gemm/int8_isa.h"
#include "kernels/conv2d_int8.h"
#include "telemetry/run_report.h"

namespace {

using namespace lce;
using namespace lce::bench;

// Scalar baseline first: speedups below are relative to tiers[0].
std::vector<gemm::Int8Tier> SweptTiers() {
  std::vector<gemm::Int8Tier> tiers = {gemm::Int8Tier::kScalar};
  for (gemm::Int8Tier t :
       {gemm::Int8Tier::kAvx2Dot, gemm::Int8Tier::kNeonDot,
        gemm::Int8Tier::kVnni}) {
    if (gemm::Int8TierAvailable(t)) tiers.push_back(t);
  }
  return tiers;
}

struct Int8Stage {
  int hw, in_c, out_c;
  int k = 3, stride = 1;
  bool per_channel = false;
};

// QuickNet's full-precision int8 stages (same shapes and quantization the
// ablation bench uses, so the numbers line up across reports), then the
// two ResNet-18 shapes that dominate the int8 PTQ benchmark's conv time
// besides its 3x3 stages: the 7x7 s2 stem (in_c 3) and a 1x1 s2 shortcut,
// both with per-channel weight scales as the PTQ converter emits them.
constexpr Int8Stage kStages[] = {{56, 32, 64},
                                 {28, 64, 64},
                                 {14, 128, 128},
                                 {224, 3, 64, 7, 2, true},
                                 {56, 64, 128, 1, 2, true}};

Conv2DInt8Attrs StageAttrs(const Int8Stage& c, int block_tiles) {
  Conv2DGeometry g;
  g.in_h = g.in_w = c.hw;
  g.in_c = c.in_c;
  g.out_c = c.out_c;
  g.filter_h = g.filter_w = c.k;
  g.stride_h = g.stride_w = c.stride;
  g.padding = Padding::kSameZero;
  Conv2DInt8Attrs attrs;
  attrs.geo = g;
  attrs.input_quant = {0.02f, 3};
  attrs.weight_quant = {0.005f, 0};
  attrs.output_quant = {0.05f, -4};
  if (c.per_channel) {
    attrs.weight_scales.resize(c.out_c);
    for (int n = 0; n < c.out_c; ++n) {
      attrs.weight_scales[n] = 0.002f + 0.00005f * static_cast<float>(n % 64);
    }
  }
  attrs.block_tiles = block_tiles;
  return attrs;
}

// "56x56x32-64" for the 3x3 s1 stages; other filters append "-k7s2".
std::string StageName(const Int8Stage& c) {
  char name[64];
  std::snprintf(name, sizeof(name), "%dx%dx%d-%d", c.hw, c.hw, c.in_c,
                c.out_c);
  std::string s = name;
  if (c.k != 3 || c.stride != 1) {
    s += "-k" + std::to_string(c.k) + "s" + std::to_string(c.stride);
  }
  return s;
}

std::vector<std::int8_t> StageWeights(const Int8Stage& c, Rng& rng) {
  std::vector<std::int8_t> w(static_cast<std::size_t>(c.out_c) * c.k * c.k *
                             c.in_c);
  for (auto& v : w) v = rng.Int8(-127, 127);
  return w;
}

// Interleaved round-robin medians over `runs` thunks.
std::vector<double> InterleavedMedians(
    const std::vector<std::function<void()>>& runs) {
  constexpr int kWarmup = 2, kSamples = 31;
  std::vector<std::vector<double>> samples(runs.size());
  for (auto& s : samples) s.reserve(kSamples);
  for (int i = 0; i < kWarmup; ++i) {
    for (const auto& r : runs) r();
  }
  for (int s = 0; s < kSamples; ++s) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const double t0 = profiling::NowSeconds();
      runs[i]();
      const double t1 = profiling::NowSeconds();
      samples[i].push_back(t1 - t0);
    }
  }
  std::vector<double> medians(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    medians[i] = profiling::Median(std::move(samples[i]));
  }
  return medians;
}

}  // namespace

int main(int argc, char** argv) {
  const auto profile = ParseProfile(argc, argv);
  const std::string json_path = ParseJsonPath(argc, argv);
  const int threads =
      std::atoi(ParseStringFlag(argc, argv, "--threads=", "1").c_str());
  gemm::Context ctx(threads > 0 ? threads : 1, profile);

  telemetry::RunReport report("bench_int8_dotprod");
  report.AddMeta("profile", ProfileName(profile));
  report.AddMetaInt("threads", threads > 0 ? threads : 1);
  report.AddMeta("int8_tier_selected",
                 gemm::Int8TierName(gemm::SelectInt8Tier()));
  report.AddMeta("int8_tier_best", gemm::Int8TierName(gemm::BestInt8Tier()));

  const std::vector<gemm::Int8Tier> tiers = SweptTiers();
  const gemm::Int8Tier best = gemm::BestInt8Tier();

  std::printf("=== Int8 micro-kernel tier sweep (QuickNet int8 stages) "
              "===\n\n");
  std::printf("  %-18s", "shape");
  for (gemm::Int8Tier t : tiers) {
    std::printf(" %12s", gemm::Int8TierName(t));
  }
  std::printf(" %14s\n", "best-speedup");

  double log_best_speedup = 0.0;
  int n_shapes = 0;
  for (const Int8Stage& c : kStages) {
    Rng rng(c.hw + c.in_c);
    Tensor in(DataType::kInt8, Shape{1, c.hw, c.hw, c.in_c});
    FillInt8(in, rng);
    const std::vector<std::int8_t> w = StageWeights(c, rng);
    const Conv2DInt8Attrs attrs = StageAttrs(c, /*block_tiles=*/64);
    Conv2DInt8 op(w.data(), attrs);
    Tensor out(DataType::kInt8,
               Shape{1, attrs.geo.out_h(), attrs.geo.out_w(), c.out_c});

    std::vector<std::function<void()>> runs;
    for (gemm::Int8Tier t : tiers) {
      runs.push_back([&, t] {
        gemm::SetInt8TierOverrideForTest(static_cast<int>(t));
        op.Run(in, out, ctx);
      });
    }
    const std::vector<double> ms = InterleavedMedians(runs);
    gemm::SetInt8TierOverrideForTest(0);

    const std::string shape = StageName(c);
    std::printf("  %-18s", shape.c_str());
    double best_ms = ms[0];
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      std::printf(" %10.3fms", ms[i] * 1e3);
      report.AddResult(std::string("int8_dotprod.") +
                           gemm::Int8TierName(tiers[i]) + "_ms." + shape,
                       ms[i] * 1e3);
      if (i > 0) {
        report.AddResult(std::string("int8_dotprod.") +
                             gemm::Int8TierName(tiers[i]) +
                             "_vs_scalar." + shape,
                         ms[i] > 0 ? ms[0] / ms[i] : 0.0);
      }
      if (ms[i] < best_ms) best_ms = ms[i];
    }
    const double best_speedup = best_ms > 0 ? ms[0] / best_ms : 0.0;
    std::printf(" %13.2fx\n", best_speedup);
    report.AddResult(std::string("int8_dotprod.best_vs_scalar.") + shape,
                     best_speedup);
    if (best_speedup > 0) {
      log_best_speedup += std::log(best_speedup);
      ++n_shapes;
    }
  }
  const double geomean =
      n_shapes > 0 ? std::exp(log_best_speedup / n_shapes) : 0.0;
  std::printf("\n  geomean best-tier vs scalar: %.2fx\n\n", geomean);
  report.AddResult("int8_dotprod.geomean_best_vs_scalar", geomean);

  // Weight-stationary blocking sweep for the best tier: how many row
  // tiles share one residency of the packed RHS panels before it is
  // streamed again.
  std::printf("=== Weight-stationary blocking sweep (tier=%s) ===\n\n",
              gemm::Int8TierName(best));
  const int kBlockTiles[] = {16, 32, 64, 128};
  std::printf("  %-18s", "shape");
  for (int bt : kBlockTiles) std::printf("     bt=%-3d ", bt);
  std::printf("\n");
  for (const Int8Stage& c : kStages) {
    Rng rng(c.hw + c.in_c);
    Tensor in(DataType::kInt8, Shape{1, c.hw, c.hw, c.in_c});
    FillInt8(in, rng);
    const std::vector<std::int8_t> w = StageWeights(c, rng);

    std::vector<std::unique_ptr<Conv2DInt8>> ops;
    std::vector<std::function<void()>> runs;
    const Conv2DGeometry g = StageAttrs(c, 64).geo;
    Tensor out(DataType::kInt8, Shape{1, g.out_h(), g.out_w(), c.out_c});
    for (int bt : kBlockTiles) {
      ops.push_back(
          std::make_unique<Conv2DInt8>(w.data(), StageAttrs(c, bt)));
      Conv2DInt8* op = ops.back().get();
      runs.push_back([&, op] { op->Run(in, out, ctx); });
    }
    const std::vector<double> ms = InterleavedMedians(runs);

    const std::string shape = StageName(c);
    std::printf("  %-18s", shape.c_str());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      std::printf(" %8.3fms ", ms[i] * 1e3);
      report.AddResult("int8_dotprod.block_tiles_" +
                           std::to_string(kBlockTiles[i]) + "_ms." + shape,
                       ms[i] * 1e3);
    }
    std::printf("\n");
  }
  std::printf("\n");

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
