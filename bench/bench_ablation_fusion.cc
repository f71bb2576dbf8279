// Ablation (paper section 3.1): the latency value of the converter's graph
// optimizations, measured on QuickNet and on a shortcut-free binarized
// ResNet18 (where bitpacked chaining can fire on every layer).
//
//   full       : all passes (the deployed configuration)
//   no-elision : binarized convs always materialize float output + separate
//                LceQuantize ops (no bitpacked layer chaining)
//   no-fusion  : additionally keep BatchNorm/ReLU as standalone ops instead
//                of fusing them into the bconv output transform
//
// Paper: "These graph transformations are crucial for efficient inference
// as the overhead of full-precision channel-wise operations can become
// significant when full-precision convolutions are replaced with binary
// ones."
// The `--json=<path>` variant sweep below additionally ablates the shared
// ConvPipeline row-tile engine at the kernel level: binarized depthwise,
// grouped binary, int8 and full-precision float convolutions, each fused
// (the production row-tile path) vs its legacy full-image oracle in
// kernels/reference.h (the retired unfused pipeline). The committed
// BENCH_conv_pipeline.json at the repo root is this report; the perf-smoke
// CI job asserts its per-variant fused/interior tile counters and prints
// the fused-vs-legacy geomean per variant.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "gemm/int8_isa.h"
#include "kernels/bconv2d.h"
#include "kernels/bdepthwise.h"
#include "kernels/conv2d_float.h"
#include "kernels/conv2d_int8.h"
#include "kernels/reference.h"
#include "models/zoo.h"
#include "telemetry/run_report.h"

namespace {

using namespace lce;
using namespace lce::bench;

std::unique_ptr<Interpreter> Prep(const std::function<Graph(int)>& build,
                                  const ConvertOptions& opts,
                                  gemm::KernelProfile profile,
                                  std::unique_ptr<Graph>& storage) {
  storage = std::make_unique<Graph>(build(224));
  LCE_CHECK(Convert(*storage, opts).ok());
  InterpreterOptions iopts;
  iopts.kernel_profile = profile;
  auto interp = std::make_unique<Interpreter>(*storage, iopts);
  LCE_CHECK(interp->Prepare().ok());
  Rng rng(1);
  Tensor in = interp->input(0);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<float>()[i] = rng.Uniform();
  }
  interp->Invoke();  // warmup
  return interp;
}

void Run(const char* name, const std::function<Graph(int)>& build,
         gemm::KernelProfile profile) {
  ConvertOptions full;
  ConvertOptions no_elision = full;
  no_elision.elide_quantize = false;
  ConvertOptions no_fusion = no_elision;
  no_fusion.fuse_bconv_output_transform = false;
  no_fusion.fuse_batch_norm = false;
  no_fusion.fuse_activations = false;
  no_fusion.swap_maxpool_sign = false;

  // Interleave the three configurations round-robin so slow drift on a
  // shared host affects them equally; report per-config medians.
  std::unique_ptr<Graph> g1, g2, g3;
  auto i_full = Prep(build, full, profile, g1);
  auto i_noel = Prep(build, no_elision, profile, g2);
  auto i_nofu = Prep(build, no_fusion, profile, g3);
  std::vector<double> s_full, s_noel, s_nofu;
  for (int round = 0; round < 15; ++round) {
    double t0 = profiling::NowSeconds();
    i_full->Invoke();
    double t1 = profiling::NowSeconds();
    i_noel->Invoke();
    double t2 = profiling::NowSeconds();
    i_nofu->Invoke();
    double t3 = profiling::NowSeconds();
    s_full.push_back(t1 - t0);
    s_noel.push_back(t2 - t1);
    s_nofu.push_back(t3 - t2);
  }
  const double t_full = profiling::Median(s_full);
  const double t_noel = profiling::Median(s_noel);
  const double t_nofu = profiling::Median(s_nofu);
  std::printf("%-28s %10.1f %14.1f (%+5.1f%%) %14.1f (%+5.1f%%)\n", name,
              t_full * 1e3, t_noel * 1e3, 100.0 * (t_noel - t_full) / t_full,
              t_nofu * 1e3, 100.0 * (t_nofu - t_full) / t_full);
}

// Interleaved fused-vs-legacy medians for one prepared kernel pair; the
// round-robin sampling is the same drift defense the graph ablation uses.
template <typename RunFused, typename RunLegacy>
std::pair<double, double> FusedVsLegacy(const RunFused& fused,
                                        const RunLegacy& legacy) {
  constexpr int kWarmup = 2, kSamples = 31;
  std::vector<double> s_fused, s_legacy;
  s_fused.reserve(kSamples);
  s_legacy.reserve(kSamples);
  for (int i = 0; i < kWarmup; ++i) {
    fused();
    legacy();
  }
  for (int s = 0; s < kSamples; ++s) {
    double t0 = profiling::NowSeconds();
    fused();
    double t1 = profiling::NowSeconds();
    legacy();
    double t2 = profiling::NowSeconds();
    s_fused.push_back(t1 - t0);
    s_legacy.push_back(t2 - t1);
  }
  return {profiling::Median(std::move(s_fused)),
          profiling::Median(std::move(s_legacy))};
}

// Accumulates per-shape speedups into a per-variant geomean and the report.
class VariantSweep {
 public:
  VariantSweep(const char* variant, telemetry::RunReport& report)
      : variant_(variant), report_(report) {}

  void Add(const std::string& shape, double fused_s, double legacy_s) {
    const double speedup = fused_s > 0 ? legacy_s / fused_s : 0.0;
    std::printf("  %-24s %12.3f %12.3f %10.2fx\n", shape.c_str(),
                fused_s * 1e3, legacy_s * 1e3, speedup);
    report_.AddResult(variant_ + ".fused_ms." + shape, fused_s * 1e3);
    report_.AddResult(variant_ + ".legacy_ms." + shape, legacy_s * 1e3);
    report_.AddResult(variant_ + ".fused_speedup." + shape, speedup);
    if (speedup > 0) {
      log_speedup_ += std::log(speedup);
      ++n_;
    }
  }

  void Finish() {
    if (n_ == 0) return;
    const double geomean = std::exp(log_speedup_ / n_);
    std::printf("  %s geomean fused-vs-legacy: %.2fx\n\n", variant_.c_str(),
                geomean);
    report_.AddResult(variant_ + ".geomean_fused_vs_legacy", geomean);
  }

 private:
  std::string variant_;
  telemetry::RunReport& report_;
  double log_speedup_ = 0.0;
  int n_ = 0;
};

void SweepConvPipelineVariants(gemm::Context& ctx,
                               telemetry::RunReport& report) {
  std::printf(
      "=== ConvPipeline variant ablation: fused row-tile vs legacy "
      "full-image ===\n\n");
  std::printf("  %-24s %12s %12s %11s\n", "shape", "fused-ms", "legacy-ms",
              "speedup");

  {  // Binarized depthwise (the QuickNet spatial reduction stages).
    VariantSweep sweep("bdepthwise", report);
    const struct {
      int hw, ch, stride;
    } cases[] = {{56, 64, 1}, {28, 128, 2}, {14, 256, 1}};
    for (const auto& c : cases) {
      Conv2DGeometry g;
      g.in_h = g.in_w = c.hw;
      g.in_c = g.out_c = c.ch;
      g.filter_h = g.filter_w = 3;
      g.stride_h = g.stride_w = c.stride;
      g.padding = Padding::kSameOne;
      Rng rng(c.hw + c.ch);
      Tensor in(DataType::kBitpacked, Shape{1, c.hw, c.hw, c.ch});
      FillBitpacked(in, rng);
      std::vector<float> w(static_cast<std::size_t>(9) * c.ch);
      for (auto& v : w) v = rng.Sign();
      BDepthwiseConv2DAttrs attrs;
      attrs.geo = g;
      BDepthwiseConv2D fused(w.data(), attrs);
      const RefBDepthwiseConv2D legacy(w.data(), attrs);
      Tensor out(DataType::kFloat32, Shape{1, g.out_h(), g.out_w(), c.ch});
      const auto [f, l] = FusedVsLegacy([&] { fused.Run(in, out, ctx); },
                                        [&] { legacy.Run(in, out); });
      char shape[64];
      std::snprintf(shape, sizeof(shape), "%dx%dx%d_s%d", c.hw, c.hw, c.ch,
                    c.stride);
      sweep.Add(shape, f, l);
    }
    sweep.Finish();
  }

  {  // Grouped binary convolution.
    VariantSweep sweep("bconv2d_grouped", report);
    const struct {
      int hw, ch, groups;
    } cases[] = {{28, 64, 2}, {14, 128, 4}, {14, 256, 2}};
    for (const auto& c : cases) {
      Conv2DGeometry g;
      g.in_h = g.in_w = c.hw;
      g.in_c = g.out_c = c.ch;
      g.filter_h = g.filter_w = 3;
      g.padding = Padding::kSameOne;
      Rng rng(c.hw + c.ch + c.groups);
      Tensor in(DataType::kBitpacked, Shape{1, c.hw, c.hw, c.ch});
      FillBitpacked(in, rng);
      std::vector<float> w(static_cast<std::size_t>(c.ch) * 9 *
                           (c.ch / c.groups));
      for (auto& v : w) v = rng.Sign();
      BConv2DAttrs attrs;
      attrs.geo = g;
      attrs.groups = c.groups;
      BConv2D fused(w.data(), attrs);
      const RefBConv2DIm2ColBGemm legacy(w.data(), attrs);
      Tensor out(DataType::kFloat32, Shape{1, g.out_h(), g.out_w(), c.ch});
      const auto [f, l] =
          FusedVsLegacy([&] { fused.Run(in, out, ctx); },
                        [&] { legacy.Run(in, out, ctx); });
      char shape[64];
      std::snprintf(shape, sizeof(shape), "%dx%dx%d_g%d", c.hw, c.hw, c.ch,
                    c.groups);
      sweep.Add(shape, f, l);
    }
    sweep.Finish();
  }

  {  // Full-precision float (QuickNet stem and 1x1 transitions).
    VariantSweep sweep("conv2d_float", report);
    const struct {
      int hw, in_c, out_c, k, stride;
    } cases[] = {{224, 3, 16, 3, 2}, {56, 32, 64, 3, 1}, {28, 64, 128, 1, 1}};
    for (const auto& c : cases) {
      Conv2DGeometry g;
      g.in_h = g.in_w = c.hw;
      g.in_c = c.in_c;
      g.out_c = c.out_c;
      g.filter_h = g.filter_w = c.k;
      g.stride_h = g.stride_w = c.stride;
      g.padding = c.k == 1 ? Padding::kValid : Padding::kSameZero;
      Rng rng(c.hw + c.in_c + c.k);
      Tensor in(DataType::kFloat32, Shape{1, c.hw, c.hw, c.in_c});
      FillUniform(in, rng);
      std::vector<float> w(static_cast<std::size_t>(c.out_c) * c.k * c.k *
                           c.in_c);
      for (auto& v : w) v = rng.Uniform();
      std::vector<float> bias(c.out_c);
      for (auto& v : bias) v = rng.Uniform();
      Conv2DFloatAttrs attrs;
      attrs.geo = g;
      attrs.activation = Activation::kRelu;
      attrs.bias = bias;
      Conv2DFloat fused(w.data(), attrs);
      Tensor out(DataType::kFloat32, Shape{1, g.out_h(), g.out_w(), c.out_c});
      std::vector<float> legacy_out(out.num_elements());
      const auto [f, l] = FusedVsLegacy(
          [&] { fused.Run(in, out, ctx); },
          [&] {
            RefConv2DFloatIm2ColGemm(in.data<float>(), w.data(), g,
                                     bias.data(), Activation::kRelu, ctx,
                                     legacy_out.data());
          });
      char shape[64];
      std::snprintf(shape, sizeof(shape), "%dx%dx%d-%d_k%d_s%d", c.hw, c.hw,
                    c.in_c, c.out_c, c.k, c.stride);
      sweep.Add(shape, f, l);
    }
    sweep.Finish();
  }

  {  // Int8 (the PTQ first/last stages that stay full-precision).
    VariantSweep sweep("conv2d_int8", report);
    const struct {
      int hw, in_c, out_c;
    } cases[] = {{56, 32, 64}, {28, 64, 64}, {14, 128, 128}};
    for (const auto& c : cases) {
      Conv2DGeometry g;
      g.in_h = g.in_w = c.hw;
      g.in_c = c.in_c;
      g.out_c = c.out_c;
      g.filter_h = g.filter_w = 3;
      g.padding = Padding::kSameZero;
      Rng rng(c.hw + c.in_c);
      Tensor in(DataType::kInt8, Shape{1, c.hw, c.hw, c.in_c});
      FillInt8(in, rng);
      std::vector<std::int8_t> w(static_cast<std::size_t>(c.out_c) * 9 *
                                 c.in_c);
      for (auto& v : w) v = rng.Int8(-127, 127);
      Conv2DInt8Attrs attrs;
      attrs.geo = g;
      attrs.input_quant = {0.02f, 3};
      attrs.weight_quant = {0.005f, 0};
      attrs.output_quant = {0.05f, -4};
      Conv2DInt8 fused(w.data(), attrs);
      const RefConv2DInt8Im2ColGemm legacy(w.data(), attrs);
      Tensor out(DataType::kInt8, Shape{1, g.out_h(), g.out_w(), c.out_c});
      const auto [f, l] =
          FusedVsLegacy([&] { fused.Run(in, out, ctx); },
                        [&] { legacy.Run(in, out, ctx); });
      char shape[64];
      std::snprintf(shape, sizeof(shape), "%dx%dx%d-%d", c.hw, c.hw, c.in_c,
                    c.out_c);
      sweep.Add(shape, f, l);
    }
    sweep.Finish();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto profile = ParseProfile(argc, argv);
  const std::string json_path = ParseJsonPath(argc, argv);
  const int threads =
      std::atoi(ParseStringFlag(argc, argv, "--threads=", "1").c_str());

  // Kernel-level ConvPipeline ablation first: its fused runs populate the
  // per-variant fused/interior tile counters that the report snapshot (and
  // the perf-smoke CI assertion) read.
  telemetry::RunReport report("bench_ablation_fusion");
  report.AddMeta("profile", ProfileName(profile));
  report.AddMetaInt("threads", threads > 0 ? threads : 1);
  // Which int8 micro-kernel tier the fused conv2d_int8 runs actually use
  // (gemm/int8_isa.h); perf-smoke asserts selected == best to catch a
  // selection regression without hard-coding a machine-dependent tier.
  report.AddMeta("int8_tier_selected",
                 gemm::Int8TierName(gemm::SelectInt8Tier()));
  report.AddMeta("int8_tier_best", gemm::Int8TierName(gemm::BestInt8Tier()));
  {
    gemm::Context ctx(threads > 0 ? threads : 1, profile);
    SweepConvPipelineVariants(ctx, report);
  }

  std::printf("=== Ablation: converter graph optimizations (profile=%s) "
              "===\n\n",
              ProfileName(profile));
  std::printf("%-28s %10s %24s %24s\n", "Model", "full-ms", "no-elision-ms",
              "no-fusion-ms");
  Run("QuickNet",
      [](int hw) { return BuildQuickNet(QuickNetMediumConfig(), hw); },
      profile);
  Run("BinarizedResNet18 (no sc)",
      [](int hw) { return BuildBinarizedResNet18(ShortcutMode::kNone, hw); },
      profile);
  std::printf(
      "\nShape: disabling bitpacked chaining and transform fusion adds\n"
      "full-precision glue back and increases latency, most on the\n"
      "shortcut-free network where every layer chains bitpacked.\n");
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
