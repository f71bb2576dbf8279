// Appendix (Figures 11/12, Table 5): the conv-level experiments re-run on
// the portable scalar kernels -- this repo's "second benchmark device",
// standing in for the paper's Raspberry Pi 4B vs Pixel 1 comparison. The
// other appendix figures (13/14/15) are the model-level binaries run with
// --profile=scalar.
#include <cstdio>
#include <limits>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace lce;
  using namespace lce::bench;
  const std::int64_t cap = HasFlag(argc, argv, "--full")
                               ? std::numeric_limits<std::int64_t>::max()
                               : 200'000'000;  // scalar kernels are slower
  gemm::Context ctx(1, gemm::KernelProfile::kScalar);

  std::printf("=== Appendix: scalar-kernel device (Figures 11/12, Table 5) "
              "===\n\n");

  // Figure 11: the four ResNet18 convolutions.
  std::printf("%-18s %12s %12s %12s %9s %9s\n", "Convolution", "float (ms)",
              "int8 (ms)", "binary (ms)", "bin/f32", "bin/i8");
  for (const auto& [name, dims] : ResNet18Convs()) {
    ConvBench f = MakeFloatConv(dims, ctx);
    ConvBench q = MakeInt8Conv(dims, ctx);
    ConvBench b = MakeBinaryConv(dims, ctx);
    const double tf = profiling::MeasureMedianSeconds(f.run, 1, 2, 5, 0.02);
    const double tq = profiling::MeasureMedianSeconds(q.run, 1, 2, 5, 0.02);
    const double tb = profiling::MeasureMedianSeconds(b.run, 1, 3, 10, 0.02);
    std::printf("%-18s %12.3f %12.3f %12.3f %8.1fx %8.1fx\n", name.c_str(),
                tf * 1e3, tq * 1e3, tb * 1e3, tf / tb, tq / tb);
  }

  // Table 5: speedup statistics over the sweep.
  const auto rows = RunConvSweep(ctx, cap);
  std::vector<double> vs_float, vs_int8, float_w, int8_w;
  for (const auto& r : rows) {
    vs_float.push_back(r.float_ms / r.binary_ms);
    vs_int8.push_back(r.int8_ms / r.binary_ms);
    float_w.push_back(r.float_ms);
    int8_w.push_back(r.int8_ms);
  }
  std::printf("\nTable 5 (%zu convolutions):\n", rows.size());
  std::printf("%-10s %8s %15s %18s\n", "Precision", "Mean", "Weighted mean",
              "Range");
  const auto print = [](const char* name, const std::vector<double>& s,
                        const std::vector<double>& w) {
    const auto mm = profiling::Range(s);
    std::printf("%-10s %7.1fx %14.1fx %10.1f-%.1fx\n", name,
                profiling::Mean(s), profiling::WeightedMean(s, w), mm.min,
                mm.max);
  };
  print("1 vs 32", vs_float, float_w);
  print("1 vs 8", vs_int8, int8_w);
  std::printf(
      "\nPaper (RPi 4B): 1 vs 32 mean 17.5x weighted 16.0x range 8.8-23.0x;\n"
      "                1 vs 8  mean  8.3x weighted  8.5x range 5.1-9.6x.\n"
      "Shape: relative orderings as on the primary device. 1-vs-8 sits below\n"
      "the RPi's where the compiler vectorizes the portable int8 loop into a\n"
      "dot-product instruction (vpdpbusd on AVX-512-VNNI), which the RPi's\n"
      "Cortex-A72 lacks. 1-vs-32 is inflated here because the scalar float\n"
      "kernel lacks SIMD entirely, whereas the RPi's float path still uses\n"
      "NEON -- the binary kernel keeps hardware popcount in both scalar\n"
      "profiles, as a real deployment would.\n");
  return 0;
}
