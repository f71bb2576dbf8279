#include "kernels/pipeline/conv_pipeline.h"

#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include "core/macros.h"
#include "telemetry/clock.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace lce::pipeline {
namespace {

using telemetry::NowNanos;

// Per-variant metric triplet, resolved once per variant string (the
// registry returns stable pointers; variants are string literals so a tiny
// linear cache avoids the map lookup on the hot path).
struct VariantMetrics {
  telemetry::Metric* fused_tiles;
  telemetry::Metric* interior_tiles;
  telemetry::Metric* imbalance;
};

VariantMetrics LookupMetrics(const char* variant) {
  constexpr int kMaxVariants = 8;
  struct Entry {
    const char* variant = nullptr;
    VariantMetrics m{};
  };
  static Entry cache[kMaxVariants];
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  for (auto& e : cache) {
    if (e.variant == variant) return e.m;
    if (e.variant == nullptr) {
      auto& reg = telemetry::MetricsRegistry::Global();
      const std::string prefix(variant);
      e.m.fused_tiles = reg.Counter(prefix + ".fused_tiles");
      e.m.interior_tiles = reg.Counter(prefix + ".interior_tiles");
      e.m.imbalance = reg.Gauge(prefix + ".fused_shard_imbalance_pct");
      e.variant = variant;
      return e.m;
    }
  }
  // Cache full (unexpected variant churn): fall back to direct lookup.
  auto& reg = telemetry::MetricsRegistry::Global();
  const std::string prefix(variant);
  return {reg.Counter(prefix + ".fused_tiles"),
          reg.Counter(prefix + ".interior_tiles"),
          reg.Gauge(prefix + ".fused_shard_imbalance_pct")};
}

}  // namespace

template <typename Acc>
void RunConvPipeline(const BasicConvPipelineArgs<Acc>& args,
                     gemm::Context& ctx, ConvStageTimes* times) {
  LCE_CHECK(args.plan != nullptr);
  LCE_CHECK(args.compute != nullptr);
  LCE_CHECK(args.transform != nullptr);
  LCE_CHECK(args.out != nullptr);
  LCE_CHECK_GT(args.block_tiles, 0);

  const TilePlan& plan = *args.plan;
  const std::int64_t rows = plan.rows();
  const std::int64_t m_tiles = plan.num_tiles();
  const int tile_rows = plan.tile_rows();
  const int n = args.out_c;
  const int block_tiles_max = args.block_tiles;
  const int shards = ctx.pool().PlannedShards(m_tiles);

  const VariantMetrics metrics = LookupMetrics(args.variant);
  metrics.fused_tiles->Add(m_tiles);
  metrics.interior_tiles->Add(plan.interior_tiles());

  // Per-shard scratch: the compute policy's working set (e.g. A-panels)
  // plus a block accumulator, both strides rounded to 64 bytes (panels need
  // 32-byte alignment for the AVX kernels' aligned loads; 64 avoids false
  // sharing between shards). Total is shards * O(block) -- independent of
  // the image size.
  const auto align64 = [](std::size_t v) {
    return (v + 63) & ~static_cast<std::size_t>(63);
  };
  const std::size_t compute_bytes =
      align64(args.compute->ShardScratchBytes(block_tiles_max));
  const std::size_t acc_bytes =
      align64(static_cast<std::size_t>(block_tiles_max) * tile_rows * n *
              sizeof(Acc));
  const std::size_t per_shard = compute_bytes + acc_bytes;
  std::uint8_t* scratch =
      ctx.Scratch(2, static_cast<std::size_t>(shards) * per_shard);

  const bool tracing = telemetry::TracingActive();
  const bool timed = tracing || times != nullptr;
  const gemm::KernelProfile profile = ctx.profile();
  const BasicTileCompute<Acc>* compute = args.compute;
  const BasicRowCorrector<Acc>* corrector = args.corrector;
  const BasicOutputTransform<Acc>* transform = args.transform;
  void* out = args.out;
  // Cooperative cancellation (docs/SERVING.md): each shard polls the
  // current request's token between row-tile blocks and abandons its
  // remaining blocks once it expires. The node's output is then unspecified
  // -- ExecutionContext::Invoke observes the same token at the next node
  // boundary and returns the terminal status, so the partial result is
  // never consumed.
  const CancellationToken* cancel = ctx.cancellation();
  static telemetry::Metric* cancelled_blocks =
      telemetry::MetricsRegistry::Global().Counter(
          "pipeline.cancelled_blocks");

  // Per-shard stage nanoseconds; the fused loop interleaves gemm and
  // transform work, so the Table 4 split is reconstructed below by scaling
  // these busy-time totals to the parallel section's wall clock.
  std::vector<std::uint64_t> shard_gemm_ns(timed ? shards : 0, 0);
  std::vector<std::uint64_t> shard_transform_ns(timed ? shards : 0, 0);

  const std::uint64_t tp0 = timed ? NowNanos() : 0;
  ctx.pool().ParallelForShard(
      m_tiles, [&](int shard, std::int64_t tbegin, std::int64_t tend) {
        std::uint8_t* base = scratch + static_cast<std::size_t>(shard) * per_shard;
        std::uint8_t* compute_scratch = base;
        auto* block_acc = reinterpret_cast<Acc*>(base + compute_bytes);
        std::uint64_t gemm_ns = 0, transform_ns = 0;
        for (std::int64_t t = tbegin; t < tend; t += block_tiles_max) {
          if (cancel != nullptr && cancel->Expired()) {
            cancelled_blocks->Add((tend - t + block_tiles_max - 1) /
                                  block_tiles_max);
            break;
          }
          const int block_tiles = static_cast<int>(
              std::min<std::int64_t>(block_tiles_max, tend - t));
          const std::int64_t row0 = t * tile_rows;
          const int block_rows = static_cast<int>(std::min<std::int64_t>(
              rows - row0,
              static_cast<std::int64_t>(block_tiles) * tile_rows));
          const std::uint64_t s0 = timed ? NowNanos() : 0;
          compute->ComputeBlock(t, block_tiles, row0, block_rows, plan,
                                profile, compute_scratch, block_acc);
          const std::uint64_t s1 = timed ? NowNanos() : 0;
          if (corrector != nullptr && !plan.AllInterior(t, t + block_tiles)) {
            corrector->Apply(block_acc, row0, block_rows);
          }
          transform->Apply(block_acc, row0, block_rows, out);
          if (timed) {
            const std::uint64_t s2 = NowNanos();
            gemm_ns += s1 - s0;
            transform_ns += s2 - s1;
          }
        }
        if (timed) {
          shard_gemm_ns[shard] = gemm_ns;
          shard_transform_ns[shard] = transform_ns;
        }
      });
  if (!timed) return;
  const std::uint64_t tp1 = NowNanos();

  std::uint64_t gemm_busy = 0, transform_busy = 0, busy_max = 0, busy_min = 0;
  for (int s = 0; s < shards; ++s) {
    gemm_busy += shard_gemm_ns[s];
    transform_busy += shard_transform_ns[s];
    const std::uint64_t busy = shard_gemm_ns[s] + shard_transform_ns[s];
    busy_max = std::max(busy_max, busy);
    busy_min = s == 0 ? busy : std::min(busy_min, busy);
  }
  if (busy_max > 0) {
    // Load imbalance across fused shards (0 = perfectly balanced).
    metrics.imbalance->SetMax(
        static_cast<std::int64_t>((busy_max - busy_min) * 100 / busy_max));
  }

  // Attribute the parallel section's wall clock to gemm vs transform in
  // proportion to the shards' busy time, so the per-stage profiler (Table 4)
  // and the Chrome trace keep reporting the stage split under fusion.
  const std::uint64_t wall = tp1 - tp0;
  const std::uint64_t busy_total = gemm_busy + transform_busy;
  const double gemm_frac =
      busy_total > 0 ? static_cast<double>(gemm_busy) / busy_total : 1.0;
  const auto gemm_wall = static_cast<std::uint64_t>(wall * gemm_frac);

  if (tracing) {
    telemetry::Tracer& tracer = telemetry::Tracer::Global();
    // Span names are copied into the trace buffer, so the temporaries are
    // fine; the category must be a literal.
    const std::string prefix(args.variant);
    tracer.RecordComplete((prefix + "/gemm").c_str(), "kernel", tp0,
                          tp0 + gemm_wall);
    tracer.RecordComplete((prefix + "/output_transform").c_str(), "kernel",
                          tp0 + gemm_wall, tp1);
  }
  if (times != nullptr) {
    times->gemm = static_cast<double>(gemm_wall) * 1e-9;
    times->transform = static_cast<double>(wall - gemm_wall) * 1e-9;
  }
}

template void RunConvPipeline<std::int32_t>(
    const BasicConvPipelineArgs<std::int32_t>&, gemm::Context&,
    ConvStageTimes*);
template void RunConvPipeline<float>(const BasicConvPipelineArgs<float>&,
                                     gemm::Context&, ConvStageTimes*);

}  // namespace lce::pipeline
