#include "kernels/conv2d_int8.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/macros.h"
#include "kernels/im2col.h"
#include "kernels/pipeline/gather_pack.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

// Tier the last int8 Run() executed with (gemm/int8_isa.h enum values):
// lets benches, the flight recorder, and the perf-smoke CI job tell which
// kernel actually ran.
telemetry::Metric* TierGauge() {
  static telemetry::Metric* gauge =
      telemetry::MetricsRegistry::Global().Gauge("conv2d_int8.tier");
  return gauge;
}

}  // namespace

Conv2DInt8::Conv2DInt8(const std::int8_t* weights_ohwi, Conv2DInt8Attrs attrs)
    : attrs_(std::move(attrs)) {
  const Conv2DGeometry& g = attrs_.geo;
  LCE_CHECK(g.padding != Padding::kSameOne);
  LCE_CHECK_EQ(attrs_.weight_quant.zero_point, 0);  // symmetric weights
  if (!attrs_.bias.empty()) {
    LCE_CHECK_EQ(static_cast<int>(attrs_.bias.size()), g.out_c);
  }
  LCE_CHECK_GT(attrs_.block_tiles, 0);
  auto weights = std::make_shared<SharedWeights>();
  weights->matrix =
      gemm::PackedInt8Matrix(weights_ohwi, g.out_c, Im2ColDepthFloat(g));
#if defined(LCE_INT8_DOT_KERNELS)
  // Weight-stationary panels for the dot-product tiers, packed once here
  // (Compile() time) like the kInt8Kc-block matrix above. Only built when
  // a dot kernel is compiled in; Run() falls back to the panel path if the
  // running CPU turns out not to support any dot tier.
  weights->dot_panels = gemm::PackedInt8DotPanels(weights_ohwi, g.out_c,
                                                  Im2ColDepthFloat(g));
#endif

  std::vector<std::int32_t> requant_multiplier;
  std::vector<int> requant_shift;
  if (!attrs_.weight_scales.empty()) {
    LCE_CHECK_EQ(static_cast<int>(attrs_.weight_scales.size()), g.out_c);
    requant_multiplier.resize(g.out_c);
    requant_shift.resize(g.out_c);
    for (int n = 0; n < g.out_c; ++n) {
      const double real_multiplier =
          static_cast<double>(attrs_.input_quant.scale) *
          attrs_.weight_scales[n] / attrs_.output_quant.scale;
      QuantizeMultiplier(real_multiplier, &requant_multiplier[n],
                         &requant_shift[n]);
    }
  } else {
    requant_multiplier.resize(1);
    requant_shift.resize(1);
    const double real_multiplier =
        static_cast<double>(attrs_.input_quant.scale) *
        attrs_.weight_quant.scale / attrs_.output_quant.scale;
    QuantizeMultiplier(real_multiplier, &requant_multiplier[0],
                       &requant_shift[0]);
  }

  // Fused activation becomes clamping in the quantized domain. Tiny output
  // scales push the quotient far past the int32 range, so saturate in the
  // floating-point domain -- casting an out-of-range double would be UB.
  std::int32_t act_min = -128, act_max = 127;
  const auto quantize_clamp = [&](double real) -> std::int32_t {
    const double q = std::round(real / attrs_.output_quant.scale) +
                     attrs_.output_quant.zero_point;
    if (q < -128.0) return -128;
    if (q > 127.0) return 127;
    return static_cast<std::int32_t>(q);
  };
  switch (attrs_.activation) {
    case Activation::kNone:
    case Activation::kSigmoid:  // not supported fused in the int8 path
      break;
    case Activation::kRelu:
      act_min = quantize_clamp(0.0);
      break;
    case Activation::kRelu6:
      act_min = quantize_clamp(0.0);
      act_max = quantize_clamp(6.0);
      break;
  }

  weights->transform = std::make_unique<pipeline::Int8RequantTransform>(
      g.out_c, attrs_.input_quant.zero_point, attrs_.output_quant.zero_point,
      weights->matrix.row_sums().data(), attrs_.bias,
      std::move(requant_multiplier), std::move(requant_shift), act_min,
      act_max);
  weights_ = std::move(weights);

  InitGeometry();
}

Conv2DInt8::Conv2DInt8(const Conv2DInt8& base, Conv2DInt8Attrs attrs)
    : attrs_(std::move(attrs)), weights_(base.weights_) {
  // Everything the shared state encodes -- dot panels, row sums, requant
  // transform, all keyed by channels/filter/stride/padding -- must be
  // identical; the batch and the spatial input size (shape buckets) may
  // differ, since InitGeometry rebuilds the indirection cache and tile plan
  // for this instance's own geometry.
  const Conv2DGeometry& g = attrs_.geo;
  const Conv2DGeometry& bg = base.attrs_.geo;
  LCE_CHECK(g.in_c == bg.in_c && g.out_c == bg.out_c &&
            g.filter_h == bg.filter_h && g.filter_w == bg.filter_w &&
            g.stride_h == bg.stride_h && g.stride_w == bg.stride_w &&
            g.padding == bg.padding);
  InitGeometry();
}

void Conv2DInt8::InitGeometry() {
  const Conv2DGeometry& g = attrs_.geo;
  // Pad with the input zero point so padding contributes zero after offset
  // subtraction (same value the legacy im2col uses).
  pad_value_ = static_cast<std::int8_t>(
      std::clamp(attrs_.input_quant.zero_point, -128, 127));

  // Fused-path state: byte-offset tap table and interior classification,
  // both geometry-only, built once here.
  indirection_ = gemm::IndirectionOffsets(g, g.in_c);
  tile_plan_ = pipeline::TilePlan(g, gemm::kInt8Mr);
}

// TileCompute policy of the int8 kernel, widened-madd tiers: byte-gather
// patch rows through the indirection cache into biased A-panels and run
// the widened multiply-add block kernel (AVX-512BW / AVX2 / scalar). The
// kernel profile is fixed at tier-selection time (gemm/int8_isa.h) rather
// than read from the engine, so LCE_FORCE_ISA=scalar reaches the scalar
// kernel even in a SIMD-profile context.
class Conv2DInt8TileCompute final : public pipeline::TileCompute {
 public:
  Conv2DInt8TileCompute(const Conv2DInt8& op, const std::int8_t* input,
                        gemm::KernelProfile profile)
      : op_(op),
        input_(input),
        profile_(profile),
        k_blocks_(op.weights_->matrix.k_blocks()),
        a_elems_(static_cast<std::int64_t>(k_blocks_) * gemm::kInt8Mr *
                 gemm::kInt8Kc),
        stage_bytes_(static_cast<std::size_t>(gemm::kInt8Mr) *
                     Im2ColDepthFloat(op.attrs_.geo)) {}

  std::size_t ShardScratchBytes(int block_tiles) const override {
    return Align64(static_cast<std::size_t>(a_elems_) * block_tiles) +
           Align64(stage_bytes_);
  }

  void ComputeBlock(std::int64_t tile0, int block_tiles, std::int64_t row0,
                    int block_rows, const pipeline::TilePlan& plan,
                    gemm::KernelProfile /*profile*/, std::uint8_t* scratch,
                    std::int32_t* acc) const override {
    auto* apanels = reinterpret_cast<std::int8_t*>(scratch);
    auto* stage = reinterpret_cast<std::int8_t*>(
        scratch + Align64(static_cast<std::size_t>(a_elems_) * block_tiles));
    for (int i = 0; i < block_tiles; ++i) {
      const std::int64_t trow0 =
          row0 + static_cast<std::int64_t>(i) * gemm::kInt8Mr;
      // Fetch the next tile's feature-map lines while this tile gathers
      // and computes.
      if (i + 1 < block_tiles) {
        pipeline::PrefetchInt8GatherSources(input_, op_.indirection_,
                                            trow0 + gemm::kInt8Mr,
                                            gemm::kInt8Mr);
      }
      pipeline::GatherPackInt8(input_, op_.indirection_, op_.pad_value_,
                               trow0, gemm::kInt8Mr, k_blocks_,
                               plan.interior(tile0 + i), stage,
                               apanels + static_cast<std::int64_t>(i) *
                                             a_elems_);
    }
    gemm::Int8ComputeBlock(apanels, a_elems_, op_.weights_->matrix, profile_,
                           block_tiles, block_rows, acc,
                           op_.attrs_.geo.out_c);
  }

 private:
  static std::size_t Align64(std::size_t v) {
    return (v + 63) & ~static_cast<std::size_t>(63);
  }

  const Conv2DInt8& op_;
  const std::int8_t* input_;
  gemm::KernelProfile profile_;
  int k_blocks_;
  std::int64_t a_elems_;
  std::size_t stage_bytes_;
};

// TileCompute policy of the int8 kernel, dot-product tiers (VNNI / AVX2
// maddubs / NEON sdot): the gather only *stages* patch rows — the dot
// kernels broadcast 4-byte activation groups straight from them, so the
// panel interleave pass of the widened path disappears. For the VNNI tier
// the staging copy also applies the u8 x s8 kernel's +128 bias. The block
// compute is panel-outer / row-inner over the Compile()-time
// PackedInt8DotPanels (weight-stationary: one panel stays L1-resident
// across all rows of the block before the next streams in).
class Conv2DInt8DotTileCompute final : public pipeline::TileCompute {
 public:
  Conv2DInt8DotTileCompute(const Conv2DInt8& op, const std::int8_t* input,
                           gemm::Int8Tier tier)
      : op_(op),
        input_(input),
        tier_(tier),
        biased_rows_(gemm::Int8DotRowsBiased(tier)),
        lda_(op.weights_->dot_panels.k_groups() * gemm::kInt8DotKg) {}

  std::size_t ShardScratchBytes(int block_tiles) const override {
    // Staged raw rows for the whole block; no panel buffer.
    return static_cast<std::size_t>(block_tiles) * gemm::kInt8Mr * lda_;
  }

  void ComputeBlock(std::int64_t tile0, int block_tiles, std::int64_t row0,
                    int block_rows, const pipeline::TilePlan& plan,
                    gemm::KernelProfile /*profile*/, std::uint8_t* scratch,
                    std::int32_t* acc) const override {
    auto* rows_stage = reinterpret_cast<std::int8_t*>(scratch);
    for (int i = 0; i < block_tiles; ++i) {
      const std::int64_t trow0 =
          row0 + static_cast<std::int64_t>(i) * gemm::kInt8Mr;
      if (i + 1 < block_tiles) {
        pipeline::PrefetchInt8GatherSources(input_, op_.indirection_,
                                            trow0 + gemm::kInt8Mr,
                                            gemm::kInt8Mr);
      }
      pipeline::GatherStageInt8Dot(
          input_, op_.indirection_, op_.pad_value_, trow0, gemm::kInt8Mr,
          lda_, plan.interior(tile0 + i), biased_rows_,
          rows_stage + static_cast<std::int64_t>(i) * gemm::kInt8Mr * lda_);
    }
    gemm::Int8DotComputeStagedBlock(rows_stage, lda_,
                                    op_.weights_->dot_panels, tier_,
                                    block_rows, acc, op_.attrs_.geo.out_c);
  }

 private:
  const Conv2DInt8& op_;
  const std::int8_t* input_;
  gemm::Int8Tier tier_;
  bool biased_rows_;  // stage rows with the +128 bias (VNNI tier)
  int lda_;
};

void Conv2DInt8::Run(const Tensor& input, Tensor& output, gemm::Context& ctx,
                     pipeline::ConvStageTimes* times) const {
  const Conv2DGeometry& g = attrs_.geo;
  LCE_CHECK(input.dtype() == DataType::kInt8);
  LCE_CHECK(output.dtype() == DataType::kInt8);

  // A scalar-profile context pins the whole kernel to the scalar tier (the
  // profile exists so tests can demand the portable kernels; the dot tiers
  // are SIMD by definition). Otherwise the tier is the runtime selection,
  // demoted to the widened family if no dot kernel made it into the binary.
  const bool scalar_ctx = ctx.profile() == gemm::KernelProfile::kScalar;
  gemm::Int8Tier tier =
      scalar_ctx ? gemm::Int8Tier::kScalar : gemm::SelectInt8Tier();
  if (gemm::Int8TierIsDotProduct(tier) && weights_->dot_panels.empty()) {
    tier = gemm::Int8Tier::kWidened;
  }

  // The scalar tier requantizes with the scalar reference loop as well.
  const pipeline::Int8RequantReference reference_transform(
      *weights_->transform);
  const pipeline::OutputTransform& transform =
      tier == gemm::Int8Tier::kScalar
          ? static_cast<const pipeline::OutputTransform&>(reference_transform)
          : *weights_->transform;

  if (attrs_.force_unfused) {
    // The legacy path has no dot-product kernel: it is the ablation
    // baseline, and keeping it on the widened family makes the fused-path
    // speedup attributable end to end.
    TierGauge()->Set(static_cast<std::int64_t>(
        scalar_ctx ? gemm::Int8Tier::kScalar : gemm::Int8Tier::kWidened));
    RunUnfused(input, output, ctx, transform);
    return;
  }
  TierGauge()->Set(static_cast<std::int64_t>(tier));

  const Conv2DInt8TileCompute panel_compute(
      *this, input.data<std::int8_t>(),
      tier == gemm::Int8Tier::kScalar ? gemm::KernelProfile::kScalar
                                      : gemm::KernelProfile::kSimd);
  const Conv2DInt8DotTileCompute dot_compute(*this, input.data<std::int8_t>(),
                                             tier);
  pipeline::ConvPipelineArgs args;
  args.variant = "conv2d_int8";
  // kInt8Mr is small (2 rows per tile), so a 16-tile block would re-stream
  // the packed RHS every 32 rows; the default 64 tiles (128 rows) amortize
  // the B-panel loads like the legacy full-image GEMM while the staged
  // rows + accumulator still fit in L2. Swept by bench_int8_dotprod.
  args.block_tiles = attrs_.block_tiles;
  args.out_c = g.out_c;
  args.plan = &tile_plan_;
  args.compute = gemm::Int8TierIsDotProduct(tier)
                     ? static_cast<const pipeline::TileCompute*>(&dot_compute)
                     : &panel_compute;
  args.transform = &transform;
  args.out = output.raw_data();
  pipeline::RunConvPipeline(args, ctx, times);
}

void Conv2DInt8::RunUnfused(const Tensor& input, Tensor& output,
                            gemm::Context& ctx,
                            const pipeline::OutputTransform& transform) const {
  const Conv2DGeometry& g = attrs_.geo;
  const std::int64_t rows = Im2ColRows(g);
  const int depth = Im2ColDepthFloat(g);
  auto* patches = reinterpret_cast<std::int8_t*>(
      ctx.Scratch(1, static_cast<std::size_t>(rows) * depth));
  Im2ColInt8(input.data<std::int8_t>(), g, pad_value_, patches);

  auto* acc = reinterpret_cast<std::int32_t*>(ctx.Scratch(
      2, static_cast<std::size_t>(rows) * g.out_c * sizeof(std::int32_t)));
  gemm::Int8Gemm(patches, static_cast<int>(rows), weights_->matrix, acc,
                 g.out_c, ctx);

  transform.Apply(acc, 0, rows, output.raw_data());
}

}  // namespace lce
