#include "kernels/bconv2d.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>
#include <vector>

#include "core/bitpack.h"
#include "core/macros.h"
#include "kernels/im2col.h"
#include "kernels/pipeline/gather_pack.h"
#include "telemetry/clock.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace lce {

using telemetry::NowNanos;

BConv2D::BConv2D(const float* weights_ohwi, BConv2DAttrs attrs)
    : attrs_(std::move(attrs)) {
  InitGeometry();
  const Conv2DGeometry& g = attrs_.geo;
  const int in_c_pg = g.in_c / std::max(1, attrs_.groups);
  const int words = BitpackedWords(in_c_pg);
  auto weights = std::make_shared<SharedWeights>();
  // Bitpack the weights: per (output channel, filter position), pack the
  // input-channel vector. This is the 32x weight compression.
  weights->rows.assign(
      static_cast<std::size_t>(g.out_c) * g.filter_h * g.filter_w * words, 0);
  for (int n = 0; n < g.out_c; ++n) {
    for (int p = 0; p < g.filter_h * g.filter_w; ++p) {
      const float* src =
          weights_ohwi +
          (static_cast<std::int64_t>(n) * g.filter_h * g.filter_w + p) * in_c_pg;
      BitpackRow(src, in_c_pg,
                 weights->rows.data() +
                     (static_cast<std::int64_t>(n) * g.filter_h * g.filter_w + p) * words);
    }
  }
  InitWeights(weights.get());
  weights_ = std::move(weights);
}

BConv2D::BConv2D(const TBitpacked* packed_weights_ohwi, BConv2DAttrs attrs)
    : attrs_(std::move(attrs)) {
  InitGeometry();
  const Conv2DGeometry& g = attrs_.geo;
  const int in_c_pg = g.in_c / std::max(1, attrs_.groups);
  const int words = BitpackedWords(in_c_pg);
  const std::size_t total =
      static_cast<std::size_t>(g.out_c) * g.filter_h * g.filter_w * words;
  auto weights = std::make_shared<SharedWeights>();
  weights->rows.assign(packed_weights_ohwi, packed_weights_ohwi + total);
  InitWeights(weights.get());
  weights_ = std::move(weights);
}

BConv2D::BConv2D(const BConv2D& base, BConv2DAttrs attrs)
    : attrs_(std::move(attrs)), weights_(base.weights_) {
  // Everything the shared state encodes -- packed weights, correction
  // tables, output transforms, all keyed by channels/filter/stride/padding
  // -- must be identical; the batch and the spatial input size (shape
  // buckets) may differ, since InitGeometry rebuilds every
  // spatially-dependent structure (indirection table, zero row, tile plan)
  // for this instance's own geometry.
  const Conv2DGeometry& g = attrs_.geo;
  const Conv2DGeometry& bg = base.attrs_.geo;
  LCE_CHECK(g.in_c == bg.in_c && g.out_c == bg.out_c &&
            g.filter_h == bg.filter_h && g.filter_w == bg.filter_w &&
            g.stride_h == bg.stride_h && g.stride_w == bg.stride_w &&
            g.padding == bg.padding);
  LCE_CHECK(attrs_.groups == base.attrs_.groups &&
            attrs_.output_type == base.attrs_.output_type);
  InitGeometry();
}

void BConv2D::InitGeometry() {
  const Conv2DGeometry& g = attrs_.geo;
  LCE_CHECK_GT(g.in_c, 0);
  LCE_CHECK_GT(g.out_c, 0);
  if (!attrs_.multiplier.empty()) {
    LCE_CHECK_EQ(static_cast<int>(attrs_.multiplier.size()), g.out_c);
  }
  if (!attrs_.bias.empty()) {
    LCE_CHECK_EQ(static_cast<int>(attrs_.bias.size()), g.out_c);
  }

  const int groups = std::max(1, attrs_.groups);
  LCE_CHECK_EQ(g.in_c % groups, 0);
  LCE_CHECK_EQ(g.out_c % groups, 0);
  const int in_c_pg = g.in_c / groups;
  if (groups > 1) {
    // Group boundaries must fall on bitpacked word boundaries.
    LCE_CHECK_EQ(in_c_pg % kBitpackWordSize, 0);
  }
  const int words = BitpackedWords(in_c_pg);
  k_bits_ = g.filter_h * g.filter_w * in_c_pg;

  // Gather path setup. Grouped convolutions always gather (their per-group
  // word slices have no contiguous im2col-free form); for groups == 1 the
  // indirection table is built when the user asked for the indirect BGEMM
  // and the convolution is not pointwise (a 1x1 stride-1 convolution feeds
  // the input to the GEMM directly and needs no table). The table depends
  // only on the geometry, so it is built once here instead of on every Run
  // (the paper's indirect BGEMM setup cost moves entirely out of the
  // inference hot path).
  const bool pointwise = g.filter_h == 1 && g.filter_w == 1 &&
                         g.stride_h == 1 && g.stride_w == 1;
  if (groups > 1 || (attrs_.use_indirect_bgemm && !pointwise)) {
    indirection_ = gemm::IndirectionOffsets(g);
    zero_row_.assign(words, 0);  // 0 bits = +1.0 one-padding
  }

  // Interior/border row-tile classification for the fused engine.
  tile_plan_ = pipeline::TilePlan(g, gemm::kBgemmMr);
}

void BConv2D::InitWeights(SharedWeights* weights) const {
  const Conv2DGeometry& g = attrs_.geo;
  const int groups = std::max(1, attrs_.groups);
  const int in_c_pg = g.in_c / groups;
  const int words = BitpackedWords(in_c_pg);
  const int patch_words = g.filter_h * g.filter_w * words;

  const int out_c_pg = g.out_c / groups;
  weights->groups.clear();
  weights->groups.reserve(groups);
  for (int grp = 0; grp < groups; ++grp) {
    weights->groups.emplace_back(
        weights->rows.data() +
            static_cast<std::int64_t>(grp) * out_c_pg * patch_words,
        out_c_pg, patch_words);
  }

  // Zero-padding correction table: sum of +/-1 weights per filter position,
  // recovered from the bitpacked rows (wsum = in_c - 2 * popcount since a 1
  // bit encodes -1 and padding bits are 0 but excluded via in_c).
  if (g.padding == Padding::kSameZero) {
    weights->filter_pos_weight_sums.assign(
        static_cast<std::size_t>(g.filter_h) * g.filter_w * g.out_c, 0);
    for (int n = 0; n < g.out_c; ++n) {
      for (int p = 0; p < g.filter_h * g.filter_w; ++p) {
        const TBitpacked* row =
            weights->rows.data() +
            (static_cast<std::int64_t>(n) * g.filter_h * g.filter_w + p) * words;
        std::int32_t neg = 0;
        for (int w = 0; w < words; ++w) neg += std::popcount(row[w]);
        weights->filter_pos_weight_sums[static_cast<std::size_t>(p) * g.out_c +
                                        n] = in_c_pg - 2 * neg;
      }
    }
  }

  // Output transform policy, shared verbatim by the fused and legacy paths
  // (the bitpacked flavor precomputes its thresholds in its constructor).
  switch (attrs_.output_type) {
    case BConvOutputType::kFloat:
      weights->transform = std::make_unique<pipeline::FloatOutputTransform>(
          g.out_c, attrs_.pre_activation, attrs_.multiplier, attrs_.bias);
      break;
    case BConvOutputType::kBitpacked:
      weights->transform = std::make_unique<pipeline::BitpackedOutputTransform>(
          g.out_c, k_bits_, attrs_.pre_activation, attrs_.multiplier,
          attrs_.bias);
      break;
    case BConvOutputType::kInt32:
      weights->transform =
          std::make_unique<pipeline::Int32OutputTransform>(g.out_c);
      break;
  }
}

void BConv2D::ApplyZeroPaddingCorrectionRows(std::int32_t* acc,
                                             std::int64_t row0,
                                             std::int64_t nrows) const {
  const Conv2DGeometry& g = attrs_.geo;
  const int out_h = g.out_h(), out_w = g.out_w();
  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  for (std::int64_t r = 0; r < nrows; ++r) {
    // Decompose the flattened output position; the batch index is
    // irrelevant since padding geometry repeats per image.
    const std::int64_t pos = row0 + r;
    const int ox = static_cast<int>(pos % out_w);
    const int oy = static_cast<int>((pos / out_w) % out_h);
    const int iy0 = oy * g.stride_h - pad_h;
    const int ix0 = ox * g.stride_w - pad_w;
    if (iy0 >= 0 && iy0 + g.filter_h <= g.in_h && ix0 >= 0 &&
        ix0 + g.filter_w <= g.in_w) {
      continue;  // no padded taps
    }
    std::int32_t* row = acc + r * g.out_c;
    for (int ky = 0; ky < g.filter_h; ++ky) {
      const int iy = iy0 + ky;
      for (int kx = 0; kx < g.filter_w; ++kx) {
        const int ix = ix0 + kx;
        if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w) continue;
        // This tap read one-padding (+1) but should contribute 0:
        // subtract the weight value at this position, per channel.
        const std::int32_t* wsum =
            weights_->filter_pos_weight_sums.data() +
            static_cast<std::size_t>(ky * g.filter_w + kx) * g.out_c;
        for (int n = 0; n < g.out_c; ++n) row[n] -= wsum[n];
      }
    }
  }
}

// TileCompute policy of the binary convolution: run the XOR-popcount block
// kernel on row-major patch rows -- contiguous ones (im2col output or a
// pointwise input) in place, or rows gathered through the indirection cache
// into shard scratch, one word slice per group.
class BConvTileCompute final : public pipeline::TileCompute {
 public:
  // `patches` null selects the gather.
  BConvTileCompute(const BConv2D& op, const TBitpacked* input,
                   const TBitpacked* patches)
      : op_(op),
        input_(input),
        patches_(patches),
        lda_(op.weights_->groups[0].kw()) {}

  std::size_t ShardScratchBytes(int block_tiles) const override {
    if (patches_ != nullptr) return 0;
    return static_cast<std::size_t>(block_tiles) * gemm::kBgemmMr * lda_ *
           sizeof(TBitpacked);
  }

  void ComputeBlock(std::int64_t tile0, int block_tiles, std::int64_t row0,
                    int block_rows, const pipeline::TilePlan& plan,
                    gemm::KernelProfile profile, std::uint8_t* scratch,
                    std::int32_t* acc) const override {
    const gemm::BGemmTier tier = gemm::BGemmTierFor(profile);
    const auto& groups = op_.weights_->groups;
    const int out_c = op_.attrs_.geo.out_c;
    if (patches_ != nullptr) {
      gemm::BGemmComputeBlock(patches_ + row0 * lda_, lda_, groups[0],
                              op_.k_bits_, tier, block_rows, acc, out_c);
      return;
    }
    // One sliced gather + GEMM per group; each group's columns land in
    // their slice of the shared block accumulator (ldc = out_c), so the
    // correction and transform downstream see one plain dense block.
    auto* rows = reinterpret_cast<TBitpacked*>(scratch);
    const int out_c_pg = out_c / static_cast<int>(groups.size());
    const int group_words = static_cast<int>(op_.zero_row_.size());
    for (std::size_t grp = 0; grp < groups.size(); ++grp) {
      for (int i = 0; i < block_tiles; ++i) {
        pipeline::GatherPackBitpacked(
            input_, op_.indirection_, op_.zero_row_.data(),
            static_cast<int>(grp) * group_words, group_words,
            row0 + static_cast<std::int64_t>(i) * gemm::kBgemmMr,
            gemm::kBgemmMr, plan.interior(tile0 + i),
            rows + static_cast<std::int64_t>(i) * gemm::kBgemmMr * lda_);
      }
      gemm::BGemmComputeBlock(rows, lda_, groups[grp], op_.k_bits_, tier,
                              block_rows,
                              acc + static_cast<int>(grp) * out_c_pg, out_c);
    }
  }

 private:
  const BConv2D& op_;
  const TBitpacked* input_;
  const TBitpacked* patches_;
  int lda_;  // words per patch row: one group's K
};

// RowCorrector policy: zero-padding fixup, invoked by the engine only for
// blocks containing at least one border tile.
class BConvZeroPadCorrector final : public pipeline::RowCorrector {
 public:
  explicit BConvZeroPadCorrector(const BConv2D& op) : op_(op) {}
  void Apply(std::int32_t* acc, std::int64_t row0,
             std::int64_t nrows) const override {
    op_.ApplyZeroPaddingCorrectionRows(acc, row0, nrows);
  }

 private:
  const BConv2D& op_;
};

void BConv2D::Run(const Tensor& input, Tensor& output, gemm::Context& ctx,
                  BConvStageTimes* times) const {
  const Conv2DGeometry& g = attrs_.geo;
  LCE_CHECK(input.dtype() == DataType::kBitpacked);
  LCE_CHECK_EQ(input.shape().dim(3), g.in_c);
  switch (attrs_.output_type) {
    case BConvOutputType::kFloat:
      LCE_CHECK(output.dtype() == DataType::kFloat32);
      break;
    case BConvOutputType::kBitpacked:
      LCE_CHECK(output.dtype() == DataType::kBitpacked);
      break;
    case BConvOutputType::kInt32:
      LCE_CHECK(output.dtype() == DataType::kInt32);
      break;
  }

  if (attrs_.force_unfused) {
    static telemetry::Metric* forced =
        telemetry::MetricsRegistry::Global().Counter("bconv2d.forced_unfused");
    forced->Add(1);
    RunUnfused(input, output, ctx, times);
    return;
  }

  // Fused row-tile pipeline for every configuration, grouped included. The
  // only full-image stage left is the im2col copy of the non-indirect
  // ungrouped variant; everything downstream (gather, BGEMM, zero-padding
  // correction, output transform) runs per row tile inside the shared
  // engine, so no full-image accumulator is ever allocated.
  const int groups = std::max(1, attrs_.groups);
  const std::int64_t rows = Im2ColRows(g);
  const int patch_words = Im2ColDepthBitpacked(g);
  const bool pointwise = g.filter_h == 1 && g.filter_w == 1 &&
                         g.stride_h == 1 && g.stride_w == 1;
  const bool timed = telemetry::TracingActive() || times != nullptr;

  std::uint64_t t0 = 0;
  if (timed) t0 = NowNanos();
  // Patch rows feed the kernel in place: a 1x1 stride-1 convolution's
  // im2col is the identity, so its bitpacked input is used directly; the
  // non-indirect variant materializes im2col once. Everything else
  // (grouped, indirect) gathers per row tile.
  const TBitpacked* patches = nullptr;
  if (groups == 1 && pointwise) {
    patches = input.data<TBitpacked>();
  } else if (groups == 1 && !attrs_.use_indirect_bgemm) {
    const std::size_t patch_bytes =
        static_cast<std::size_t>(rows) * patch_words * sizeof(TBitpacked);
    auto* scratch = reinterpret_cast<TBitpacked*>(ctx.Scratch(1, patch_bytes));
    static telemetry::Metric* im2col_bytes =
        telemetry::MetricsRegistry::Global().Gauge("bconv2d.im2col_bytes");
    im2col_bytes->SetMax(static_cast<std::int64_t>(patch_bytes));
    Im2ColBitpacked(input.data<TBitpacked>(), g, scratch);
    patches = scratch;
  }
  const std::uint64_t t1 = timed ? NowNanos() : 0;

  static telemetry::Metric* macs =
      telemetry::MetricsRegistry::Global().Counter("bgemm.binary_macs");
  macs->Add(rows * (g.out_c / groups) * k_bits_ * groups);

  const BConvTileCompute compute(*this, input.data<TBitpacked>(), patches);
  const BConvZeroPadCorrector corrector(*this);

  pipeline::ConvPipelineArgs args;
  args.variant = "bconv2d";
  args.out_c = g.out_c;
  args.plan = &tile_plan_;
  args.compute = &compute;
  args.corrector =
      g.padding == Padding::kSameZero ? &corrector : nullptr;
  args.transform = weights_->transform.get();
  args.out = output.raw_data();
  args.pre_t0 = t0;
  args.pre_t1 = t1;
  pipeline::RunConvPipeline(args, ctx, times);
}

void BConv2D::RunUnfused(const Tensor& input, Tensor& output,
                         gemm::Context& ctx, BConvStageTimes* times) const {
  // Tripwire: the legacy path must only ever run when explicitly forced.
  // If a future change reintroduces a silent fallback, this counter goes
  // nonzero and the perf-smoke CI assertion catches it.
  if (!attrs_.force_unfused) {
    static telemetry::Metric* fallback =
        telemetry::MetricsRegistry::Global().Counter(
            "bconv2d.fallback_unfused");
    fallback->Add(1);
  }

  const Conv2DGeometry& g = attrs_.geo;
  const std::int64_t rows = Im2ColRows(g);
  const int patch_words = Im2ColDepthBitpacked(g);

  const int groups = std::max(1, attrs_.groups);
  const int in_c_pg = g.in_c / groups;
  const int out_c_pg = g.out_c / groups;
  const int group_words = BitpackedWords(in_c_pg);
  const int total_words = groups * group_words;

  // Fast path: a 1x1 stride-1 convolution's im2col is the identity, so the
  // bitpacked input feeds the BGEMM directly (no patch materialization).
  const bool pointwise = groups == 1 && g.filter_h == 1 && g.filter_w == 1 &&
                         g.stride_h == 1 && g.stride_w == 1;
  const bool indirect = groups == 1 && attrs_.use_indirect_bgemm;

  // Stage timestamps are taken only when someone consumes them: the per-op
  // profiler (`times`) and/or the tracer. Both are fed from the same
  // telemetry-clock reads, so the Table 4 stage split and the Chrome trace
  // are two views of one measurement; the unobserved hot path reads no
  // clock at all.
  const bool tracing = telemetry::TracingActive();
  const bool timed = tracing || times != nullptr;
  telemetry::Tracer& tracer = telemetry::Tracer::Global();

  std::uint64_t t0 = 0;
  if (timed) t0 = NowNanos();
  const TBitpacked* patches = nullptr;
  TBitpacked* patch_scratch = nullptr;
  if (pointwise) {
    patches = input.data<TBitpacked>();
  } else if (!indirect) {
    // The indirect path needs no patch buffer: gathering replaces im2col,
    // so neither the slot-1 scratch nor the im2col gauge is touched.
    const std::size_t patch_bytes =
        static_cast<std::size_t>(rows) * patch_words * sizeof(TBitpacked);
    patch_scratch = reinterpret_cast<TBitpacked*>(ctx.Scratch(1, patch_bytes));
    static telemetry::Metric* im2col_bytes =
        telemetry::MetricsRegistry::Global().Gauge("bconv2d.im2col_bytes");
    im2col_bytes->SetMax(static_cast<std::int64_t>(patch_bytes));
    if (groups == 1) {
      Im2ColBitpacked(input.data<TBitpacked>(), g, patch_scratch);
    }
    patches = patch_scratch;
  }

  std::uint64_t t1 = timed ? NowNanos() : 0;
  auto* acc = reinterpret_cast<std::int32_t*>(ctx.Scratch(
      2, static_cast<std::size_t>(rows) * g.out_c * sizeof(std::int32_t)));
  if (indirect && !pointwise) {
    // Indirect path: pointer setup replaces im2col entirely.
    const gemm::IndirectionBuffer ind(input.data<TBitpacked>(), g);
    if (timed) t1 = NowNanos();
    gemm::IndirectBGemm(ind, weights_->rows.data(), g.out_c, k_bits_, acc,
                        g.out_c);
  } else if (groups == 1) {
    gemm::BGemm(patches, static_cast<int>(rows), weights_->groups[0], k_bits_,
                acc, g.out_c, ctx);
  } else {
    std::uint64_t im2col_total = timed ? t1 - t0 : 0;
    for (int grp = 0; grp < groups; ++grp) {
      const std::uint64_t g0 = timed ? NowNanos() : 0;
      Im2ColBitpackedGroup(input.data<TBitpacked>(), g, total_words,
                           grp * group_words, group_words, patch_scratch);
      const std::uint64_t g1 = timed ? NowNanos() : 0;
      gemm::BGemm(patch_scratch, static_cast<int>(rows),
                  weights_->groups[grp], k_bits_,
                  acc + static_cast<std::int64_t>(grp) * out_c_pg, g.out_c,
                  ctx);
      if (timed) {
        im2col_total += g1 - g0;
        if (tracing) {
          tracer.RecordCompleteWithArg("bconv2d/im2col", "kernel", g0, g1,
                                       "group", grp);
        }
      }
    }
    // Fold the per-group stage timings into the im2col/gemm boundary.
    if (timed) t1 = t0 + im2col_total;
  }

  const std::uint64_t t2 = timed ? NowNanos() : 0;
  if (g.padding == Padding::kSameZero) {
    ApplyZeroPaddingCorrectionRows(acc, 0, rows);
  }
  weights_->transform->Apply(acc, 0, rows, output.raw_data());

  if (!timed) return;
  const std::uint64_t t3 = NowNanos();
  if (tracing) {
    // The grouped path already emitted per-group im2col spans above; the
    // ungrouped paths get one im2col span for the t0..t1 segment.
    if (groups == 1) tracer.RecordComplete("bconv2d/im2col", "kernel", t0, t1);
    tracer.RecordComplete("bconv2d/gemm", "kernel", t1, t2);
    tracer.RecordComplete("bconv2d/output_transform", "kernel", t2, t3);
  }
  if (times != nullptr) {
    times->im2col = static_cast<double>(t1 - t0) * 1e-9;
    times->gemm = static_cast<double>(t2 - t1) * 1e-9;
    times->transform = static_cast<double>(t3 - t2) * 1e-9;
  }
}

}  // namespace lce
