#include "kernels/bdepthwise.h"

#include <algorithm>
#include <utility>

#include "core/bitpack.h"
#include "core/macros.h"
#include "kernels/im2col.h"
#include "telemetry/metrics.h"

namespace lce {

BDepthwiseConv2D::BDepthwiseConv2D(const float* weights,
                                   BDepthwiseConv2DAttrs attrs)
    : attrs_(std::move(attrs)) {
  const Conv2DGeometry& g = attrs_.geo;
  LCE_CHECK_EQ(g.in_c, g.out_c);
  // Zero padding would need a correction step (cf. LceBConv2d); the
  // depthwise kernel supports one-padding and VALID only.
  LCE_CHECK(g.padding != Padding::kSameZero);
  // 4 counter bit-planes hold tap counts up to 15.
  LCE_CHECK_LE(g.filter_h * g.filter_w, 15);
  if (!attrs_.multiplier.empty()) {
    LCE_CHECK_EQ(static_cast<int>(attrs_.multiplier.size()), g.in_c);
  }
  if (!attrs_.bias.empty()) {
    LCE_CHECK_EQ(static_cast<int>(attrs_.bias.size()), g.in_c);
  }
  const int words = BitpackedWords(g.in_c);
  packed_weights_.assign(
      static_cast<std::size_t>(g.filter_h) * g.filter_w * words, 0);
  for (int p = 0; p < g.filter_h * g.filter_w; ++p) {
    BitpackRow(weights + static_cast<std::int64_t>(p) * g.in_c, g.in_c,
               packed_weights_.data() + static_cast<std::int64_t>(p) * words);
  }

  // Pipeline state: the tap offsets and interior classification depend
  // only on the geometry, so both are built once here.
  indirection_ = gemm::IndirectionOffsets(g);
  zero_row_.assign(words, 0);  // 0 bits = +1.0 one-padding
  tile_plan_ = pipeline::TilePlan(g, kTileRows);
  transform_ = std::make_unique<pipeline::FloatOutputTransform>(
      g.out_c, Activation::kNone, attrs_.multiplier, attrs_.bias);
}

// TileCompute policy of the depthwise kernel: for each output row, run the
// bit-sliced counter over the taps of each bitpacked word, resolving tap
// addresses through the indirection cache (interior tiles skip the padded
// tap sentinel check; padded taps read the all-zero one-padding row).
class BDepthwiseTileCompute final : public pipeline::TileCompute {
 public:
  BDepthwiseTileCompute(const BDepthwiseConv2D& op, const TBitpacked* input)
      : op_(op), input_(input) {}

  std::size_t ShardScratchBytes(int /*block_tiles*/) const override {
    return 0;  // counters live in registers; acc comes from the engine
  }

  void ComputeBlock(std::int64_t tile0, int block_tiles, std::int64_t row0,
                    int block_rows, const pipeline::TilePlan& plan,
                    gemm::KernelProfile /*profile*/,
                    std::uint8_t* /*scratch*/,
                    std::int32_t* acc) const override {
    const Conv2DGeometry& g = op_.attrs_.geo;
    const int words = BitpackedWords(g.in_c);
    const int taps = g.filter_h * g.filter_w;
    const TBitpacked* weights = op_.packed_weights_.data();
    const TBitpacked* zero_row = op_.zero_row_.data();
    const int tile_rows = plan.tile_rows();
    for (int i = 0; i < block_tiles; ++i) {
      const bool interior = plan.interior(tile0 + i);
      for (int j = 0; j < tile_rows; ++j) {
        const int r = i * tile_rows + j;
        if (r >= block_rows) return;
        const std::int32_t* offs = op_.indirection_.row(row0 + r);
        std::int32_t* o = acc + static_cast<std::int64_t>(r) * g.out_c;
        for (int w = 0; w < words; ++w) {
          BitSlicedCounter counter;
          const TBitpacked* wrow = weights + w;
          if (interior) {
            for (int t = 0; t < taps; ++t) {
              counter.Add(input_[offs[t] + w] ^ wrow[t * words]);
            }
          } else {
            for (int t = 0; t < taps; ++t) {
              const std::int32_t off = offs[t];
              const TBitpacked av = off < 0 ? zero_row[w] : input_[off + w];
              counter.Add(av ^ wrow[t * words]);
            }
          }
          const int base = w * kBitpackWordSize;
          const int valid = std::min(kBitpackWordSize, g.in_c - base);
          for (int bit = 0; bit < valid; ++bit) {
            o[base + bit] = taps - 2 * counter.Count(bit);
          }
        }
      }
    }
  }

 private:
  const BDepthwiseConv2D& op_;
  const TBitpacked* input_;
};

void BDepthwiseConv2D::Run(const Tensor& input, Tensor& output,
                           gemm::Context& ctx,
                           pipeline::ConvStageTimes* times) const {
  const Conv2DGeometry& g = attrs_.geo;
  LCE_CHECK(input.dtype() == DataType::kBitpacked);
  LCE_CHECK(output.dtype() == DataType::kFloat32);

  static telemetry::Metric* macs =
      telemetry::MetricsRegistry::Global().Counter("bgemm.binary_macs");
  macs->Add(Im2ColRows(g) * g.in_c * g.filter_h * g.filter_w);

  const BDepthwiseTileCompute compute(*this, input.data<TBitpacked>());
  pipeline::ConvPipelineArgs args;
  args.variant = "bdepthwise";
  args.out_c = g.out_c;
  args.plan = &tile_plan_;
  args.compute = &compute;
  args.transform = transform_.get();
  args.out = output.raw_data();
  pipeline::RunConvPipeline(args, ctx, times);
}

}  // namespace lce
