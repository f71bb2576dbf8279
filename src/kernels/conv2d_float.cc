#include "kernels/conv2d_float.h"

#include <utility>

#include "core/macros.h"
#include "kernels/im2col.h"
#include "kernels/pipeline/gather_pack.h"

namespace lce {

Conv2DFloat::Conv2DFloat(const float* weights_ohwi, Conv2DFloatAttrs attrs)
    : attrs_(std::move(attrs)) {
  const Conv2DGeometry& g = attrs_.geo;
  if (!attrs_.bias.empty()) {
    LCE_CHECK_EQ(static_cast<int>(attrs_.bias.size()), g.out_c);
  }
  auto weights = std::make_shared<SharedWeights>();
  weights->matrix =
      gemm::PackedFloatMatrix(weights_ohwi, g.out_c, Im2ColDepthFloat(g));
  weights->transform = std::make_unique<pipeline::BiasActivationTransform>(
      g.out_c, attrs_.activation, attrs_.bias);
  // SAME_ONE is the training-dialect emulation of one-padded binarized
  // convolutions: pad with +1.0 instead of 0.
  weights->pad_row.assign(g.in_c,
                          g.padding == Padding::kSameOne ? 1.0f : 0.0f);
  weights->zero_row.assign(g.in_c, 0.0f);
  weights_ = std::move(weights);
  tile_plan_ = pipeline::TilePlan(g, gemm::kFloatMr);
}

Conv2DFloat::Conv2DFloat(const Conv2DFloat& base, Conv2DFloatAttrs attrs)
    : attrs_(std::move(attrs)), weights_(base.weights_) {
  // The shared state depends only on channels, filter size and padding, so
  // a sibling may differ in batch and spatial input size (shape buckets);
  // only the tile plan is geometry-dependent.
  const Conv2DGeometry& g = attrs_.geo;
  const Conv2DGeometry& bg = base.attrs_.geo;
  LCE_CHECK(g.in_c == bg.in_c && g.out_c == bg.out_c &&
            g.filter_h == bg.filter_h && g.filter_w == bg.filter_w &&
            g.stride_h == bg.stride_h && g.stride_w == bg.stride_w &&
            g.padding == bg.padding);
  tile_plan_ = pipeline::TilePlan(g, gemm::kFloatMr);
}

// TileCompute policy of the float kernel: gather each kFloatMr-row tile
// into its A-panel, then run the float GEMM block kernel over all output
// channels of the block.
class Conv2DFloatTileCompute final : public pipeline::FloatTileCompute {
 public:
  Conv2DFloatTileCompute(const Conv2DFloat& op, const float* input)
      : op_(op),
        input_(input),
        a_elems_(static_cast<std::int64_t>(op.weights_->matrix.k()) *
                 gemm::kFloatMr) {}

  std::size_t ShardScratchBytes(int block_tiles) const override {
    return static_cast<std::size_t>(a_elems_) * block_tiles * sizeof(float);
  }

  void ComputeBlock(std::int64_t tile0, int block_tiles, std::int64_t row0,
                    int block_rows, const pipeline::TilePlan& plan,
                    gemm::KernelProfile profile, std::uint8_t* scratch,
                    float* acc) const override {
    auto* apanels = reinterpret_cast<float*>(scratch);
    const auto& w = *op_.weights_;
    for (int i = 0; i < block_tiles; ++i) {
      pipeline::GatherPackFloat(
          input_, op_.attrs_.geo, w.pad_row.data(), w.zero_row.data(),
          row0 + static_cast<std::int64_t>(i) * gemm::kFloatMr,
          plan.interior(tile0 + i), apanels + i * a_elems_);
    }
    gemm::FloatComputeBlock(apanels, block_rows, w.matrix, 0,
                            w.matrix.num_tiles(), profile, acc,
                            op_.attrs_.geo.out_c);
  }

 private:
  const Conv2DFloat& op_;
  const float* input_;
  std::int64_t a_elems_;
};

void Conv2DFloat::Run(const Tensor& input, Tensor& output,
                      gemm::Context& ctx) const {
  const Conv2DGeometry& g = attrs_.geo;
  LCE_CHECK(input.dtype() == DataType::kFloat32);
  LCE_CHECK(output.dtype() == DataType::kFloat32);
  LCE_CHECK_EQ(input.shape().dim(3), g.in_c);

  const Conv2DFloatTileCompute compute(*this, input.data<float>());
  pipeline::FloatConvPipelineArgs args;
  args.variant = "conv2d_float";
  args.out_c = g.out_c;
  args.plan = &tile_plan_;
  args.compute = &compute;
  args.transform = weights_->transform.get();
  args.out = output.raw_data();
  pipeline::RunConvPipeline(args, ctx, nullptr);
}

}  // namespace lce
