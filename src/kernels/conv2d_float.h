// Full-precision Conv2D, the role TFLite's float convolution plays for the
// non-binary layers of the models (the QuickNet stem and the 1x1
// transition convolutions).
//
// Execution runs through the shared fused row-tile engine
// (kernels/pipeline/conv_pipeline.h) with float block accumulators: patch
// rows are gathered straight from the feature map into float-GEMM A-panels
// (pipeline::GatherPackFloat), the block compute is the float GEMM's own
// micro-kernel (gemm::FloatComputeBlock), and bias + activation are the
// BiasActivationTransform applied per cache-resident tile. No full-image
// patch matrix is ever materialized; outputs are bit-identical to the
// im2col + GEMM oracle in kernels/reference.h because the K order and the
// kernels are the same.
#ifndef LCE_KERNELS_CONV2D_FLOAT_H_
#define LCE_KERNELS_CONV2D_FLOAT_H_

#include <memory>
#include <vector>

#include "core/tensor.h"
#include "gemm/context.h"
#include "gemm/float_gemm.h"
#include "kernels/conv_params.h"
#include "kernels/pipeline/conv_pipeline.h"

namespace lce {

struct Conv2DFloatAttrs {
  Conv2DGeometry geo;
  Activation activation = Activation::kNone;
  std::vector<float> bias;  // per out channel; empty means 0
};

class Conv2DFloat {
 public:
  // weights: float OHWI, packed once for the GEMM.
  Conv2DFloat(const float* weights_ohwi, Conv2DFloatAttrs attrs);

  // Variant sibling (docs/SERVING.md): shares `base`'s packed weights and
  // output transform; `attrs` may differ from base.attrs() only in
  // geo.batch and the spatial input size, and only the geometry-dependent
  // state (the tile plan) is rebuilt.
  Conv2DFloat(const Conv2DFloat& base, Conv2DFloatAttrs attrs);

  // input: float NHWC; output: float NHWC [batch, oh, ow, out_c].
  // Scratch: context slot 2 (per-shard A-panels + block accumulator).
  void Run(const Tensor& input, Tensor& output, gemm::Context& ctx) const;

  const Conv2DFloatAttrs& attrs() const { return attrs_; }

 private:
  // Geometry-independent prepared state, shared read-only between a kernel
  // and its variant siblings.
  struct SharedWeights {
    gemm::PackedFloatMatrix matrix;
    std::unique_ptr<pipeline::BiasActivationTransform> transform;
    // Gather sources for padded taps (in_c copies of the padding value)
    // and for rows past the end of the image (in_c zeros).
    std::vector<float> pad_row, zero_row;
  };

  friend class Conv2DFloatTileCompute;

  Conv2DFloatAttrs attrs_;
  std::shared_ptr<const SharedWeights> weights_;
  // Interior/border tile classification (geometry-only).
  pipeline::TilePlan tile_plan_;
};

}  // namespace lce

#endif  // LCE_KERNELS_CONV2D_FLOAT_H_
