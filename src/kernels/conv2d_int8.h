// 8-bit quantized Conv2D (fused gather + packed int8 GEMM + requantization),
// standing in for TFLite's quantized convolution in the paper's int8
// comparisons. Per-tensor affine quantization, symmetric weights.
//
// Execution runs through the shared fused row-tile engine
// (kernels/pipeline/conv_pipeline.h): patch rows are byte-gathered through
// the prepare-time indirection cache straight into biased int8 GEMM
// A-panels, and the requantization is the shared Int8RequantTransform
// applied per cache-resident tile.
#ifndef LCE_KERNELS_CONV2D_INT8_H_
#define LCE_KERNELS_CONV2D_INT8_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/quantization.h"
#include "core/tensor.h"
#include "gemm/context.h"
#include "gemm/indirect_bgemm.h"
#include "gemm/int8_gemm.h"
#include "kernels/conv_params.h"
#include "kernels/pipeline/conv_pipeline.h"

namespace lce {

struct Conv2DInt8Attrs {
  Conv2DGeometry geo;
  Activation activation = Activation::kNone;
  QuantParams input_quant;        // scale s_in, zero point z_in
  QuantParams weight_quant;       // symmetric: zero point 0 (per-tensor)
  QuantParams output_quant;       // scale s_out, zero point z_out
  std::vector<std::int32_t> bias;  // int32, scale s_in*s_w[c]; empty means 0
  // Optional per-output-channel weight scales (TFLite-style per-channel
  // quantization). When non-empty, overrides weight_quant.scale; bias[c]
  // must then be at scale s_in * weight_scales[c].
  std::vector<float> weight_scales;
  // Row tiles per pipeline block. kInt8Mr is small (2 rows per tile), so
  // the default 64-tile block (128 rows) amortizes the packed-RHS streaming
  // while the staged rows + accumulator still fit in L2. Exposed so
  // bench_int8_dotprod can sweep the weight-stationary blocking.
  int block_tiles = 64;
  // Escape hatch for benchmarks and parity tests: run the legacy unfused
  // pipeline (full-image im2col -> full-image accumulator -> requantize)
  // instead of the fused row-tile pipeline.
  bool force_unfused = false;
};

class Conv2DInt8 {
 public:
  Conv2DInt8(const std::int8_t* weights_ohwi, Conv2DInt8Attrs attrs);

  // Batch-variant sibling (docs/SERVING.md): shares `base`'s packed weight
  // matrix and requantization transform (batch-invariant) and rebuilds only
  // the geometry-dependent state (indirection cache, tile plan). `attrs`
  // must match base.attrs() in everything except geo.batch.
  Conv2DInt8(const Conv2DInt8& base, Conv2DInt8Attrs attrs);

  // input: int8 NHWC; output: int8 NHWC.
  // scratch usage: fused path: context slot 2 (per-shard A-panels + staging
  // + row-tile accumulator); legacy path: slot 1 (im2col patches) and
  // slot 2 (full-image accumulator).
  void Run(const Tensor& input, Tensor& output, gemm::Context& ctx,
           pipeline::ConvStageTimes* times = nullptr) const;

  const Conv2DInt8Attrs& attrs() const { return attrs_; }

 private:
  // Batch-invariant prepared weight state, shared (read-only) between a
  // kernel and its batch-variant siblings. The transform references
  // matrix.row_sums(), so both live and die together.
  struct SharedWeights {
    gemm::PackedInt8Matrix matrix;
    // Second weight layout for the dot-product tiers (gemm/int8_isa.h):
    // K-grouped weight-stationary panels consumed by Int8DotComputeBlock.
    // Built alongside `matrix` at Compile() time; which layout a Run()
    // reads is the runtime tier selection's call.
    gemm::PackedInt8DotPanels dot_panels;
    // Requantization policy (multipliers, shifts, activation clamp), shared
    // verbatim by the fused and legacy paths.
    std::unique_ptr<pipeline::Int8RequantTransform> transform;
  };

  void RunUnfused(const Tensor& input, Tensor& output, gemm::Context& ctx,
                  const pipeline::OutputTransform& transform) const;
  // Builds the geometry-dependent per-variant state (pad value, indirection
  // cache, tile plan) -- the only setup a batch-variant sibling repeats.
  void InitGeometry();

  friend class Conv2DInt8TileCompute;
  friend class Conv2DInt8DotTileCompute;

  Conv2DInt8Attrs attrs_;
  std::shared_ptr<const SharedWeights> weights_;
  // Byte value padded taps read: the input zero point, so padding
  // contributes zero after offset subtraction.
  std::int8_t pad_value_ = 0;
  // Fused-path state: byte-offset tap table (elems_per_pixel = in_c) and
  // the interior/border tile classification.
  gemm::IndirectionOffsets indirection_;
  pipeline::TilePlan tile_plan_;
};

}  // namespace lce

#endif  // LCE_KERNELS_CONV2D_INT8_H_
