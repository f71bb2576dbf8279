// Reference implementations used as ground truth in tests and as baselines
// in the ablation benches. Two kinds:
//
//   * naive loop nests with no packing or fusion (RefConv2DFloat,
//     RefDepthwiseConv2DFloat, RefMaxPool2DFloat);
//   * the full-image oracles: the retired production pipelines of the
//     convolution kernels, which materialize im2col patches (or loop over
//     the whole image) and run one full-image GEMM before the output
//     transform. Each fused ConvPipeline kernel must match its oracle bit
//     for bit at any thread count, and the ablation benches time the
//     oracles as the unfused baselines. Weight packing happens at
//     construction, outside Run().
//
// These are the only functions that materialize im2col patch matrices.
#ifndef LCE_KERNELS_REFERENCE_H_
#define LCE_KERNELS_REFERENCE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/tensor.h"
#include "gemm/bgemm.h"
#include "gemm/context.h"
#include "gemm/int8_gemm.h"
#include "kernels/bconv2d.h"
#include "kernels/bdepthwise.h"
#include "kernels/conv2d_int8.h"
#include "kernels/conv_params.h"
#include "kernels/pipeline/output_transform.h"

namespace lce {

// Plain float convolution, NHWC input, OHWI weights. Padded locations use
// pad_value (0.0 for SAME_ZERO, +1.0 for SAME_ONE). If multiplier/bias are
// non-null they are applied per output channel: y = act(conv * mult + bias).
void RefConv2DFloat(const float* input, const float* weights,
                    const Conv2DGeometry& geo, float pad_value,
                    const float* multiplier, const float* bias,
                    Activation act, float* output);

// Float im2col: padded locations filled with `pad_value` (0 for SAME_ZERO,
// 1 for SAME_ONE). Output: [batch*out_h*out_w][filter_h*filter_w*in_c],
// patch layout [filter_h][filter_w][in_c] (OHWI weights flattened per
// output channel).
void Im2ColFloat(const float* input, const Conv2DGeometry& geo,
                 float pad_value, float* output);

// Int8 im2col: padded locations filled with `pad_value` (the input zero
// point, so padding contributes zero after offset subtraction).
void Im2ColInt8(const std::int8_t* input, const Conv2DGeometry& geo,
                std::int8_t pad_value, std::int8_t* output);

// Bitpacked im2col: input is NHWC with channels packed into words(in_c)
// words. Output: [batch*out_h*out_w][filter_h*filter_w*words(in_c)] words.
// Padded locations are 0 words, which encode +1.0: one-padding falls out
// of bitpacked im2col naturally.
void Im2ColBitpacked(const TBitpacked* input, const Conv2DGeometry& geo,
                     TBitpacked* output);

// Grouped variant: gathers only `word_count` words starting at `word_begin`
// of each pixel's `total_words`-word channel vector (group boundaries must
// fall on word boundaries). Output rows have filter_h*filter_w*word_count
// words.
void Im2ColBitpackedGroup(const TBitpacked* input, const Conv2DGeometry& geo,
                          int total_words, int word_begin, int word_count,
                          TBitpacked* output);

// The float-conv oracle: full-image Im2ColFloat (padding value from
// geo.padding), gemm::FloatGemm against the packed OHWI weights, then
// out = act(acc + bias) (no add when bias is null). Same K order and
// micro-kernels as the ConvPipeline Conv2DFloat, so the two must agree bit
// for bit at any thread count. Scratch: ctx slot 0 (GEMM A-panels).
void RefConv2DFloatIm2ColGemm(const float* input, const float* weights_ohwi,
                              const Conv2DGeometry& geo, const float* bias,
                              Activation act, gemm::Context& ctx,
                              float* output);

// The binary-convolution oracle (BConv2D): per group, full-image bitpacked
// im2col (a 1x1 stride-1 ungrouped input feeds the GEMM in place) and
// gemm::BGemm into a full-image int32 accumulator; then the SAME_ZERO
// correction (subtract the weight sum of every padded tap) and
// MakeBConvOutputTransform over the whole image. Scratch: ctx slot 1
// (patches) and slot 2 (accumulator).
class RefBConv2DIm2ColBGemm {
 public:
  // weights: float OHWI with +/-1 values, innermost dimension in_c/groups.
  RefBConv2DIm2ColBGemm(const float* weights_ohwi, BConv2DAttrs attrs);

  // input: bitpacked NHWC; output: dtype matching attrs.output_type.
  void Run(const Tensor& input, Tensor& output, gemm::Context& ctx) const;

 private:
  BConv2DAttrs attrs_;
  int k_bits_ = 0;  // fh*fw*(in_c/groups)
  std::vector<gemm::PackedBinaryMatrix> groups_;
  // SAME_ZERO only: per (filter tap, output channel) sum of the +/-1
  // weights, [fh*fw][out_c].
  std::vector<std::int32_t> tap_weight_sums_;
  std::unique_ptr<pipeline::OutputTransform> transform_;
};

// The binary depthwise oracle (BDepthwiseConv2D): the single-threaded
// full-image loop, one bit-sliced counter per (output pixel, channel word),
// with the multiplier/bias applied per element.
class RefBDepthwiseConv2D {
 public:
  // weights: float [filter_h][filter_w][channels] with +/-1 values.
  RefBDepthwiseConv2D(const float* weights, BDepthwiseConv2DAttrs attrs);

  // input: bitpacked NHWC; output: float NHWC.
  void Run(const Tensor& input, Tensor& output) const;

 private:
  BDepthwiseConv2DAttrs attrs_;
  std::vector<TBitpacked> packed_weights_;  // [fh*fw][words(channels)]
};

// The int8 convolution oracle (Conv2DInt8): full-image Im2ColInt8 (padded
// taps read the input zero point), gemm::Int8DotComputeStagedBlock over the
// im2col rows (staged for the tier: padded to the panels' K-group stride,
// biased when gemm::Int8DotRowsBiased) into a full-image accumulator, then
// MakeInt8RequantTransform over the whole image. The dot kernel is the tier
// the context's profile implies: the portable loop for
// KernelProfile::kScalar, gemm::SelectInt8Tier() otherwise. Scratch: ctx
// slot 0 (staged rows, unless the tier reads raw rows and K is a multiple
// of 4), slot 1 (patches) and slot 2 (accumulator).
class RefConv2DInt8Im2ColGemm {
 public:
  RefConv2DInt8Im2ColGemm(const std::int8_t* weights_ohwi,
                          Conv2DInt8Attrs attrs);

  // input: int8 NHWC; output: int8 NHWC.
  void Run(const Tensor& input, Tensor& output, gemm::Context& ctx) const;

 private:
  Conv2DInt8Attrs attrs_;
  gemm::PackedInt8DotPanels panels_;
  std::unique_ptr<pipeline::Int8RequantTransform> transform_;
};

// Plain float depthwise convolution; weights are [1][fh][fw][channels]
// (channel multiplier 1).
void RefDepthwiseConv2DFloat(const float* input, const float* weights,
                             const Conv2DGeometry& geo, const float* bias,
                             Activation act, float* output);

// Plain float max pooling (padded locations are ignored, TF semantics).
void RefMaxPool2DFloat(const float* input, const Pool2DGeometry& geo,
                       float* output);

}  // namespace lce

#endif  // LCE_KERNELS_REFERENCE_H_
