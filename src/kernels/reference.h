// Naive reference implementations used as ground truth in tests. These are
// deliberately simple loop nests with no packing or fusion -- except the
// float-conv oracle below, which keeps the retired production float
// convolution (full-image im2col + packed GEMM) for bit-exactness tests
// and ablation benches.
#ifndef LCE_KERNELS_REFERENCE_H_
#define LCE_KERNELS_REFERENCE_H_

#include <cstdint>

#include "gemm/context.h"
#include "kernels/conv_params.h"

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

// The float-conv oracle: full-image Im2ColFloat (padding value from
// geo.padding), gemm::FloatGemm against the packed OHWI weights, then
// out = act(acc + bias) (no add when bias is null). Same K order and
// micro-kernels as the ConvPipeline Conv2DFloat, so the two must agree bit
// for bit at any thread count. Scratch: ctx slot 0 (GEMM A-panels).
void RefConv2DFloatIm2ColGemm(const float* input, const float* weights_ohwi,
                              const Conv2DGeometry& geo, const float* bias,
                              Activation act, gemm::Context& ctx,
                              float* output);

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
