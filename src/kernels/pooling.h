// Full-precision pooling operators (TFLite-equivalent implementations used
// by the non-binary parts of the models).
#ifndef LCE_KERNELS_POOLING_H_
#define LCE_KERNELS_POOLING_H_

#include "core/tensor.h"
#include "core/thread_pool.h"
#include "kernels/conv_params.h"

namespace lce {

// Float max pooling, NHWC. Padded positions are ignored. With a pool, the
// batch * out_h output rows are sharded across it (each output element is
// computed by exactly one shard, so results do not depend on the split).
void MaxPool2DFloat(const Tensor& input, const Pool2DGeometry& geo,
                    Tensor& output, ThreadPool* pool = nullptr);

// Float average pooling, NHWC. The divisor counts only valid positions.
void AvgPool2DFloat(const Tensor& input, const Pool2DGeometry& geo,
                    Tensor& output);

// Global average pooling: [N,H,W,C] float -> [N,C] float.
void GlobalAvgPoolFloat(const Tensor& input, Tensor& output);

}  // namespace lce

#endif  // LCE_KERNELS_POOLING_H_
