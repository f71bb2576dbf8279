// Element-wise full-precision "glue" operators. The paper shows these become
// a significant latency contributor in shortcut-heavy BNNs (Table 4: the
// full-precision Add is 9.55% of QuickNet latency).
#ifndef LCE_KERNELS_ELEMENTWISE_H_
#define LCE_KERNELS_ELEMENTWISE_H_

#include <vector>

#include "core/tensor.h"
#include "core/thread_pool.h"
#include "kernels/conv_params.h"

namespace lce {

// out = act(a + b), element-wise, same shapes. With a pool, the pixels
// (elements / innermost dim) are sharded across it.
void AddFloat(const Tensor& a, const Tensor& b, Activation act, Tensor& out,
              ThreadPool* pool = nullptr);

// out = act(x), element-wise.
void ReluFloat(const Tensor& x, Tensor& out);

// Inference batch normalization as a per-channel affine transform:
//   out[..., c] = x[..., c] * scale[c] + offset[c]
// where scale = gamma / sqrt(var + eps), offset = beta - mean * scale.
void BatchNormFloat(const Tensor& x, const std::vector<float>& scale,
                    const std::vector<float>& offset, Tensor& out);

// Folds batch-norm statistics into the (scale, offset) affine form above.
void FoldBatchNorm(const std::vector<float>& gamma,
                   const std::vector<float>& beta,
                   const std::vector<float>& mean,
                   const std::vector<float>& variance, float epsilon,
                   std::vector<float>* scale, std::vector<float>* offset);

// In-place softmax over the innermost dimension.
void SoftmaxFloat(const Tensor& x, Tensor& out);

}  // namespace lce

#endif  // LCE_KERNELS_ELEMENTWISE_H_
