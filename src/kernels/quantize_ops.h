// LceQuantize / LceDequantize operators (paper section 3.2).
//
// LceQuantize binarizes activations by extracting sign bits into bitpacked
// words (0 bit = +1.0, 1 bit = -1.0), padding channels up to a multiple of
// 32. LceDequantize converts bitpacked data back to +/-1.0 floats.
#ifndef LCE_KERNELS_QUANTIZE_OPS_H_
#define LCE_KERNELS_QUANTIZE_OPS_H_

#include "core/tensor.h"
#include "core/thread_pool.h"

namespace lce {

// input: float NHWC -> output: bitpacked NHWC (same logical shape).
// With a pool, the pixels (elements / innermost dim) are sharded across it.
void LceQuantize(const Tensor& input, Tensor& output,
                 ThreadPool* pool = nullptr);

// input: bitpacked NHWC -> output: +/-1.0 float NHWC.
void LceDequantize(const Tensor& input, Tensor& output);

}  // namespace lce

#endif  // LCE_KERNELS_QUANTIZE_OPS_H_
