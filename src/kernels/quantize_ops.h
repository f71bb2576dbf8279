// LceQuantize / LceDequantize operators (paper section 3.2), and the
// float -> int8 quantize of the int8 path.
//
// LceQuantize binarizes activations by extracting sign bits into bitpacked
// words (0 bit = +1.0, 1 bit = -1.0), padding channels up to a multiple of
// 32. LceDequantize converts bitpacked data back to +/-1.0 floats.
#ifndef LCE_KERNELS_QUANTIZE_OPS_H_
#define LCE_KERNELS_QUANTIZE_OPS_H_

#include <cstdint>

#include "core/quantization.h"
#include "core/tensor.h"
#include "core/thread_pool.h"

namespace lce {

// input: float NHWC -> output: bitpacked NHWC (same logical shape).
// With a pool, the pixels (elements / innermost dim) are sharded across it.
void LceQuantize(const Tensor& input, Tensor& output,
                 ThreadPool* pool = nullptr);

// input: bitpacked NHWC -> output: +/-1.0 float NHWC.
void LceDequantize(const Tensor& input, Tensor& output);

// dst[i] = QuantizeValue(src[i], q) for i < count. With `simd` set and an
// AVX-512 build, 16 elements per step, bit-identical to QuantizeValue
// (round half away from zero, NaN to -128); the rest, and every element
// without `simd`, go through QuantizeInt8Reference.
void QuantizeInt8(const float* src, std::int64_t count, const QuantParams& q,
                  bool simd, std::int8_t* dst);

// The scalar QuantizeValue loop: the portable path and the tests' oracle.
void QuantizeInt8Reference(const float* src, std::int64_t count,
                           const QuantParams& q, std::int8_t* dst);

}  // namespace lce

#endif  // LCE_KERNELS_QUANTIZE_OPS_H_
