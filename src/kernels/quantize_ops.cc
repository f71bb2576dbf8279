#include "kernels/quantize_ops.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "core/bitpack.h"
#include "core/macros.h"

namespace lce {

void LceQuantize(const Tensor& input, Tensor& output, ThreadPool* pool) {
  if (pool == nullptr) {
    BitpackTensor(input, output);
    return;
  }
  LCE_CHECK(input.dtype() == DataType::kFloat32);
  LCE_CHECK(output.dtype() == DataType::kBitpacked);
  LCE_CHECK(input.shape() == output.shape());
  const int channels =
      static_cast<int>(input.shape().dim(input.shape().rank() - 1));
  const int words = BitpackedWords(channels);
  const float* src = input.data<float>();
  TBitpacked* dst = output.data<TBitpacked>();
  pool->ParallelFor(input.num_elements() / channels,
                    [&](std::int64_t begin, std::int64_t end) {
                      BitpackMatrix(src + begin * channels, end - begin,
                                    channels, dst + begin * words);
                    });
}

void LceDequantize(const Tensor& input, Tensor& output) {
  UnpackTensor(input, output);
}

void QuantizeInt8Reference(const float* src, std::int64_t count,
                           const QuantParams& q, std::int8_t* dst) {
  for (std::int64_t i = 0; i < count; ++i) dst[i] = QuantizeValue(src[i], q);
}

// GCC 12's AVX-512 headers expand most intrinsics through
// _mm512_undefined_epi32, which trips a false -Wmaybe-uninitialized at
// every inlined use (GCC PR105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
void QuantizeInt8(const float* src, std::int64_t count, const QuantParams& q,
                  bool simd, std::int8_t* dst) {
  std::int64_t i = 0;
#if defined(__AVX512F__)
  if (simd) {
    const __m512 scale = _mm512_set1_ps(q.scale);
    const __m512 zero_point = _mm512_set1_ps(static_cast<float>(q.zero_point));
    const __m512 half = _mm512_set1_ps(0.5f);
    const __m512i one = _mm512_castps_si512(_mm512_set1_ps(1.0f));
    const __m512i sign = _mm512_set1_epi32(static_cast<int>(0x80000000u));
    const __m512 upper = _mm512_set1_ps(127.0f);
    const __m512 lower = _mm512_set1_ps(-128.0f);
    const __m512i upper_i = _mm512_set1_epi32(127);
    const __m512i lower_i = _mm512_set1_epi32(-128);
    for (; i + 16 <= count; i += 16) {
      const __m512 v = _mm512_div_ps(_mm512_loadu_ps(src + i), scale);
      // std::round: truncate, then step one away from zero where the
      // dropped fraction (exact: v - trunc(v) needs no rounding) is at
      // least 0.5. NaN and +-inf have a NaN fraction and take no step.
      const __m512 t =
          _mm512_roundscale_ps(v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
      const __mmask16 step = _mm512_cmp_ps_mask(
          _mm512_abs_ps(_mm512_sub_ps(v, t)), half, _CMP_GE_OQ);
      const __m512 away = _mm512_castsi512_ps(_mm512_or_si512(
          one, _mm512_and_si512(_mm512_castps_si512(v), sign)));
      const __m512 scaled =
          _mm512_add_ps(_mm512_mask_add_ps(t, step, t, away), zero_point);
      // QuantizeValue's rail order: >= 127 first, then > -128 truncates,
      // everything else (NaN included) is -128.
      __m512i r = _mm512_mask_blend_epi32(
          _mm512_cmp_ps_mask(scaled, lower, _CMP_GT_OQ), lower_i,
          _mm512_cvttps_epi32(scaled));
      r = _mm512_mask_blend_epi32(
          _mm512_cmp_ps_mask(scaled, upper, _CMP_GE_OQ), r, upper_i);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                       _mm512_cvtepi32_epi8(r));
    }
  }
#else
  (void)simd;
#endif
  QuantizeInt8Reference(src + i, count - i, q, dst + i);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace lce
