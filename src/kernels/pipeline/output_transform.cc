#include "kernels/pipeline/output_transform.h"

#include <algorithm>
#include <cstring>
#include <limits>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "core/bitpack.h"
#include "core/macros.h"
#include "core/quantization.h"

namespace lce::pipeline {
namespace {

// The channel-wise transform applied to the accumulator for channel n:
//   f(d) = mult[n] * pre_act(d) + bias[n]
// f is monotone (non-decreasing for mult >= 0, non-increasing otherwise)
// because pre_act is non-decreasing, which is what makes threshold-based
// bitpacked output possible.
float TransformValue(std::int32_t d, float mult, float bias, Activation pre) {
  float v = static_cast<float>(d);
  v = ApplyActivation(v, pre);
  return v * mult + bias;
}

}  // namespace

FloatOutputTransform::FloatOutputTransform(int out_c, Activation pre_activation,
                                           std::vector<float> multiplier,
                                           std::vector<float> bias)
    : out_c_(out_c),
      pre_(pre_activation),
      mult_(std::move(multiplier)),
      bias_(std::move(bias)) {
  if (!mult_.empty()) LCE_CHECK_EQ(static_cast<int>(mult_.size()), out_c);
  if (!bias_.empty()) LCE_CHECK_EQ(static_cast<int>(bias_.size()), out_c);
}

void FloatOutputTransform::Apply(const std::int32_t* acc, std::int64_t row0,
                                 std::int64_t nrows, void* out_void) const {
  const int out_c = out_c_;
  float* out = static_cast<float*>(out_void) + row0 * out_c;
  const bool has_mult = !mult_.empty();
  const bool has_bias = !bias_.empty();
  const float* mult = has_mult ? mult_.data() : nullptr;
  const float* bias = has_bias ? bias_.data() : nullptr;
  const std::int64_t total = nrows * out_c;

  // Specialized branch-free inner loops so the compiler vectorizes the
  // int->float conversion and the fused affine (this transform runs on
  // every output element; see Table 4).
  const bool relu = pre_ == Activation::kRelu;
  if (!has_mult && !has_bias) {
    if (relu) {
      for (std::int64_t i = 0; i < total; ++i) {
        out[i] = static_cast<float>(acc[i] > 0 ? acc[i] : 0);
      }
    } else {
      for (std::int64_t i = 0; i < total; ++i) {
        out[i] = static_cast<float>(acc[i]);
      }
    }
    return;
  }
  if (pre_ == Activation::kNone || relu) {
    for (std::int64_t r = 0; r < nrows; ++r) {
      const std::int32_t* a = acc + r * out_c;
      float* o = out + r * out_c;
      if (relu) {
        for (int n = 0; n < out_c; ++n) {
          const float v = static_cast<float>(a[n] > 0 ? a[n] : 0);
          o[n] = v * (mult != nullptr ? mult[n] : 1.0f) +
                 (bias != nullptr ? bias[n] : 0.0f);
        }
      } else {
        for (int n = 0; n < out_c; ++n) {
          o[n] = static_cast<float>(a[n]) * (mult != nullptr ? mult[n] : 1.0f) +
                 (bias != nullptr ? bias[n] : 0.0f);
        }
      }
    }
    return;
  }
  // General (rare) activations: the straightforward loop.
  for (std::int64_t r = 0; r < nrows; ++r) {
    const std::int32_t* a = acc + r * out_c;
    float* o = out + r * out_c;
    for (int n = 0; n < out_c; ++n) {
      float v = ApplyActivation(static_cast<float>(a[n]), pre_);
      if (has_mult) v *= mult[n];
      if (has_bias) v += bias[n];
      o[n] = v;
    }
  }
}

BitpackedOutputTransform::BitpackedOutputTransform(
    int out_c, int k_bits, Activation pre_activation,
    const std::vector<float>& multiplier, const std::vector<float>& bias)
    : out_c_(out_c) {
  if (!multiplier.empty()) {
    LCE_CHECK_EQ(static_cast<int>(multiplier.size()), out_c);
  }
  if (!bias.empty()) LCE_CHECK_EQ(static_cast<int>(bias.size()), out_c);
  cmp_.resize(out_c);
  flip_.resize(out_c);
  for (int n = 0; n < out_c; ++n) {
    const float mult = multiplier.empty() ? 1.0f : multiplier[n];
    const float b = bias.empty() ? 0.0f : bias[n];
    if (mult == 0.0f) {
      // Constant bit: cmp never fires; flip carries the constant.
      cmp_[n] = std::numeric_limits<std::int32_t>::min();
      flip_[n] = b < 0.0f ? 1u : 0u;
      continue;
    }
    const bool increasing = mult > 0.0f;
    // Search d in [-k_bits, k_bits] for the transition point of
    // sign(f(d)). For increasing f: threshold = min{d : f(d) >= 0}; the
    // output bit is set (value -1.0) iff d < threshold. For decreasing f:
    // threshold = max{d : f(d) >= 0}; bit set iff d > threshold.
    std::int32_t lo = -k_bits - 1, hi = k_bits + 1;
    if (increasing) {
      // Find the smallest d with f(d) >= 0 (may be hi if none); the
      // output bit (-1.0) is set iff acc < that threshold.
      while (lo < hi) {
        const std::int32_t mid = lo + (hi - lo) / 2;
        if (TransformValue(mid, mult, b, pre_activation) >= 0.0f) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      cmp_[n] = lo;
      flip_[n] = 0u;
    } else {
      // Find the largest d with f(d) >= 0 (may be lo if none); bit set
      // iff acc > t, i.e. !(acc < t + 1).
      while (lo < hi) {
        const std::int32_t mid = lo + (hi - lo + 1) / 2;
        if (TransformValue(mid, mult, b, pre_activation) >= 0.0f) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
      cmp_[n] = lo + 1;
      flip_[n] = 1u;
    }
  }
}

void BitpackedOutputTransform::Apply(const std::int32_t* acc, std::int64_t row0,
                                     std::int64_t nrows, void* out_void) const {
  const int out_c = out_c_;
  const int words = BitpackedWords(out_c);
  TBitpacked* out = static_cast<TBitpacked*>(out_void) + row0 * words;
  const std::int32_t* cmp = cmp_.data();
  const std::uint32_t* flip = flip_.data();
  for (std::int64_t r = 0; r < nrows; ++r) {
    const std::int32_t* a = acc + r * out_c;
    TBitpacked* o = out + r * words;
    for (int w = 0; w < words; ++w) {
      const int base = w * kBitpackWordSize;
      const int valid = std::min(kBitpackWordSize, out_c - base);
      TBitpacked bits = 0;
      // Branch-free: bit = (acc < cmp) XOR flip; auto-vectorizable.
      for (int b = 0; b < valid; ++b) {
        const std::uint32_t bit =
            static_cast<std::uint32_t>(a[base + b] < cmp[base + b]) ^
            flip[base + b];
        bits |= static_cast<TBitpacked>(bit) << b;
      }
      o[w] = bits;
    }
  }
}

void Int32OutputTransform::Apply(const std::int32_t* acc, std::int64_t row0,
                                 std::int64_t nrows, void* out_void) const {
  std::int32_t* out = static_cast<std::int32_t*>(out_void) + row0 * out_c_;
  std::memcpy(out, acc,
              static_cast<std::size_t>(nrows) * out_c_ * sizeof(std::int32_t));
}

namespace {

std::int32_t SaturateInt32(std::int64_t v) {
  return static_cast<std::int32_t>(
      std::clamp<std::int64_t>(v, std::numeric_limits<std::int32_t>::min(),
                               std::numeric_limits<std::int32_t>::max()));
}

// Fields of one Int8RequantTransform::simd_ block (16 int64 lanes each).
enum SimdField { kOffset, kMult, kLeft, kRight, kRound, kSimdFields };
constexpr int kSimdLanes = 16;

}  // namespace

Int8RequantTransform::Int8RequantTransform(
    int out_c, std::int32_t z_in, std::int32_t z_out,
    const std::int32_t* row_sums, std::vector<std::int32_t> bias,
    std::vector<std::int32_t> multiplier, std::vector<int> shift,
    std::int32_t act_min, std::int32_t act_max)
    : out_c_(out_c), z_out_(z_out), act_min_(act_min), act_max_(act_max) {
  LCE_CHECK_EQ(multiplier.size(), shift.size());
  LCE_CHECK(!multiplier.empty());
  const bool per_channel = multiplier.size() > 1;
  if (per_channel) LCE_CHECK_EQ(static_cast<int>(multiplier.size()), out_c);
  if (!bias.empty()) LCE_CHECK_EQ(static_cast<int>(bias.size()), out_c);
  LCE_CHECK_LE(act_min, act_max);
  offset_.resize(out_c);
  mult_.resize(out_c);
  shift_.resize(out_c);
  for (int n = 0; n < out_c; ++n) {
    offset_[n] = (bias.empty() ? 0 : static_cast<std::int64_t>(bias[n])) -
                 static_cast<std::int64_t>(z_in) * row_sums[n];
    mult_[n] = multiplier[per_channel ? n : 0];
    shift_[n] = shift[per_channel ? n : 0];
  }

  // SIMD form of MultiplyByQuantizedMultiplier's shifts: a left shift
  // capped at 32 (any nonzero value shifted 32 bits saturates, as in the
  // scalar code) and a rounding right shift capped at 32 (the scalar code
  // returns 0 past 31 bits; (h + 2^31) >> 32 is 0 for every int32 h).
  // Padding channels stay all-zero; their lanes are never stored.
  const int blocks = (out_c + kSimdLanes - 1) / kSimdLanes;
  simd_.assign(static_cast<std::size_t>(blocks) * kSimdFields * kSimdLanes, 0);
  for (int n = 0; n < out_c; ++n) {
    std::int64_t* b = simd_.data() + static_cast<std::int64_t>(n / kSimdLanes) *
                                         kSimdFields * kSimdLanes;
    const int lane = n % kSimdLanes;
    const int slot = lane % 2 == 0 ? lane / 2 : 8 + lane / 2;
    const int left = std::clamp(shift_[n], 0, 32);
    const int right = std::clamp(-shift_[n], 0, 32);
    b[kOffset * kSimdLanes + slot] = offset_[n];
    b[kMult * kSimdLanes + slot] = mult_[n];
    b[kLeft * kSimdLanes + slot] = left;
    b[kRight * kSimdLanes + slot] = right;
    b[kRound * kSimdLanes + slot] = right > 0 ? std::int64_t{1} << (right - 1) : 0;
  }
}

void Int8RequantTransform::ApplyReference(const std::int32_t* acc,
                                          std::int64_t row0,
                                          std::int64_t nrows,
                                          void* out_void) const {
  const int out_c = out_c_;
  std::int8_t* out = static_cast<std::int8_t*>(out_void) + row0 * out_c;
  for (std::int64_t r = 0; r < nrows; ++r) {
    const std::int32_t* a = acc + r * out_c;
    std::int8_t* o = out + r * out_c;
    for (int n = 0; n < out_c; ++n) {
      const std::int32_t v = MultiplyByQuantizedMultiplier(
          SaturateInt32(a[n] + offset_[n]), mult_[n], shift_[n]);
      // The saturating z_out add is subsumed by the clamp: [act_min,
      // act_max] lies inside the int32 range.
      o[n] = static_cast<std::int8_t>(std::clamp<std::int64_t>(
          static_cast<std::int64_t>(v) + z_out_, act_min_, act_max_));
    }
  }
}

#if defined(__AVX512F__)
// GCC 12's AVX-512 headers expand most intrinsics through
// _mm512_undefined_epi32, which trips a false -Wmaybe-uninitialized at
// every inlined use (GCC PR105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
namespace {

// The requantize chain on 8 int64 lanes, each holding one channel's
// sign-extended accumulator; mirrors ApplyReference step for step.
struct RequantLanes {
  __m512i offset, mult, left, right, round;

  RequantLanes(const std::int64_t* block, int half) {
    const auto field = [&](int f) {
      return _mm512_loadu_si512(block + f * kSimdLanes + half * 8);
    };
    offset = field(kOffset);
    mult = field(kMult);
    left = field(kLeft);
    right = field(kRight);
    round = field(kRound);
  }

  __m512i Apply(__m512i x, __m512i i32_min, __m512i i32_max, __m512i half_q31,
                __m512i z_out, __m512i act_min, __m512i act_max) const {
    __m512i v = _mm512_add_epi64(x, offset);
    v = _mm512_min_epi64(_mm512_max_epi64(v, i32_min), i32_max);
    // Rounding doubling high multiply: (2*v*M + 2^31) >> 32, computed as
    // (v*M + 2^30) >> 31 (v*M is exact in 64 bits).
    v = _mm512_srai_epi64(_mm512_add_epi64(_mm512_mul_epi32(v, mult),
                                           half_q31),
                          31);
    v = _mm512_srav_epi64(_mm512_add_epi64(_mm512_sllv_epi64(v, left), round),
                          right);
    v = _mm512_min_epi64(_mm512_max_epi64(v, i32_min), i32_max);
    v = _mm512_add_epi64(v, z_out);
    return _mm512_min_epi64(_mm512_max_epi64(v, act_min), act_max);
  }
};

}  // namespace
#endif  // __AVX512F__

void Int8RequantTransform::Apply(const std::int32_t* acc, std::int64_t row0,
                                 std::int64_t nrows, void* out_void) const {
#if defined(__AVX512F__)
  const int out_c = out_c_;
  std::int8_t* out = static_cast<std::int8_t*>(out_void) + row0 * out_c;
  const __m512i i32_min =
      _mm512_set1_epi64(std::numeric_limits<std::int32_t>::min());
  const __m512i i32_max =
      _mm512_set1_epi64(std::numeric_limits<std::int32_t>::max());
  const __m512i half_q31 = _mm512_set1_epi64(std::int64_t{1} << 30);
  const __m512i z_out = _mm512_set1_epi64(z_out_);
  const __m512i act_min = _mm512_set1_epi64(act_min_);
  const __m512i act_max = _mm512_set1_epi64(act_max_);
  // Channel blocks outer so each block's constants load once per tile.
  for (int c0 = 0; c0 < out_c; c0 += kSimdLanes) {
    const int cols = std::min(kSimdLanes, out_c - c0);
    const __mmask16 mask = static_cast<__mmask16>((1u << cols) - 1);
    const std::int64_t* block =
        simd_.data() + static_cast<std::int64_t>(c0 / kSimdLanes) *
                           kSimdFields * kSimdLanes;
    const RequantLanes even(block, 0), odd(block, 1);
    for (std::int64_t r = 0; r < nrows; ++r) {
      const __m512i x = _mm512_maskz_loadu_epi32(mask, acc + r * out_c + c0);
      // Sign-extend the even / odd i32 lanes into i64 lanes.
      const __m512i xe = _mm512_srai_epi64(_mm512_slli_epi64(x, 32), 32);
      const __m512i xo = _mm512_srai_epi64(x, 32);
      const __m512i ye = even.Apply(xe, i32_min, i32_max, half_q31, z_out,
                                    act_min, act_max);
      const __m512i yo = odd.Apply(xo, i32_min, i32_max, half_q31, z_out,
                                   act_min, act_max);
      // Both results fit in the low 32 bits of their lane: re-interleave
      // and narrow to int8 (the values already lie in [act_min, act_max]).
      const __m512i y = _mm512_mask_blend_epi32(
          static_cast<__mmask16>(0xAAAA), ye, _mm512_slli_epi64(yo, 32));
      _mm512_mask_cvtepi32_storeu_epi8(out + r * out_c + c0, mask, y);
    }
  }
#else
  ApplyReference(acc, row0, nrows, out_void);
#endif
}
#if defined(__AVX512F__) && defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

BiasActivationTransform::BiasActivationTransform(int out_c,
                                                 Activation activation,
                                                 std::vector<float> bias)
    : out_c_(out_c), act_(activation), bias_(std::move(bias)) {
  if (!bias_.empty()) LCE_CHECK_EQ(static_cast<int>(bias_.size()), out_c);
}

void BiasActivationTransform::Apply(const float* acc, std::int64_t row0,
                                    std::int64_t nrows, void* out_void) const {
  const int out_c = out_c_;
  float* out = static_cast<float*>(out_void) + row0 * out_c;
  const std::int64_t total = nrows * out_c;
  if (bias_.empty()) {
    for (std::int64_t i = 0; i < total; ++i) {
      out[i] = ApplyActivation(acc[i], act_);
    }
    return;
  }
  const float* bias = bias_.data();
  // ReLU and identity get branch-free loops the compiler vectorizes; both
  // compute exactly ApplyActivation(acc + bias).
  for (std::int64_t r = 0; r < nrows; ++r) {
    const float* a = acc + r * out_c;
    float* o = out + r * out_c;
    switch (act_) {
      case Activation::kNone:
        for (int n = 0; n < out_c; ++n) o[n] = a[n] + bias[n];
        break;
      case Activation::kRelu:
        for (int n = 0; n < out_c; ++n) {
          const float v = a[n] + bias[n];
          o[n] = v > 0.0f ? v : 0.0f;
        }
        break;
      default:
        for (int n = 0; n < out_c; ++n) {
          o[n] = ApplyActivation(a[n] + bias[n], act_);
        }
        break;
    }
  }
}

}  // namespace lce::pipeline
