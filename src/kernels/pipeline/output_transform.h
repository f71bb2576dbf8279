// Output transforms of the ConvPipeline (policy seam #3): turn a tile of
// int32 accumulator rows into final output, in place on the cache-resident
// tile. One implementation per output flavor:
//
//   * FloatOutputTransform      — fused activation + channel-wise
//     multiplier/bias (batch-norm fusion), float output.
//   * BitpackedOutputTransform  — compares the accumulator against
//     precomputed per-channel thresholds and writes bitpacked output
//     directly (binarized-layer chaining; paper section 3.3).
//   * Int32OutputTransform      — raw accumulator copy (tests/debugging).
//   * Int8RequantTransform      — TFLite-style requantization
//     out = clamp(z_out + M * (acc - z_in * rowsum(w) + bias)).
//   * BiasActivationTransform   — float accumulator + bias, fused
//     activation (full-precision Conv2D).
//
// The transforms are shared between the fused pipeline (per row-tile block)
// and the legacy force_unfused paths (once over the full image), so both
// paths are bit-identical by construction.
#ifndef LCE_KERNELS_PIPELINE_OUTPUT_TRANSFORM_H_
#define LCE_KERNELS_PIPELINE_OUTPUT_TRANSFORM_H_

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "kernels/conv_params.h"

namespace lce::pipeline {

// `Acc` is the accumulator element type the transform consumes (see
// BasicTileCompute in conv_pipeline.h).
template <typename Acc>
class BasicOutputTransform {
 public:
  virtual ~BasicOutputTransform() = default;

  // Transforms `nrows` accumulator rows (stride out_c) holding flattened
  // output positions [row0, row0 + nrows), writing into `out` (the start of
  // the full output buffer; the transform applies the row0 offset itself).
  virtual void Apply(const Acc* acc, std::int64_t row0, std::int64_t nrows,
                     void* out) const = 0;
};
using OutputTransform = BasicOutputTransform<std::int32_t>;

// v = mult[c] * pre_act(acc) + bias[c]; mult/bias empty means 1 / 0.
class FloatOutputTransform : public OutputTransform {
 public:
  FloatOutputTransform(int out_c, Activation pre_activation,
                       std::vector<float> multiplier, std::vector<float> bias);
  void Apply(const std::int32_t* acc, std::int64_t row0, std::int64_t nrows,
             void* out) const override;

 private:
  int out_c_;
  Activation pre_;
  std::vector<float> mult_, bias_;
};

// bit = (acc < cmp[c]) XOR flip[c], with thresholds precomputed by binary
// search over the monotone float transform (the converter's "thresholds
// pre-computed ... to decide whether each output value is a one or zero
// bit"). `k_bits` bounds the accumulator range for the search.
class BitpackedOutputTransform : public OutputTransform {
 public:
  BitpackedOutputTransform(int out_c, int k_bits, Activation pre_activation,
                           const std::vector<float>& multiplier,
                           const std::vector<float>& bias);
  void Apply(const std::int32_t* acc, std::int64_t row0, std::int64_t nrows,
             void* out) const override;

 private:
  int out_c_;
  // Thresholds in branch-free canonical form: flipped channels (negative
  // multiplier) store cmp = threshold+1 and flip = 1 (a > t <=> !(a < t+1));
  // constant channels use cmp = INT32_MIN with flip carrying the constant.
  std::vector<std::int32_t> cmp_;
  std::vector<std::uint32_t> flip_;
};

class Int32OutputTransform : public OutputTransform {
 public:
  explicit Int32OutputTransform(int out_c) : out_c_(out_c) {}
  void Apply(const std::int32_t* acc, std::int64_t row0, std::int64_t nrows,
             void* out) const override;

 private:
  int out_c_;
};

// out = clamp(z_out + M[c] * (acc - z_in * row_sums[c] + bias[c])), int8,
// with saturating arithmetic: the offset sum is exact (int64) and
// saturates to int32 before the fixed-point multiply, the multiply
// saturates (MultiplyByQuantizedMultiplier), and the z_out add saturates
// before the activation clamp -- so an extreme but legal scale, bias or
// zero point pins the output to the rail its real value lies towards
// instead of wrapping. `row_sums` points at the packed weight matrix's
// per-row sums (input zero-point correction); it is read at construction,
// which folds `bias - z_in * row_sums` into one int64 offset per channel.
// multiplier/shift hold one entry per channel, or a single broadcast entry
// (per-tensor).
class Int8RequantTransform : public OutputTransform {
 public:
  Int8RequantTransform(int out_c, std::int32_t z_in, std::int32_t z_out,
                       const std::int32_t* row_sums,
                       std::vector<std::int32_t> bias,
                       std::vector<std::int32_t> multiplier,
                       std::vector<int> shift, std::int32_t act_min,
                       std::int32_t act_max);
  // 16 channels per AVX-512 step where compiled in; ApplyReference
  // otherwise. Bit-identical to ApplyReference.
  void Apply(const std::int32_t* acc, std::int64_t row0, std::int64_t nrows,
             void* out) const override;
  // The scalar loop: the portable path (the scalar int8 tier runs it
  // through Int8RequantReference) and the oracle the SIMD path is tested
  // against.
  void ApplyReference(const std::int32_t* acc, std::int64_t row0,
                      std::int64_t nrows, void* out) const;

 private:
  int out_c_;
  std::int32_t z_out_;
  std::int32_t act_min_, act_max_;
  // Per channel (a per-tensor multiplier/shift is broadcast).
  std::vector<std::int64_t> offset_;  // bias[c] - z_in * row_sums[c], exact
  std::vector<std::int32_t> mult_;
  std::vector<int> shift_;
  // SIMD constants, one block of kSimdFields x 16 int64 lanes per 16
  // channels, each field split into the 8 even then the 8 odd channels
  // (the two 64-bit halves the Q31 multiply works on).
  std::vector<std::int64_t> simd_;
};

// An Int8RequantTransform pinned to its scalar reference loop: what the
// scalar int8 tier (scalar-profile contexts, LCE_FORCE_ISA=scalar) runs.
class Int8RequantReference final : public OutputTransform {
 public:
  explicit Int8RequantReference(const Int8RequantTransform& t) : t_(t) {}
  void Apply(const std::int32_t* acc, std::int64_t row0, std::int64_t nrows,
             void* out) const override {
    t_.ApplyReference(acc, row0, nrows, out);
  }

 private:
  const Int8RequantTransform& t_;
};

// Float accumulators (full-precision Conv2D): out = act(acc + bias[c]);
// bias empty means no add at all (so -0.0 stays -0.0, exactly like the
// im2col + GEMM oracle in kernels/reference.h).
class BiasActivationTransform : public BasicOutputTransform<float> {
 public:
  BiasActivationTransform(int out_c, Activation activation,
                          std::vector<float> bias);
  void Apply(const float* acc, std::int64_t row0, std::int64_t nrows,
             void* out) const override;

 private:
  int out_c_;
  Activation act_;
  std::vector<float> bias_;
};

}  // namespace lce::pipeline

#endif  // LCE_KERNELS_PIPELINE_OUTPUT_TRANSFORM_H_
