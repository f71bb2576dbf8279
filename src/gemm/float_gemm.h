// Packed float GEMM used by the full-precision layers (first/last layers,
// pointwise shortcut convolutions, ...). This plays the role TFLite's Ruy
// float path plays in the paper's measurements.
//
// Computes out[m][n] = sum_k lhs[m][k] * rhs[n][k]  (RHS stored row-major,
// i.e. "B transposed": convolution weights are packed one output channel per
// row, which is exactly OHWI flattened).
#ifndef LCE_GEMM_FLOAT_GEMM_H_
#define LCE_GEMM_FLOAT_GEMM_H_

#include <cstdint>

#include "core/aligned_buffer.h"
#include "gemm/context.h"

namespace lce::gemm {

inline constexpr int kFloatMr = 4;
inline constexpr int kFloatNr = 16;

// RHS packed once at op-preparation time into [k][NR]-interleaved tiles.
class PackedFloatMatrix {
 public:
  PackedFloatMatrix() = default;
  PackedFloatMatrix(const float* rows, int n, int k);

  int n() const { return n_; }
  int k() const { return k_; }
  int num_tiles() const { return num_tiles_; }
  const float* tile(int t) const {
    return reinterpret_cast<const float*>(buf_.data()) +
           static_cast<std::int64_t>(t) * tile_elems();
  }
  std::int64_t tile_elems() const {
    return static_cast<std::int64_t>(k_) * kFloatNr;
  }

 private:
  int n_ = 0;
  int k_ = 0;
  int num_tiles_ = 0;
  AlignedBuffer buf_;
};

// Shards over row tiles, or over column (B) tiles when there are fewer row
// tiles than threads. Scratch: context slot 0 (packed A-panels).
void FloatGemm(const float* lhs, int m, const PackedFloatMatrix& rhs,
               float* out, int ldc, Context& ctx);

// Single-threaded block compute over already-packed A tiles ([k][kFloatMr]
// interleaved, k * kFloatMr floats apart, covering `rows` rows) against B
// tiles [nt_begin, nt_end): writes out[r][c] with row stride ldc. FloatGemm
// and the full-precision Conv2D's ConvPipeline TileCompute both run this
// one function, so their outputs are bit-identical for the same A rows.
void FloatComputeBlock(const float* apanels, int rows,
                       const PackedFloatMatrix& rhs, int nt_begin, int nt_end,
                       KernelProfile profile, float* out, int ldc);

// Convenience overload packing the RHS internally.
void FloatGemm(const float* lhs, int m, const float* rhs, int n, int k,
               float* out, int ldc, Context& ctx);

}  // namespace lce::gemm

#endif  // LCE_GEMM_FLOAT_GEMM_H_
