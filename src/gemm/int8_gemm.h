// Int8 GEMM with int32 accumulation on one packed weight layout, standing
// in for TFLite's quantized Ruy path (the paper's "sdot" column in Table 1).
//
// Computes exact int8 dot products:
//   out[m][n] = sum_k (int32)lhs[m][k] * (int32)rhs[n][k]
// The weights are packed once into PackedInt8DotPanels; the activations are
// plain row-major rows, read in place. Every tier of gemm/int8_isa.h (VNNI,
// AVX2, NEON, portable) runs on this layout. Zero-point handling (offsets,
// requantization) is done by the calling convolution kernel.
#ifndef LCE_GEMM_INT8_GEMM_H_
#define LCE_GEMM_INT8_GEMM_H_

#include <cstdint>
#include <vector>

#include "core/aligned_buffer.h"
#include "gemm/int8_isa.h"

namespace lce::gemm {

// Patch rows per int8 pipeline row tile (the gather and TilePlan
// granularity of kernels/conv2d_int8.h).
inline constexpr int kInt8Mr = 2;

inline constexpr int kInt8DotNr = 16;  // output channels per dot panel
inline constexpr int kInt8DotKg = 4;   // K bytes per dot-product group

// Weight panels for the dot-product kernels. Each panel covers kInt8DotNr
// output channels; within a panel, layout is [k_groups][kInt8DotNr][4]:
// one 4-byte K-group of all 16 channels is a contiguous 64-byte line (a
// zmm register for vpdpbusd, two ymm for the AVX2 kernel, four NEON q
// registers for sdot). K is zero-padded to a multiple of kInt8DotKg, so
// padding never contributes to a dot product. Built once at kernel
// construction (Compile()) time; the compute loop is panel-outer /
// row-inner, holding one panel L1-resident across every row of a block
// before streaming the next (weight-stationary).
class PackedInt8DotPanels {
 public:
  PackedInt8DotPanels() = default;
  PackedInt8DotPanels(const std::int8_t* rows, int n, int k);

  int n() const { return n_; }
  int k() const { return k_; }
  int k_groups() const { return k_groups_; }
  int num_panels() const { return num_panels_; }
  std::int64_t panel_bytes() const {
    return static_cast<std::int64_t>(k_groups_) * kInt8DotNr * kInt8DotKg;
  }
  const std::int8_t* panel(int p) const {
    return reinterpret_cast<const std::int8_t*>(buf_.data()) +
           static_cast<std::int64_t>(p) * panel_bytes();
  }
  // Row sums of the original matrix: the biased (u8 x s8) kernels remove
  // their +128 activation bias with `128 * row_sums[col]`, and the int8
  // convolution's requantization uses them for the input zero point.
  // Padded with zeros to num_panels() * kInt8DotNr entries so per-panel
  // vector loads need no mask.
  const std::vector<std::int32_t>& row_sums() const { return row_sums_; }

 private:
  int n_ = 0;
  int k_ = 0;
  int k_groups_ = 0;
  int num_panels_ = 0;
  AlignedBuffer buf_;
  std::vector<std::int32_t> row_sums_;
};

// Exact signed dot products straight from staged (un-interleaved) patch
// rows: `arows` holds `block_rows` raw int8 rows, row-major with leading
// dimension `lda` = k_groups * kInt8DotKg bytes, zero-padded past k — the
// layout the byte-gather stage produces without any panel interleave pass.
// Writes block_rows x rhs.n() into `out` (leading dimension `ldc`). kScalar
// (and any tier whose kernel is not compiled in) runs the portable loop.
// The +128-bias bookkeeping of the u8 x s8 kernels is internal; the result
// is always the exact int32 dot product. Tiers that read pre-biased rows
// (Int8DotRowsBiased) get a biased copy of `arows` first.
void Int8DotComputeBlock(const std::int8_t* arows, int lda,
                         const PackedInt8DotPanels& rhs, Int8Tier tier,
                         int block_rows, std::int32_t* out, int ldc);

// Whether `tier`'s dot kernel reads staged rows that already carry the +128
// activation bias (every real byte XOR 0x80; K-padding bytes may hold
// anything, their weights are zero). True for kVnni, whose register block
// then broadcasts each 4-byte group straight from memory, and for the
// portable loop (kScalar, or any tier whose kernel is not compiled in),
// whose u8 x s8 byte reductions compilers vectorize into their widest
// multiply-add. The AVX2 and NEON kernels read raw rows.
bool Int8DotRowsBiased(Int8Tier tier);

// Int8DotComputeBlock on rows staged for `tier`: biased when
// Int8DotRowsBiased(tier), raw otherwise (GatherStageInt8Dot's `bias`
// flag). The compute core of the fused int8 convolution.
void Int8DotComputeStagedBlock(const std::int8_t* arows, int lda,
                               const PackedInt8DotPanels& rhs, Int8Tier tier,
                               int block_rows, std::int32_t* out, int ldc);

}  // namespace lce::gemm

#endif  // LCE_GEMM_INT8_GEMM_H_
