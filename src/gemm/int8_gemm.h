// Packed int8 GEMM with int32 accumulation, standing in for TFLite's
// quantized Ruy path (the paper's "sdot" column in Table 1).
//
// Computes exact int8 dot products:
//   out[m][n] = sum_k (int32)lhs[m][k] * (int32)rhs[n][k]
// Zero-point handling (offsets, requantization) is done by the calling
// convolution kernel.
//
// The AVX2 kernel uses the maddubs trick: activations are biased to uint8 by
// XOR 0x80 during packing and the 128*rowsum(rhs) correction (precomputed at
// RHS pack time) is subtracted at the end, so the public contract stays an
// exact signed dot product.
#ifndef LCE_GEMM_INT8_GEMM_H_
#define LCE_GEMM_INT8_GEMM_H_

#include <cstdint>
#include <vector>

#include "core/aligned_buffer.h"
#include "gemm/context.h"
#include "gemm/int8_isa.h"

namespace lce::gemm {

inline constexpr int kInt8Mr = 2;
inline constexpr int kInt8Nr = 4;
inline constexpr int kInt8Kc = 32;  // k-block: 32 bytes per step

class PackedInt8Matrix {
 public:
  PackedInt8Matrix() = default;
  PackedInt8Matrix(const std::int8_t* rows, int n, int k);

  int n() const { return n_; }
  int k() const { return k_; }
  int k_blocks() const { return k_blocks_; }
  int num_tiles() const { return num_tiles_; }
  const std::int8_t* tile(int t) const {
    return reinterpret_cast<const std::int8_t*>(buf_.data()) +
           static_cast<std::int64_t>(t) * tile_elems();
  }
  std::int64_t tile_elems() const {
    return static_cast<std::int64_t>(k_blocks_) * kInt8Nr * kInt8Kc;
  }
  // Row sums of the original matrix (used both for the maddubs correction
  // and by conv kernels for input zero-point handling).
  const std::vector<std::int32_t>& row_sums() const { return row_sums_; }

 private:
  int n_ = 0;
  int k_ = 0;
  int k_blocks_ = 0;
  int num_tiles_ = 0;
  AlignedBuffer buf_;
  std::vector<std::int32_t> row_sums_;
};

// Packs `rows` rows (starting at `row0`, padded beyond `n`) of a [n][k]
// int8 matrix into the [k_blocks][rows][kInt8Kc] panel layout consumed by
// the micro-kernels. With `bias` set, each byte is XORed with 0x80 (maps
// int8 x to uint8 x+128, the maddubs trick) and padding bytes become
// 0x80 = biased zero; without bias, padding bytes are 0. Used for LHS
// packing here, weight packing (PackedInt8Matrix) and the fused int8
// gather-pack (kernels/pipeline/gather_pack.h).
void Int8GemmPackLhsTile(const std::int8_t* src, int n, int k, int row0,
                         int rows, int k_blocks, bool bias, std::int8_t* dst);

// One micro-kernel invocation: a kInt8Mr x kInt8Nr tile of exact widened
// multiply-add accumulators over `k_blocks` panel steps, dispatched to the
// best kernel for `profile` (AVX-512BW / AVX2 / scalar). The A-panel holds
// biased (x+128) activations; the raw accumulator still includes the
// +128 bias -- callers must subtract 128 * rhs row sums.
void Int8ComputeTile(const std::int8_t* apanel, const std::int8_t* bpanel,
                     int k_blocks, KernelProfile profile,
                     std::int32_t acc[kInt8Mr][kInt8Nr]);

// Computes `block_rows` x rhs.n() exact int8 dot products from `block_tiles`
// consecutive biased A-panels (each `a_elems` bytes, starting at `apanels`),
// writing into `out` (row-major, leading dimension `ldc`). The 128*rowsum
// bias correction is applied internally. nt-outer / tile-inner loop order
// for weight-tile reuse -- the int8 compute core of the fused ConvPipeline.
void Int8ComputeBlock(const std::int8_t* apanels, std::int64_t a_elems,
                      const PackedInt8Matrix& rhs, KernelProfile profile,
                      int block_tiles, int block_rows, std::int32_t* out,
                      int ldc);

void Int8Gemm(const std::int8_t* lhs, int m, const PackedInt8Matrix& rhs,
              std::int32_t* out, int ldc, Context& ctx);

void Int8Gemm(const std::int8_t* lhs, int m, const std::int8_t* rhs, int n,
              int k, std::int32_t* out, int ldc, Context& ctx);

// ---------------------------------------------------------------------------
// Dot-product tier (gemm/int8_isa.h): AVX-512 VNNI / AVX2 maddubs / NEON sdot
// ---------------------------------------------------------------------------

inline constexpr int kInt8DotNr = 16;  // output channels per dot panel
inline constexpr int kInt8DotKg = 4;   // K bytes per dot-product group

// Weight panels for the dot-product kernels. Each panel covers kInt8DotNr
// output channels; within a panel, layout is [k_groups][kInt8DotNr][4]:
// one 4-byte K-group of all 16 channels is a contiguous 64-byte line (a
// zmm register for vpdpbusd, two ymm for the AVX2 kernel, four NEON q
// registers for sdot). K is zero-padded to a multiple of kInt8DotKg, so
// padding never contributes to a dot product. Built once at kernel
// construction (Compile()) time alongside PackedInt8Matrix; the compute
// loop is panel-outer / row-inner, holding one panel L1-resident across
// every row of a block before streaming the next (weight-stationary).
class PackedInt8DotPanels {
 public:
  PackedInt8DotPanels() = default;
  PackedInt8DotPanels(const std::int8_t* rows, int n, int k);

  int n() const { return n_; }
  int k() const { return k_; }
  int k_groups() const { return k_groups_; }
  int num_panels() const { return num_panels_; }
  bool empty() const { return n_ == 0; }
  std::int64_t panel_bytes() const {
    return static_cast<std::int64_t>(k_groups_) * kInt8DotNr * kInt8DotKg;
  }
  const std::int8_t* panel(int p) const {
    return reinterpret_cast<const std::int8_t*>(buf_.data()) +
           static_cast<std::int64_t>(p) * panel_bytes();
  }
  // Row sums of the original matrix: the biased (u8 x s8) kernels remove
  // their +128 activation bias with `128 * row_sums[col]`. Padded with
  // zeros to num_panels() * kInt8DotNr entries so per-panel vector loads
  // need no mask.
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
// Writes block_rows x rhs.n() into `out` (leading dimension `ldc`). `tier`
// must be a dot-product tier or kScalar (the portable reference, also the
// fallback when the requested kernel is not compiled in). The +128-bias
// bookkeeping of the u8 x s8 kernels is internal; the result is always the
// exact widened dot product. Tiers that read pre-biased rows
// (Int8DotRowsBiased) get a biased copy of `arows` first.
void Int8DotComputeBlock(const std::int8_t* arows, int lda,
                         const PackedInt8DotPanels& rhs, Int8Tier tier,
                         int block_rows, std::int32_t* out, int ldc);

// Whether `tier`'s dot kernel reads staged rows that already carry the +128
// activation bias (every real byte XOR 0x80; K-padding bytes may hold
// anything, their weights are zero): true for kVnni when its kernel is
// compiled in, whose register block then broadcasts each 4-byte group
// straight from memory. The AVX2 and NEON kernels and the portable
// reference read raw rows.
bool Int8DotRowsBiased(Int8Tier tier);

// Int8DotComputeBlock on rows staged for `tier`: biased when
// Int8DotRowsBiased(tier), raw otherwise (GatherStageInt8Dot's `bias`
// flag). The compute core of the fused int8 convolution's dot path.
void Int8DotComputeStagedBlock(const std::int8_t* arows, int lda,
                               const PackedInt8DotPanels& rhs, Int8Tier tier,
                               int block_rows, std::int32_t* out, int ldc);

}  // namespace lce::gemm

#endif  // LCE_GEMM_INT8_GEMM_H_
