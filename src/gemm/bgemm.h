// BGEMM: binary matrix multiplication via XOR + POPCOUNT (paper section 3.2).
//
// Computes, for bitpacked LHS rows l_i and RHS rows r_j of `k_bits` logical
// +/-1 values each:
//
//   out[i][j] = dot(l_i, r_j) = k_bits - 2 * popcount(l_i XOR r_j)
//
// Channel-padding bits are 0 in both operands so they contribute nothing to
// the popcount, and using the logical k_bits cancels their +1 products
// exactly; no separate correction is needed.
//
// Layout (channel-vectorized, Ruy-style packed weights):
//   * The weights (RHS) are packed once, at op-preparation time, into panels
//     of kBgemmNr = 8 output channels x one 64-bit K word:
//     [panel][kw64][8] uint64. One panel K step is one 512-bit line whose
//     u64 lanes are the eight channels.
//   * The activations (LHS) are plain row-major rows of 32-bit bitpacked
//     words with a leading dimension -- im2col patches, a pointwise input or
//     gathered rows are consumed in place. The kernels read word pairs as
//     u64 K words and an odd tail word zero-extended, so K is padded by at
//     most one 32-bit word (in the packed weights only).
//
// The AVX-512 micro-kernel is a 6-row x 4-panel register block (24 zmm
// accumulators): per K word it loads 4 panel lines, broadcasts each row's
// word and accumulates vpopcntq(a ^ b) per u64 lane. Every lane is one
// output channel, so no tier (BGemmTier) has a horizontal reduction: the
// epilogue stores k_bits - 2 * acc straight into the int32 output.
#ifndef LCE_GEMM_BGEMM_H_
#define LCE_GEMM_BGEMM_H_

#include <cstdint>
#include <vector>

#include "core/aligned_buffer.h"
#include "core/types.h"
#include "gemm/context.h"

namespace lce::gemm {

// Row-tile height of the binary convolution pipelines (their TilePlan
// granularity; the kernels take any row count) and output channels per
// packed weight panel.
inline constexpr int kBgemmMr = 4;
inline constexpr int kBgemmNr = 8;

// BGEMM micro-kernel tiers. Every tier compiled into the binary is
// runnable (tiers are compiled only when the build's target ISA has them).
enum class BGemmTier {
  kScalar,  // portable 64-bit popcount loop
  kAvx2,    // pshufb nibble-LUT popcount + psadbw, one count per u64 lane
  kAvx512,  // vpopcntq on zmm, 6 x 4-panel register block
  kNeon,    // eor / cnt / pairwise-add-accumulate
};

// Tiers compiled into this binary, scalar first.
std::vector<BGemmTier> CompiledBGemmTiers();
// The fastest compiled tier (what kSimd contexts run).
BGemmTier BestBGemmTier();
// The tier a context profile runs: BestBGemmTier() for kSimd, kScalar for
// the portable profile.
BGemmTier BGemmTierFor(KernelProfile profile);

// A weights-side matrix packed once at op-preparation time (the paper's
// "weight packing to optimize memory access patterns").
class PackedBinaryMatrix {
 public:
  PackedBinaryMatrix() = default;

  // rows: [n][kw] bitpacked row-major, n rows of kw TBitpacked words.
  PackedBinaryMatrix(const TBitpacked* rows, int n, int kw);

  int n() const { return n_; }
  int kw() const { return kw_; }  // 32-bit words per row
  int num_panels() const { return num_panels_; }
  // Panel p: [kw64][kBgemmNr] uint64, kw64 = ceil(kw / 2). Channels past
  // n() and the high half of an odd tail word are zero.
  const std::uint64_t* panel(int p) const {
    return data() + static_cast<std::int64_t>(p) * panel_elems();
  }
  std::int64_t panel_elems() const {
    return static_cast<std::int64_t>(kw_ + 1) / 2 * kBgemmNr;
  }

 private:
  const std::uint64_t* data() const {
    return reinterpret_cast<const std::uint64_t*>(buf_.data());
  }
  int n_ = 0;
  int kw_ = 0;
  int num_panels_ = 0;
  AlignedBuffer buf_;
};

// Computes `rows` x rhs.n() outputs: out[i][j] = k_bits - 2 *
// popcount(lhs_i ^ rhs_j), for LHS rows of rhs.kw() words starting every
// `lda` words at `lhs`. `out` is row-major with leading dimension
// `ldc` >= rhs.n() (grouped convolutions write each group's columns into a
// wider accumulator); columns past rhs.n() are never written. Loop order is
// panel-group-outer / row-block-inner, so each 32-channel weight strip
// stays cache-resident across all rows. Single-threaded: the compute core
// of both the standalone BGemm and the fused ConvPipeline.
void BGemmComputeBlock(const TBitpacked* lhs, int lda,
                       const PackedBinaryMatrix& rhs, int k_bits,
                       BGemmTier tier, int rows, std::int32_t* out, int ldc);

// out[i][j] = k_bits - 2*popcount(lhs_i ^ rhs_j); lhs is [m][rhs.kw()]
// row-major, out is row-major MxN with leading dimension ldc. Rows are
// sharded across the context's pool.
void BGemm(const TBitpacked* lhs, int m, const PackedBinaryMatrix& rhs,
           int k_bits, std::int32_t* out, int ldc, Context& ctx);

// Convenience overload packing the RHS internally (tests, one-shot use).
void BGemm(const TBitpacked* lhs, int m, const TBitpacked* rhs, int n, int kw,
           int k_bits, std::int32_t* out, int ldc, Context& ctx);

// True when the binary was compiled with a vectorized BGEMM tier.
bool HasSimdBGemm();

}  // namespace lce::gemm

#endif  // LCE_GEMM_BGEMM_H_
