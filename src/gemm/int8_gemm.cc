#include "gemm/int8_gemm.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#if defined(__AVX2__) || defined(__AVX512VNNI__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON) && defined(__ARM_FEATURE_DOTPROD)
#include <arm_neon.h>
#endif

#include "core/macros.h"

namespace lce::gemm {
namespace {

int KBlocks(int k) { return (k + kInt8Kc - 1) / kInt8Kc; }

// Scalar kernel on biased-LHS panels: acc = sum (uint8 a)*(int8 b), exact.
void KernelScalar(const std::int8_t* apanel, const std::int8_t* bpanel,
                  int k_blocks, std::int32_t acc_out[kInt8Mr][kInt8Nr]) {
  std::int32_t acc[kInt8Mr][kInt8Nr] = {};
  for (int kb = 0; kb < k_blocks; ++kb) {
    const auto* a = reinterpret_cast<const std::uint8_t*>(
        apanel + static_cast<std::int64_t>(kb) * kInt8Mr * kInt8Kc);
    const std::int8_t* b = bpanel + static_cast<std::int64_t>(kb) * kInt8Nr * kInt8Kc;
    for (int i = 0; i < kInt8Mr; ++i) {
      for (int j = 0; j < kInt8Nr; ++j) {
        std::int32_t s = 0;
        for (int c = 0; c < kInt8Kc; ++c) {
          s += static_cast<std::int32_t>(a[i * kInt8Kc + c]) *
               static_cast<std::int32_t>(b[j * kInt8Kc + c]);
        }
        acc[i][j] += s;
      }
    }
  }
  std::memcpy(acc_out, acc, sizeof(acc));
}

#if defined(__AVX512BW__)
#define LCE_INT8_GEMM_AVX512 1
// AVX-512BW kernel: each 32-byte K-chunk widens to one 512-bit vector of 32
// int16 lanes, so a single madd_epi16 performs 32 exact MACs -- the closest
// x86 analogue of the paper's sdot path without VNNI hardware.
void KernelAvx512(const std::int8_t* apanel, const std::int8_t* bpanel,
                  int k_blocks, std::int32_t acc_out[kInt8Mr][kInt8Nr]) {
  __m512i acc[kInt8Mr][kInt8Nr];
  for (int i = 0; i < kInt8Mr; ++i)
    for (int j = 0; j < kInt8Nr; ++j) acc[i][j] = _mm512_setzero_si512();

  for (int kb = 0; kb < k_blocks; ++kb) {
    const std::int8_t* a = apanel + static_cast<std::int64_t>(kb) * kInt8Mr * kInt8Kc;
    const std::int8_t* b = bpanel + static_cast<std::int64_t>(kb) * kInt8Nr * kInt8Kc;
    __m512i a16[kInt8Mr];
    for (int i = 0; i < kInt8Mr; ++i) {
      a16[i] = _mm512_cvtepu8_epi16(_mm256_load_si256(
          reinterpret_cast<const __m256i*>(a + i * kInt8Kc)));
    }
    for (int j = 0; j < kInt8Nr; ++j) {
      const __m512i b16 = _mm512_cvtepi8_epi16(_mm256_load_si256(
          reinterpret_cast<const __m256i*>(b + j * kInt8Kc)));
      for (int i = 0; i < kInt8Mr; ++i) {
        acc[i][j] =
            _mm512_add_epi32(acc[i][j], _mm512_madd_epi16(a16[i], b16));
      }
    }
  }
  for (int i = 0; i < kInt8Mr; ++i) {
    for (int j = 0; j < kInt8Nr; ++j) {
      alignas(64) std::int32_t lanes[16];
      _mm512_store_si512(lanes, acc[i][j]);
      std::int32_t s = 0;
      for (int l = 0; l < 16; ++l) s += lanes[l];
      acc_out[i][j] = s;
    }
  }
}
#endif  // __AVX512BW__

#if defined(__AVX2__) && !defined(LCE_INT8_GEMM_AVX512)
// Exact widened 16-bit multiply-add kernel (plays the role of the paper's
// sdot instruction): 2x4 tile, 32 bytes of K per step.
void KernelAvx2(const std::int8_t* apanel, const std::int8_t* bpanel,
                int k_blocks, std::int32_t acc_out[kInt8Mr][kInt8Nr]) {
  __m256i acc[kInt8Mr][kInt8Nr];
  for (int i = 0; i < kInt8Mr; ++i)
    for (int j = 0; j < kInt8Nr; ++j) acc[i][j] = _mm256_setzero_si256();

  for (int kb = 0; kb < k_blocks; ++kb) {
    const std::int8_t* a = apanel + static_cast<std::int64_t>(kb) * kInt8Mr * kInt8Kc;
    const std::int8_t* b = bpanel + static_cast<std::int64_t>(kb) * kInt8Nr * kInt8Kc;
    __m256i a16[kInt8Mr][2];
    for (int i = 0; i < kInt8Mr; ++i) {
      const __m256i av =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(a + i * kInt8Kc));
      a16[i][0] = _mm256_cvtepu8_epi16(_mm256_castsi256_si128(av));
      a16[i][1] = _mm256_cvtepu8_epi16(_mm256_extracti128_si256(av, 1));
    }
    for (int j = 0; j < kInt8Nr; ++j) {
      const __m256i bv =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(b + j * kInt8Kc));
      const __m256i b0 = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bv));
      const __m256i b1 = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(bv, 1));
      for (int i = 0; i < kInt8Mr; ++i) {
        acc[i][j] = _mm256_add_epi32(acc[i][j],
                                     _mm256_madd_epi16(a16[i][0], b0));
        acc[i][j] = _mm256_add_epi32(acc[i][j],
                                     _mm256_madd_epi16(a16[i][1], b1));
      }
    }
  }
  for (int i = 0; i < kInt8Mr; ++i) {
    for (int j = 0; j < kInt8Nr; ++j) {
      alignas(32) std::int32_t lanes[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc[i][j]);
      std::int32_t s = 0;
      for (int l = 0; l < 8; ++l) s += lanes[l];
      acc_out[i][j] = s;
    }
  }
}
#endif  // __AVX2__

}  // namespace

void Int8GemmPackLhsTile(const std::int8_t* src, int n, int k, int row0,
                         int rows, int k_blocks, bool bias, std::int8_t* dst) {
  const std::int8_t pad = bias ? static_cast<std::int8_t>(0x80) : 0;
  std::memset(dst, pad,
              static_cast<std::size_t>(k_blocks) * rows * kInt8Kc);
  for (int r = 0; r < rows; ++r) {
    const int row = row0 + r;
    if (row >= n) continue;
    const std::int8_t* s = src + static_cast<std::int64_t>(row) * k;
    for (int kk = 0; kk < k; ++kk) {
      const int kb = kk / kInt8Kc;
      std::int8_t v = s[kk];
      if (bias) v = static_cast<std::int8_t>(v ^ 0x80);
      dst[(static_cast<std::int64_t>(kb) * rows + r) * kInt8Kc +
          (kk % kInt8Kc)] = v;
    }
  }
}

void Int8ComputeTile(const std::int8_t* apanel, const std::int8_t* bpanel,
                     int k_blocks, KernelProfile profile,
                     std::int32_t acc[kInt8Mr][kInt8Nr]) {
  if (profile == KernelProfile::kSimd) {
#if defined(LCE_INT8_GEMM_AVX512)
    KernelAvx512(apanel, bpanel, k_blocks, acc);
    return;
#elif defined(__AVX2__)
    KernelAvx2(apanel, bpanel, k_blocks, acc);
    return;
#endif
  }
  KernelScalar(apanel, bpanel, k_blocks, acc);
}

void Int8ComputeBlock(const std::int8_t* apanels, std::int64_t a_elems,
                      const PackedInt8Matrix& rhs, KernelProfile profile,
                      int block_tiles, int block_rows, std::int32_t* out,
                      int ldc) {
  const int k_blocks = rhs.k_blocks();
  const int n = rhs.n();
  std::int32_t acc[kInt8Mr][kInt8Nr];
  for (int nt = 0; nt < rhs.num_tiles(); ++nt) {
    const int col0 = nt * kInt8Nr;
    const int cols = std::min(kInt8Nr, n - col0);
    const std::int8_t* btile = rhs.tile(nt);
    for (int t = 0; t < block_tiles; ++t) {
      const int row0 = t * kInt8Mr;
      const int rows = std::min(kInt8Mr, block_rows - row0);
      Int8ComputeTile(apanels + t * a_elems, btile, k_blocks, profile, acc);
      for (int i = 0; i < rows; ++i) {
        std::int32_t* o = out + static_cast<std::int64_t>(row0 + i) * ldc + col0;
        for (int j = 0; j < cols; ++j) {
          // Remove the +128 activation bias: acc was computed on
          // (a+128, b), so subtract 128 * rowsum(b).
          o[j] = acc[i][j] - 128 * rhs.row_sums()[col0 + j];
        }
      }
    }
  }
}

PackedInt8Matrix::PackedInt8Matrix(const std::int8_t* rows, int n, int k)
    : n_(n), k_(k), k_blocks_(KBlocks(k)) {
  num_tiles_ = (n + kInt8Nr - 1) / kInt8Nr;
  buf_ = AlignedBuffer(static_cast<std::size_t>(num_tiles_) * tile_elems());
  auto* d = reinterpret_cast<std::int8_t*>(buf_.data());
  for (int t = 0; t < num_tiles_; ++t) {
    Int8GemmPackLhsTile(rows, n, k, t * kInt8Nr, kInt8Nr, k_blocks_,
                        /*bias=*/false,
                        d + static_cast<std::int64_t>(t) * tile_elems());
  }
  row_sums_.resize(n);
  for (int r = 0; r < n; ++r) {
    std::int32_t s = 0;
    for (int kk = 0; kk < k; ++kk) s += rows[static_cast<std::int64_t>(r) * k + kk];
    row_sums_[r] = s;
  }
}

void Int8Gemm(const std::int8_t* lhs, int m, const PackedInt8Matrix& rhs,
              std::int32_t* out, int ldc, Context& ctx) {
  const int k = rhs.k();
  const int n = rhs.n();
  const int k_blocks = rhs.k_blocks();
  const int m_tiles = (m + kInt8Mr - 1) / kInt8Mr;
  const std::int64_t a_tile_elems =
      static_cast<std::int64_t>(k_blocks) * kInt8Mr * kInt8Kc;

  auto* apanels = reinterpret_cast<std::int8_t*>(
      ctx.Scratch(0, static_cast<std::size_t>(m_tiles) * a_tile_elems));
  ctx.pool().ParallelFor(m_tiles, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t t = begin; t < end; ++t) {
      Int8GemmPackLhsTile(lhs, m, k, static_cast<int>(t) * kInt8Mr, kInt8Mr,
                          k_blocks, /*bias=*/true, apanels + t * a_tile_elems);
    }
  });

  const KernelProfile profile = ctx.profile();
  // B-tile-outer loop order for panel reuse (see float_gemm.cc).
  ctx.pool().ParallelFor(m_tiles, [&](std::int64_t begin, std::int64_t end) {
    std::int32_t acc[kInt8Mr][kInt8Nr];
    for (int nt = 0; nt < rhs.num_tiles(); ++nt) {
      const int col0 = nt * kInt8Nr;
      const int cols = std::min(kInt8Nr, n - col0);
      for (std::int64_t mt = begin; mt < end; ++mt) {
        const int row0 = static_cast<int>(mt) * kInt8Mr;
        const int rows = std::min(kInt8Mr, m - row0);
        Int8ComputeTile(apanels + mt * a_tile_elems, rhs.tile(nt), k_blocks,
                        profile, acc);
        for (int i = 0; i < rows; ++i) {
          std::int32_t* o = out + static_cast<std::int64_t>(row0 + i) * ldc + col0;
          for (int j = 0; j < cols; ++j) {
            // Remove the +128 activation bias: acc was computed on
            // (a+128, b), so subtract 128 * rowsum(b).
            o[j] = acc[i][j] - 128 * rhs.row_sums()[col0 + j];
          }
        }
      }
    }
  });
}

void Int8Gemm(const std::int8_t* lhs, int m, const std::int8_t* rhs, int n,
              int k, std::int32_t* out, int ldc, Context& ctx) {
  PackedInt8Matrix packed(rhs, n, k);
  Int8Gemm(lhs, m, packed, out, ldc, ctx);
}

// ---------------------------------------------------------------------------
// Dot-product tier kernels. All are panel-outer / row-inner: one weight
// panel stays register/L1-resident across every staged row of the block
// before the next panel streams in (weight-stationary).
// ---------------------------------------------------------------------------

namespace {

// Portable reference for the dot-panel layout: raw signed dot, exact. Also
// the fallback when the requested SIMD kernel is not compiled in.
void DotPanelPortable(const std::int8_t* arows, int lda,
                      const std::int8_t* panel, int k_groups, int col0,
                      int cols, int block_rows, std::int32_t* out, int ldc) {
  for (int r = 0; r < block_rows; ++r) {
    const std::int8_t* a = arows + static_cast<std::int64_t>(r) * lda;
    std::int32_t* o = out + static_cast<std::int64_t>(r) * ldc + col0;
    for (int j = 0; j < cols; ++j) {
      std::int32_t s = 0;
      for (int g = 0; g < k_groups; ++g) {
        const std::int8_t* b =
            panel + (static_cast<std::int64_t>(g) * kInt8DotNr + j) * kInt8DotKg;
        const std::int8_t* av = a + static_cast<std::int64_t>(g) * kInt8DotKg;
        for (int c = 0; c < kInt8DotKg; ++c) {
          s += static_cast<std::int32_t>(av[c]) *
               static_cast<std::int32_t>(b[c]);
        }
      }
      o[j] = s;
    }
  }
}

#if defined(__AVX512VNNI__)
// vpdpbusd is u8 x s8: the staged rows already carry the +128 activation
// bias (GatherStageInt8Dot XORs every byte with 0x80 for this tier), so
// each 4-byte activation group is one memory-operand vpbroadcastd, and the
// store subtracts 128 * rowsum(w). The instruction's internal 4-product sum
// is at most 255*128*4 < 2^17, so the i32 lane accumulation is exact by
// construction.
//
// acc += dot(a u8, b s8) per i32 lane. GCC 12 does not tie the intrinsic's
// accumulator to its destination inside the unrolled register block: it
// copies every accumulator around each vpdpbusd and spills the 8 x 2 block
// to the stack. The asm form pins acc in place.
inline __m512i Dpbusd(__m512i acc, __m512i a, __m512i b) {
#if defined(__GNUC__) && !defined(__clang__)
  asm("vpdpbusd %2, %1, %0" : "+v"(acc) : "v"(a), "v"(b));
  return acc;
#else
  return _mm512_dpbusd_epi32(acc, a, b);
#endif
}

// Register block: kRows rows x kPanels panels (up to 8 x 2 = 8 rows x 32
// channels, 16 zmm accumulators). Per K-group: kPanels 64-byte B-line
// loads shared by all rows, kRows broadcasts shared by both panels.
template <int kRows, int kPanels>
void DotBlockVnni(const std::int8_t* arows, int lda,
                  const std::int8_t* const panels[2], int k_groups,
                  const __m512i corr[2], const __mmask16 masks[2],
                  std::int32_t* out, int ldc) {
  __m512i acc[kRows][kPanels];
#pragma GCC unroll 8
  for (int i = 0; i < kRows; ++i) {
#pragma GCC unroll 2
    for (int j = 0; j < kPanels; ++j) acc[i][j] = _mm512_setzero_si512();
  }
  for (int g = 0; g < k_groups; ++g) {
    const std::int64_t b_off =
        static_cast<std::int64_t>(g) * kInt8DotNr * kInt8DotKg;
    __m512i b[kPanels];
#pragma GCC unroll 2
    for (int j = 0; j < kPanels; ++j) {
      b[j] = _mm512_load_si512(panels[j] + b_off);
    }
    const std::int8_t* a = arows + static_cast<std::int64_t>(g) * kInt8DotKg;
#pragma GCC unroll 8
    for (int i = 0; i < kRows; ++i) {
      std::int32_t w;
      std::memcpy(&w, a + static_cast<std::int64_t>(i) * lda, 4);
      const __m512i av = _mm512_set1_epi32(w);
#pragma GCC unroll 2
      for (int j = 0; j < kPanels; ++j) {
        acc[i][j] = Dpbusd(acc[i][j], av, b[j]);
      }
    }
  }
#pragma GCC unroll 8
  for (int i = 0; i < kRows; ++i) {
    std::int32_t* o = out + static_cast<std::int64_t>(i) * ldc;
#pragma GCC unroll 2
    for (int j = 0; j < kPanels; ++j) {
      _mm512_mask_storeu_epi32(o + j * kInt8DotNr, masks[j],
                               _mm512_sub_epi32(acc[i][j], corr[j]));
    }
  }
}

// DotBlockVnni<1..8, kPanels>, indexed by row count - 1: the full 8-row
// block and its row-tail instantiations.
template <int kPanels, std::size_t... kRowsMinus1>
constexpr auto DotBlockVnniTable(std::index_sequence<kRowsMinus1...>) {
  return std::array{&DotBlockVnni<static_cast<int>(kRowsMinus1) + 1,
                                  kPanels>...};
}

// Panel pairs outer (one 32-channel weight strip stays L1/L2-resident
// across every row of the block), 8-row groups inner; an odd last panel
// runs the single-panel block, a partial last panel and the row tail
// store through masks.
void DotComputeVnni(const std::int8_t* arows, int lda,
                    const PackedInt8DotPanels& rhs, int block_rows,
                    std::int32_t* out, int ldc) {
  constexpr int kBlockRows = 8;
  static constexpr auto kPairBlocks =
      DotBlockVnniTable<2>(std::make_index_sequence<kBlockRows>{});
  static constexpr auto kSingleBlocks =
      DotBlockVnniTable<1>(std::make_index_sequence<kBlockRows>{});
  const int n = rhs.n();
  const int k_groups = rhs.k_groups();
  const std::int32_t* row_sums = rhs.row_sums().data();
  for (int p = 0; p < rhs.num_panels(); p += 2) {
    const int np = std::min(2, rhs.num_panels() - p);
    const std::int8_t* panels[2] = {rhs.panel(p), rhs.panel(p + np - 1)};
    __m512i corr[2];
    __mmask16 masks[2];
    for (int j = 0; j < np; ++j) {
      const int col0 = (p + j) * kInt8DotNr;
      const int cols = std::min(kInt8DotNr, n - col0);
      masks[j] = cols == kInt8DotNr
                     ? static_cast<__mmask16>(0xffff)
                     : static_cast<__mmask16>((1u << cols) - 1);
      // row_sums is padded to a panel multiple, so the full-width load is
      // safe even on a partial panel (the store stays masked). mullo rather
      // than slli: GCC 12's slli expands through _mm512_undefined_epi32
      // and trips -Wmaybe-uninitialized (PR105593).
      corr[j] = _mm512_mullo_epi32(
          _mm512_loadu_si512(reinterpret_cast<const void*>(row_sums + col0)),
          _mm512_set1_epi32(128));
    }
    if (np == 1) {
      corr[1] = corr[0];
      masks[1] = masks[0];
    }
    const auto& blocks = np == 2 ? kPairBlocks : kSingleBlocks;
    std::int32_t* o = out + static_cast<std::int64_t>(p) * kInt8DotNr;
    for (int r = 0; r < block_rows; r += kBlockRows) {
      const int rows = std::min(kBlockRows, block_rows - r);
      blocks[rows - 1](arows + static_cast<std::int64_t>(r) * lda, lda, panels,
                       k_groups, corr, masks,
                       o + static_cast<std::int64_t>(r) * ldc, ldc);
    }
  }
}
#endif  // __AVX512VNNI__

#if defined(__AVX2__)
// vpmaddubsw saturates its pairwise i16 sum (biased 255 * 127 + 255 * 127
// overflows i16), so each 4-byte group is split into even and odd bytes
// first (AND with the 0x00FF / 0xFF00 i16 masks): every i16 lane then
// holds a single u8 x s8 product, |p| <= 255 * 128 = 32640 < 2^15, and no
// saturation can occur. vpmaddwd against ones widens the two
// single-product lanes into the per-channel i32 partial dot. See
// docs/KERNELS.md ("saturation semantics").
void DotPanelAvx2(const std::int8_t* arows, int lda, const std::int8_t* panel,
                  int k_groups, const std::int32_t* row_sums, int col0,
                  int cols, int block_rows, std::int32_t* out, int ldc) {
  const __m256i even_mask = _mm256_set1_epi16(0x00FF);
  const __m256i ones16 = _mm256_set1_epi16(1);
  for (int r = 0; r < block_rows; ++r) {
    const std::int8_t* a = arows + static_cast<std::int64_t>(r) * lda;
    __m256i acc_lo = _mm256_setzero_si256();
    __m256i acc_hi = _mm256_setzero_si256();
    for (int g = 0; g < k_groups; ++g) {
      const std::int8_t* b = panel + static_cast<std::int64_t>(g) *
                                         kInt8DotNr * kInt8DotKg;
      const __m256i b_lo =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(b));
      const __m256i b_hi =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(b + 32));
      std::uint32_t w;
      std::memcpy(&w, a + static_cast<std::int64_t>(g) * kInt8DotKg, 4);
      const __m256i av = _mm256_set1_epi32(static_cast<int>(w ^ 0x80808080u));
      acc_lo = _mm256_add_epi32(
          acc_lo, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(
                          av, _mm256_and_si256(b_lo, even_mask)),
                      ones16));
      acc_lo = _mm256_add_epi32(
          acc_lo, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(
                          av, _mm256_andnot_si256(even_mask, b_lo)),
                      ones16));
      acc_hi = _mm256_add_epi32(
          acc_hi, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(
                          av, _mm256_and_si256(b_hi, even_mask)),
                      ones16));
      acc_hi = _mm256_add_epi32(
          acc_hi, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(
                          av, _mm256_andnot_si256(even_mask, b_hi)),
                      ones16));
    }
    alignas(32) std::int32_t lanes[kInt8DotNr];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc_lo);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 8), acc_hi);
    std::int32_t* o = out + static_cast<std::int64_t>(r) * ldc + col0;
    for (int j = 0; j < cols; ++j) {
      o[j] = lanes[j] - 128 * row_sums[col0 + j];
    }
  }
}
#endif  // __AVX2__

#if defined(__ARM_NEON) && defined(__ARM_FEATURE_DOTPROD)
// sdot is s8 x s8 and exact as-is: no activation bias, no rowsum
// correction. Four q-register accumulators cover the 16 panel channels.
void DotPanelNeon(const std::int8_t* arows, int lda, const std::int8_t* panel,
                  int k_groups, int col0, int cols, int block_rows,
                  std::int32_t* out, int ldc) {
  for (int r = 0; r < block_rows; ++r) {
    const std::int8_t* a = arows + static_cast<std::int64_t>(r) * lda;
    int32x4_t acc0 = vdupq_n_s32(0);
    int32x4_t acc1 = vdupq_n_s32(0);
    int32x4_t acc2 = vdupq_n_s32(0);
    int32x4_t acc3 = vdupq_n_s32(0);
    for (int g = 0; g < k_groups; ++g) {
      const std::int8_t* b =
          panel + static_cast<std::int64_t>(g) * kInt8DotNr * kInt8DotKg;
      std::uint32_t w;
      std::memcpy(&w, a + static_cast<std::int64_t>(g) * kInt8DotKg, 4);
      const int8x16_t av = vreinterpretq_s8_u32(vdupq_n_u32(w));
      acc0 = vdotq_s32(acc0, av, vld1q_s8(b));
      acc1 = vdotq_s32(acc1, av, vld1q_s8(b + 16));
      acc2 = vdotq_s32(acc2, av, vld1q_s8(b + 32));
      acc3 = vdotq_s32(acc3, av, vld1q_s8(b + 48));
    }
    alignas(16) std::int32_t lanes[kInt8DotNr];
    vst1q_s32(lanes, acc0);
    vst1q_s32(lanes + 4, acc1);
    vst1q_s32(lanes + 8, acc2);
    vst1q_s32(lanes + 12, acc3);
    std::int32_t* o = out + static_cast<std::int64_t>(r) * ldc + col0;
    for (int j = 0; j < cols; ++j) o[j] = lanes[j];
  }
}
#endif  // __ARM_NEON && __ARM_FEATURE_DOTPROD

}  // namespace

PackedInt8DotPanels::PackedInt8DotPanels(const std::int8_t* rows, int n, int k)
    : n_(n), k_(k), k_groups_((k + kInt8DotKg - 1) / kInt8DotKg) {
  num_panels_ = (n + kInt8DotNr - 1) / kInt8DotNr;
  buf_ = AlignedBuffer(static_cast<std::size_t>(num_panels_) * panel_bytes());
  // Zero first: K-padding bytes and the unused channel slots of the last
  // panel must contribute nothing. The biased u8 x s8 kernels multiply
  // padding weights by a nonzero (biased-zero = 128) activation, so a
  // garbage padding byte would corrupt real outputs.
  buf_.Zero();
  auto* d = reinterpret_cast<std::int8_t*>(buf_.data());
  for (int p = 0; p < num_panels_; ++p) {
    std::int8_t* dp = d + static_cast<std::int64_t>(p) * panel_bytes();
    const int col0 = p * kInt8DotNr;
    const int cols = std::min(kInt8DotNr, n - col0);
    for (int j = 0; j < cols; ++j) {
      const std::int8_t* s = rows + static_cast<std::int64_t>(col0 + j) * k;
      for (int kk = 0; kk < k; ++kk) {
        dp[(static_cast<std::int64_t>(kk / kInt8DotKg) * kInt8DotNr + j) *
               kInt8DotKg +
           kk % kInt8DotKg] = s[kk];
      }
    }
  }
  // Padded to a full panel multiple (extra entries zero) so the VNNI
  // correction load can read a whole 16-lane vector per panel unmasked.
  row_sums_.assign(static_cast<std::size_t>(num_panels_) * kInt8DotNr, 0);
  for (int r = 0; r < n; ++r) {
    std::int32_t s = 0;
    for (int kk = 0; kk < k; ++kk) {
      s += rows[static_cast<std::int64_t>(r) * k + kk];
    }
    row_sums_[r] = s;
  }
}

bool Int8DotRowsBiased(Int8Tier tier) {
#if defined(__AVX512VNNI__)
  return tier == Int8Tier::kVnni;
#else
  (void)tier;
  return false;
#endif
}

void Int8DotComputeStagedBlock(const std::int8_t* arows, int lda,
                               const PackedInt8DotPanels& rhs, Int8Tier tier,
                               int block_rows, std::int32_t* out, int ldc) {
#if defined(__AVX512VNNI__)
  if (tier == Int8Tier::kVnni) {
    DotComputeVnni(arows, lda, rhs, block_rows, out, ldc);
    return;
  }
#endif
  const int k_groups = rhs.k_groups();
  const int n = rhs.n();
  for (int p = 0; p < rhs.num_panels(); ++p) {
    const int col0 = p * kInt8DotNr;
    const int cols = std::min(kInt8DotNr, n - col0);
    const std::int8_t* panel = rhs.panel(p);
#if defined(__AVX2__)
    if (tier == Int8Tier::kAvx2Dot) {
      DotPanelAvx2(arows, lda, panel, k_groups, rhs.row_sums().data(), col0,
                   cols, block_rows, out, ldc);
      continue;
    }
#endif
#if defined(__ARM_NEON) && defined(__ARM_FEATURE_DOTPROD)
    if (tier == Int8Tier::kNeonDot) {
      DotPanelNeon(arows, lda, panel, k_groups, col0, cols, block_rows, out,
                   ldc);
      continue;
    }
#endif
    // kScalar, or a tier whose kernel is not compiled into this binary.
    DotPanelPortable(arows, lda, panel, k_groups, col0, cols, block_rows, out,
                     ldc);
  }
}

void Int8DotComputeBlock(const std::int8_t* arows, int lda,
                         const PackedInt8DotPanels& rhs, Int8Tier tier,
                         int block_rows, std::int32_t* out, int ldc) {
  if (!Int8DotRowsBiased(tier)) {
    Int8DotComputeStagedBlock(arows, lda, rhs, tier, block_rows, out, ldc);
    return;
  }
  std::vector<std::int8_t> biased(static_cast<std::size_t>(block_rows) * lda);
  for (std::size_t i = 0; i < biased.size(); ++i) {
    biased[i] = static_cast<std::int8_t>(arows[i] ^ 0x80);
  }
  Int8DotComputeStagedBlock(biased.data(), lda, rhs, tier, block_rows, out,
                            ldc);
}

}  // namespace lce::gemm
