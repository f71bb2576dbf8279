#include "gemm/bgemm.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <utility>

#ifdef __AVX2__
#include <immintrin.h>
#endif
#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#define LCE_BGEMM_NEON 1
#endif
#if defined(__AVX512VPOPCNTDQ__) && defined(__AVX512VL__)
#define LCE_BGEMM_AVX512 1
#endif

#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace lce::gemm {
namespace {

// Every tier's register block has this signature: `a` points at row 0 of
// the block (rows `lda` words apart), `b` at its first panel (panels
// `b_stride` u64 apart), and `out` at the block's first output; the last
// panel stores only `last_cols` channels.
using BlockFn = void (*)(const TBitpacked* a, int lda, const std::uint64_t* b,
                         std::int64_t b_stride, int kw, int k_bits,
                         int last_cols, std::int32_t* out, int ldc);

// K word w of a row: word pair (2w, 2w+1) as one u64 (little-endian, the
// same pairing the weight packer uses). The rows are 32-bit arrays, hence
// memcpy.
inline std::uint64_t LoadK64(const TBitpacked* row, int w) {
  std::uint64_t x = 0;
  std::memcpy(&x, row + 2 * w, sizeof(x));
  return x;
}

// Calls step(panel K line, A-word loader) for every K word: the whole u64
// words, then an odd tail word zero-extended.
template <class Step>
void ForEachKWord(const std::uint64_t* b, int kw, const Step& step) {
  const int kw64 = kw / 2;
  for (int w = 0; w < kw64; ++w) {
    step(b + w * kBgemmNr,
         [w](const TBitpacked* row) { return LoadK64(row, w); });
  }
  if (kw % 2 != 0) {
    step(b + kw64 * kBgemmNr, [kw](const TBitpacked* row) {
      return static_cast<std::uint64_t>(row[kw - 1]);
    });
  }
}

// Writes k_bits - 2 * popcount for `cols` per-channel u64 counts.
inline void StoreCounts(const std::uint64_t* counts, int cols, int k_bits,
                        std::int32_t* out) {
  for (int j = 0; j < cols; ++j) {
    out[j] = k_bits - 2 * static_cast<std::int32_t>(counts[j]);
  }
}

// Portable tier: one row x one panel per call.
struct ScalarBlock {
  static constexpr int kRows = 1, kPanels = 1;
  template <int R, int P>
  static void Run(const TBitpacked* a, int lda, const std::uint64_t* b,
                  std::int64_t b_stride, int kw, int k_bits, int last_cols,
                  std::int32_t* out, int ldc) {
    constexpr int N = P * kBgemmNr;
    for (int i = 0; i < R; ++i) {
      const TBitpacked* ai = a + static_cast<std::int64_t>(i) * lda;
      std::uint64_t counts[N] = {};
      ForEachKWord(b, kw, [&](const std::uint64_t* bw, const auto& load_a) {
        const std::uint64_t x = load_a(ai);
        for (int j = 0; j < N; ++j) {
          counts[j] += std::popcount(
              x ^ bw[(j / kBgemmNr) * b_stride + j % kBgemmNr]);
        }
      });
      StoreCounts(counts, (P - 1) * kBgemmNr + last_cols, k_bits,
                  out + static_cast<std::int64_t>(i) * ldc);
    }
  }
};

#ifdef LCE_BGEMM_AVX512
// acc += popcount(a ^ b) per u64 lane. GCC 12 does not keep a 24-entry
// accumulator array in registers through the intrinsic form: it stores
// every accumulator to the stack on each K step. The asm form pins each
// accumulator in its register.
inline __m512i XorPopcntAdd(__m512i acc, __m512i a, __m512i b) {
#if defined(__GNUC__) && !defined(__clang__)
  __m512i t;
  asm("vpxorq %3, %2, %1\n\t"
      "vpopcntq %1, %1\n\t"
      "vpaddq %1, %0, %0"
      : "+v"(acc), "=&v"(t)
      : "v"(a), "v"(b));
  return acc;
#else
  return _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_xor_si512(a, b)));
#endif
}

// 6 rows x 4 panels = 24 zmm accumulators, 4 panel lines and one broadcast
// register: 29 of 32. Per K word: 4 aligned panel loads, 6 memory-operand
// vpbroadcastq, then xor + vpopcntq + add per accumulator -- one 512-MAC
// triple per zmm with no horizontal reduction. The epilogue narrows
// k_bits - 2 * acc with a masked vpmovqd store (the memory form, which
// needs no undefined-register source and so stays clear of GCC 12's
// -Wuninitialized false positives).
struct Avx512Block {
  static constexpr int kRows = 6, kPanels = 4;
  template <int R, int P>
  static void Run(const TBitpacked* a, int lda, const std::uint64_t* b,
                  std::int64_t b_stride, int kw, int k_bits, int last_cols,
                  std::int32_t* out, int ldc) {
    __m512i acc[R][P];
#pragma GCC unroll 6
    for (int i = 0; i < R; ++i) {
#pragma GCC unroll 4
      for (int p = 0; p < P; ++p) acc[i][p] = _mm512_setzero_si512();
    }
    ForEachKWord(b, kw, [&](const std::uint64_t* bw, const auto& load_a) {
      __m512i bv[P];
#pragma GCC unroll 4
      for (int p = 0; p < P; ++p) bv[p] = _mm512_load_si512(bw + p * b_stride);
#pragma GCC unroll 6
      for (int i = 0; i < R; ++i) {
        const __m512i av = _mm512_set1_epi64(static_cast<long long>(
            load_a(a + static_cast<std::int64_t>(i) * lda)));
#pragma GCC unroll 4
        for (int p = 0; p < P; ++p) {
          acc[i][p] = XorPopcntAdd(acc[i][p], av, bv[p]);
        }
      }
    });
    const __m512i kv = _mm512_set1_epi64(k_bits);
    const auto last_mask = static_cast<__mmask8>((1u << last_cols) - 1);
#pragma GCC unroll 6
    for (int i = 0; i < R; ++i) {
      std::int32_t* o = out + static_cast<std::int64_t>(i) * ldc;
#pragma GCC unroll 4
      for (int p = 0; p < P; ++p) {
        _mm512_mask_cvtepi64_storeu_epi32(
            o + p * kBgemmNr, p == P - 1 ? last_mask : __mmask8{0xff},
            _mm512_sub_epi64(kv, _mm512_add_epi64(acc[i][p], acc[i][p])));
      }
    }
  }
};
#endif  // LCE_BGEMM_AVX512

#ifdef __AVX2__
// Two ymm (4 u64 lanes each) per panel. The nibble-LUT pshufb popcount
// gives per-byte counts; psadbw sums them per u64 lane, which on this
// layout is already one count per output channel.
struct Avx2Block {
  static constexpr int kRows = 3, kPanels = 1;
  template <int R, int P>
  static void Run(const TBitpacked* a, int lda, const std::uint64_t* b,
                  std::int64_t b_stride, int kw, int k_bits, int last_cols,
                  std::int32_t* out, int ldc) {
    constexpr int H = 2 * P;  // ymm halves
    const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3,
                                         2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3,
                                         1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    const __m256i zero = _mm256_setzero_si256();
    __m256i acc[R][H];
    for (int i = 0; i < R; ++i)
      for (int h = 0; h < H; ++h) acc[i][h] = zero;
    const auto step = [&](const std::uint64_t* bw, const auto& load_a) {
      __m256i bv[H];
      for (int h = 0; h < H; ++h) {
        bv[h] = _mm256_load_si256(reinterpret_cast<const __m256i*>(
            bw + (h / 2) * b_stride + (h % 2) * 4));
      }
      for (int i = 0; i < R; ++i) {
        const __m256i av = _mm256_set1_epi64x(static_cast<long long>(
            load_a(a + static_cast<std::int64_t>(i) * lda)));
        for (int h = 0; h < H; ++h) {
          const __m256i x = _mm256_xor_si256(av, bv[h]);
          const __m256i c = _mm256_add_epi8(
              _mm256_shuffle_epi8(lut, _mm256_and_si256(x, low_mask)),
              _mm256_shuffle_epi8(
                  lut, _mm256_and_si256(_mm256_srli_epi32(x, 4), low_mask)));
          acc[i][h] = _mm256_add_epi64(acc[i][h], _mm256_sad_epu8(c, zero));
        }
      }
    };
    ForEachKWord(b, kw, step);
    for (int i = 0; i < R; ++i) {
      alignas(32) std::uint64_t lanes[H * 4];
      for (int h = 0; h < H; ++h) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4 * h),
                           acc[i][h]);
      }
      StoreCounts(lanes, (P - 1) * kBgemmNr + last_cols, k_bits,
                  out + static_cast<std::int64_t>(i) * ldc);
    }
  }
};
#endif  // __AVX2__

#ifdef LCE_BGEMM_NEON
// The paper's Table 1 sequence per u64 lane: eor, cnt (per-byte counts),
// then pairwise widening adds into a u64 accumulator lane per channel.
// Four q-registers (two channels each) per panel.
struct NeonBlock {
  static constexpr int kRows = 4, kPanels = 1;
  template <int R, int P>
  static void Run(const TBitpacked* a, int lda, const std::uint64_t* b,
                  std::int64_t b_stride, int kw, int k_bits, int last_cols,
                  std::int32_t* out, int ldc) {
    constexpr int Q = 4 * P;
    uint64x2_t acc[R][Q];
    for (int i = 0; i < R; ++i)
      for (int q = 0; q < Q; ++q) acc[i][q] = vdupq_n_u64(0);
    const auto step = [&](const std::uint64_t* bw, const auto& load_a) {
      uint64x2_t bv[Q];
      for (int q = 0; q < Q; ++q) {
        bv[q] = vld1q_u64(bw + (q / 4) * b_stride + (q % 4) * 2);
      }
      for (int i = 0; i < R; ++i) {
        const uint64x2_t av =
            vdupq_n_u64(load_a(a + static_cast<std::int64_t>(i) * lda));
        for (int q = 0; q < Q; ++q) {
          const uint8x16_t c =
              vcntq_u8(vreinterpretq_u8_u64(veorq_u64(av, bv[q])));
          acc[i][q] = vpadalq_u32(acc[i][q], vpaddlq_u16(vpaddlq_u8(c)));
        }
      }
    };
    ForEachKWord(b, kw, step);
    for (int i = 0; i < R; ++i) {
      std::uint64_t lanes[Q * 2];
      for (int q = 0; q < Q; ++q) vst1q_u64(lanes + 2 * q, acc[i][q]);
      StoreCounts(lanes, (P - 1) * kBgemmNr + last_cols, k_bits,
                  out + static_cast<std::int64_t>(i) * ldc);
    }
  }
};
#endif  // LCE_BGEMM_NEON

// Block<R, P> for every R in 1..kRows and P in 1..kPanels, indexed by
// (P - 1) * kRows + (R - 1): the full register block and its row/panel
// tails.
template <class Block, std::size_t... I>
constexpr auto MakeBlockTable(std::index_sequence<I...>) {
  return std::array<BlockFn, sizeof...(I)>{
      &Block::template Run<static_cast<int>(I % Block::kRows) + 1,
                           static_cast<int>(I / Block::kRows) + 1>...};
}

// Panel groups outer (one kPanels-wide weight strip stays L1-resident
// across every row), row blocks inner.
template <class Block>
void RunBlocks(const TBitpacked* a, int lda, const PackedBinaryMatrix& rhs,
               int k_bits, int rows, std::int32_t* out, int ldc) {
  static constexpr auto kTable = MakeBlockTable<Block>(
      std::make_index_sequence<Block::kRows * Block::kPanels>{});
  const int num_panels = rhs.num_panels();
  for (int p = 0; p < num_panels; p += Block::kPanels) {
    const int np = std::min(Block::kPanels, num_panels - p);
    const int last_cols = rhs.n() - (p + np - 1) * kBgemmNr;
    const BlockFn* fns = kTable.data() + (np - 1) * Block::kRows;
    for (int r = 0; r < rows; r += Block::kRows) {
      const int nr = std::min(Block::kRows, rows - r);
      fns[nr - 1](a + static_cast<std::int64_t>(r) * lda, lda, rhs.panel(p),
                  rhs.panel_elems(), rhs.kw(), k_bits,
                  std::min(last_cols, kBgemmNr),
                  out + static_cast<std::int64_t>(r) * ldc + p * kBgemmNr,
                  ldc);
    }
  }
}

}  // namespace

std::vector<BGemmTier> CompiledBGemmTiers() {
  std::vector<BGemmTier> tiers = {BGemmTier::kScalar};
#ifdef __AVX2__
  tiers.push_back(BGemmTier::kAvx2);
#endif
#ifdef LCE_BGEMM_NEON
  tiers.push_back(BGemmTier::kNeon);
#endif
#ifdef LCE_BGEMM_AVX512
  tiers.push_back(BGemmTier::kAvx512);
#endif
  return tiers;
}

BGemmTier BestBGemmTier() {
  static const BGemmTier best = CompiledBGemmTiers().back();
  return best;
}

BGemmTier BGemmTierFor(KernelProfile profile) {
  return profile == KernelProfile::kScalar ? BGemmTier::kScalar
                                           : BestBGemmTier();
}

void BGemmComputeBlock(const TBitpacked* lhs, int lda,
                       const PackedBinaryMatrix& rhs, int k_bits,
                       BGemmTier tier, int rows, std::int32_t* out, int ldc) {
  switch (tier) {
#ifdef LCE_BGEMM_AVX512
    case BGemmTier::kAvx512:
      RunBlocks<Avx512Block>(lhs, lda, rhs, k_bits, rows, out, ldc);
      return;
#endif
#ifdef __AVX2__
    case BGemmTier::kAvx2:
      RunBlocks<Avx2Block>(lhs, lda, rhs, k_bits, rows, out, ldc);
      return;
#endif
#ifdef LCE_BGEMM_NEON
    case BGemmTier::kNeon:
      RunBlocks<NeonBlock>(lhs, lda, rhs, k_bits, rows, out, ldc);
      return;
#endif
    default:  // kScalar, or a tier not compiled into this binary
      RunBlocks<ScalarBlock>(lhs, lda, rhs, k_bits, rows, out, ldc);
  }
}

PackedBinaryMatrix::PackedBinaryMatrix(const TBitpacked* rows, int n, int kw)
    : n_(n), kw_(kw), num_panels_((n + kBgemmNr - 1) / kBgemmNr) {
  LCE_TRACE_SCOPE_CAT("bgemm/pack_weights", "gemm");
  buf_ = AlignedBuffer(static_cast<std::size_t>(num_panels_) * panel_elems() *
                       sizeof(std::uint64_t));
  buf_.Zero();  // channel and odd-word padding must count nothing
  auto* d = reinterpret_cast<std::uint64_t*>(buf_.data());
  for (int j = 0; j < n; ++j) {
    std::uint64_t* dj =
        d + (j / kBgemmNr) * panel_elems() + j % kBgemmNr;
    const TBitpacked* s = rows + static_cast<std::int64_t>(j) * kw;
    for (int w = 0; w < kw; ++w) {
      dj[(w / 2) * kBgemmNr] |= static_cast<std::uint64_t>(s[w])
                                << (32 * (w % 2));
    }
  }
}

void BGemm(const TBitpacked* lhs, int m, const PackedBinaryMatrix& rhs,
           int k_bits, std::int32_t* out, int ldc, Context& ctx) {
  // One BGEMM computes m x n dot products of k_bits binary positions each.
  static telemetry::Metric* macs =
      telemetry::MetricsRegistry::Global().Counter("bgemm.binary_macs");
  macs->Add(static_cast<std::int64_t>(m) * rhs.n() * k_bits);

  const BGemmTier tier = BGemmTierFor(ctx.profile());
  const int kw = rhs.kw();
  const std::int64_t m_tiles = (m + kBgemmMr - 1) / kBgemmMr;
  // Each shard runs blocks of up to kBlockTiles row tiles, so one block's
  // LHS rows and int32 outputs stay cache-resident while the weight strips
  // stream past them.
  constexpr int kBlockTiles = 16;
  LCE_TRACE_SCOPE_CAT("bgemm/compute", "gemm");
  ctx.pool().ParallelFor(m_tiles, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t t = begin; t < end; t += kBlockTiles) {
      const std::int64_t row0 = t * kBgemmMr;
      const int rows = static_cast<int>(std::min<std::int64_t>(
          std::min(t + kBlockTiles, end) * kBgemmMr, m) - row0);
      BGemmComputeBlock(lhs + row0 * kw, kw, rhs, k_bits, tier, rows,
                        out + row0 * ldc, ldc);
    }
  });
}

void BGemm(const TBitpacked* lhs, int m, const TBitpacked* rhs, int n, int kw,
           int k_bits, std::int32_t* out, int ldc, Context& ctx) {
  PackedBinaryMatrix packed(rhs, n, kw);
  BGemm(lhs, m, packed, k_bits, out, ldc, ctx);
}

bool HasSimdBGemm() { return BestBGemmTier() != BGemmTier::kScalar; }

}  // namespace lce::gemm
