#include "gemm/float_gemm.h"

#include <algorithm>
#include <cstring>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define LCE_FLOAT_GEMM_AVX2 1
#endif

#include "core/macros.h"

namespace lce::gemm {
namespace {

// Packs rows [row0, row0+rows) of an [n][k] row-major matrix into
// [k][rows]-interleaved layout, zero-padding missing rows.
void PackPanel(const float* src, int n, int k, int row0, int rows,
               float* dst) {
  for (int kk = 0; kk < k; ++kk) {
    for (int r = 0; r < rows; ++r) {
      const int row = row0 + r;
      dst[static_cast<std::int64_t>(kk) * rows + r] =
          row < n ? src[static_cast<std::int64_t>(row) * k + kk] : 0.0f;
    }
  }
}

#ifdef LCE_FLOAT_GEMM_AVX2
// 4x16 micro-kernel with FMA: 8 accumulator registers, A broadcast, B loaded
// as two 8-float vectors per k step.
void KernelAvx(const float* apanel, const float* bpanel, int k,
               float acc_out[kFloatMr][kFloatNr]) {
  __m256 acc[kFloatMr][2];
  for (int i = 0; i < kFloatMr; ++i) {
    acc[i][0] = _mm256_setzero_ps();
    acc[i][1] = _mm256_setzero_ps();
  }
  for (int kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_load_ps(bpanel + kk * kFloatNr);
    const __m256 b1 = _mm256_load_ps(bpanel + kk * kFloatNr + 8);
    const float* a = apanel + kk * kFloatMr;
    for (int i = 0; i < kFloatMr; ++i) {
      const __m256 ai = _mm256_set1_ps(a[i]);
      acc[i][0] = _mm256_fmadd_ps(ai, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(ai, b1, acc[i][1]);
    }
  }
  for (int i = 0; i < kFloatMr; ++i) {
    _mm256_storeu_ps(&acc_out[i][0], acc[i][0]);
    _mm256_storeu_ps(&acc_out[i][8], acc[i][1]);
  }
}
#endif

// Portable kernel; written so the compiler can vectorize the inner j loop.
void KernelScalar(const float* apanel, const float* bpanel, int k,
                  float acc_out[kFloatMr][kFloatNr]) {
  float acc[kFloatMr][kFloatNr] = {};
  for (int kk = 0; kk < k; ++kk) {
    const float* a = apanel + kk * kFloatMr;
    const float* b = bpanel + kk * kFloatNr;
    for (int i = 0; i < kFloatMr; ++i) {
      for (int j = 0; j < kFloatNr; ++j) acc[i][j] += a[i] * b[j];
    }
  }
  std::memcpy(acc_out, acc, sizeof(acc));
}

}  // namespace

PackedFloatMatrix::PackedFloatMatrix(const float* rows, int n, int k)
    : n_(n), k_(k) {
  num_tiles_ = (n + kFloatNr - 1) / kFloatNr;
  buf_ = AlignedBuffer(static_cast<std::size_t>(num_tiles_) * tile_elems() *
                       sizeof(float));
  auto* d = reinterpret_cast<float*>(buf_.data());
  for (int t = 0; t < num_tiles_; ++t) {
    PackPanel(rows, n, k, t * kFloatNr, kFloatNr,
              d + static_cast<std::int64_t>(t) * tile_elems());
  }
}

void FloatComputeBlock(const float* apanels, int rows,
                       const PackedFloatMatrix& rhs, int nt_begin, int nt_end,
                       KernelProfile profile, float* out, int ldc) {
  const int k = rhs.k();
  const int n = rhs.n();
  const int m_tiles = (rows + kFloatMr - 1) / kFloatMr;
  const std::int64_t a_tile_elems = static_cast<std::int64_t>(k) * kFloatMr;
  // Loop order: B tiles outermost so a packed B panel (kFloatNr x K,
  // L2-resident) is reused across every LHS tile of the block instead of
  // being re-streamed per row tile -- for a 3136x64x576 GEMM this cuts B
  // traffic by the number of m-tiles.
  float acc[kFloatMr][kFloatNr];
  for (int nt = nt_begin; nt < nt_end; ++nt) {
    const int col0 = nt * kFloatNr;
    const int cols = std::min(kFloatNr, n - col0);
    for (int mt = 0; mt < m_tiles; ++mt) {
      const int row0 = mt * kFloatMr;
      const int tile_rows = std::min(kFloatMr, rows - row0);
#ifdef LCE_FLOAT_GEMM_AVX2
      if (profile == KernelProfile::kSimd) {
        KernelAvx(apanels + mt * a_tile_elems, rhs.tile(nt), k, acc);
      } else {
        KernelScalar(apanels + mt * a_tile_elems, rhs.tile(nt), k, acc);
      }
#else
      (void)profile;
      KernelScalar(apanels + mt * a_tile_elems, rhs.tile(nt), k, acc);
#endif
      for (int i = 0; i < tile_rows; ++i) {
        float* o = out + static_cast<std::int64_t>(row0 + i) * ldc + col0;
        for (int j = 0; j < cols; ++j) o[j] = acc[i][j];
      }
    }
  }
}

void FloatGemm(const float* lhs, int m, const PackedFloatMatrix& rhs,
               float* out, int ldc, Context& ctx) {
  const int k = rhs.k();
  const int m_tiles = (m + kFloatMr - 1) / kFloatMr;
  const int n_tiles = rhs.num_tiles();
  const std::int64_t a_tile_elems = static_cast<std::int64_t>(k) * kFloatMr;

  auto* apanels = reinterpret_cast<float*>(ctx.Scratch(
      0, static_cast<std::size_t>(m_tiles) * a_tile_elems * sizeof(float)));
  ctx.pool().ParallelFor(m_tiles, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t t = begin; t < end; ++t) {
      PackPanel(lhs, m, k, static_cast<int>(t) * kFloatMr, kFloatMr,
                apanels + t * a_tile_elems);
    }
  });

  const KernelProfile profile = ctx.profile();
  if (m_tiles < ctx.num_threads() && n_tiles > m_tiles) {
    // Few rows (a batch-1 classifier is one row): shard the output columns
    // instead, every shard computing all rows for its B tiles.
    ctx.pool().ParallelFor(n_tiles, [&](std::int64_t begin, std::int64_t end) {
      FloatComputeBlock(apanels, m, rhs, static_cast<int>(begin),
                        static_cast<int>(end), profile, out, ldc);
    });
    return;
  }
  ctx.pool().ParallelFor(m_tiles, [&](std::int64_t begin, std::int64_t end) {
    const int row0 = static_cast<int>(begin) * kFloatMr;
    FloatComputeBlock(apanels + begin * a_tile_elems,
                      std::min(m, static_cast<int>(end) * kFloatMr) - row0, rhs,
                      0, n_tiles, profile,
                      out + static_cast<std::int64_t>(row0) * ldc, ldc);
  });
}

void FloatGemm(const float* lhs, int m, const float* rhs, int n, int k,
               float* out, int ldc, Context& ctx) {
  PackedFloatMatrix packed(rhs, n, k);
  FloatGemm(lhs, m, packed, out, ldc, ctx);
}

}  // namespace lce::gemm
