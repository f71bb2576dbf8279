#include "kernels/pipeline/gather_pack.h"

#include <cstring>

#include "gemm/bgemm.h"
#include "gemm/float_gemm.h"
#include "gemm/int8_gemm.h"

namespace lce::pipeline {
namespace {

// One implementation parameterized over the word slice (the plain gather is
// the word_begin = 0, word_count = ind.words() case) and, at compile time,
// over the interior fast path that drops the padded-tap sentinel check.
template <bool kInterior>
void GatherPackWords(const TBitpacked* input,
                     const gemm::IndirectionOffsets& ind,
                     const TBitpacked* zero_row, int word_begin, int word_count,
                     std::int64_t row0, int tile_rows, int k_blocks,
                     std::uint64_t* dst) {
  using gemm::kBgemmKWords64;
  const int taps = ind.taps();
  const int words = word_count;
  const int kw = taps * words;
  const std::int64_t kb_stride =
      static_cast<std::int64_t>(tile_rows) * kBgemmKWords64;

  const auto tap_src = [&](const std::int32_t* offs, int t) -> const TBitpacked* {
    if constexpr (kInterior) {
      return input + offs[t] + word_begin;
    } else {
      const std::int32_t off = offs[t];
      return off < 0 ? zero_row : input + off + word_begin;
    }
  };

  // Fast path (every realistic geometry: words is even whenever the sliced
  // channel count is a multiple of 64, and always for the common
  // power-of-two channel counts): merge each tap's word pairs straight into
  // the panel's u64 lanes, walking k-blocks as the lane index wraps. Each
  // destination word is written exactly once -- no staging buffer, no memset.
  if (words % 2 == 0) {
    for (int r = 0; r < tile_rows; ++r) {
      const std::int64_t row = row0 + r;
      if (row >= ind.rows()) {
        gemm::BGemmZeroLhsRow(k_blocks, r, tile_rows, dst);
        continue;
      }
      const std::int32_t* offs = ind.row(row);
      std::uint64_t* drow = dst + static_cast<std::int64_t>(r) * kBgemmKWords64;
      int lane = 0;  // u64 lane within the current k-block row [0, 8)
      for (int t = 0; t < taps; ++t) {
        const TBitpacked* src = tap_src(offs, t);
        for (int wi = 0; wi < words; wi += 2) {
          drow[lane] = static_cast<std::uint64_t>(src[wi]) |
                       static_cast<std::uint64_t>(src[wi + 1]) << 32;
          if (++lane == kBgemmKWords64) {
            lane = 0;
            drow += kb_stride;
          }
        }
      }
      if (lane != 0) {  // zero the k-padding lanes of the last block
        for (; lane < kBgemmKWords64; ++lane) drow[lane] = 0;
      }
    }
    return;
  }

  // Odd-words path: gather the taps of one logical patch row into a
  // contiguous stack staging buffer (a tiny, cache-hot im2col of exactly
  // one row), then pack it with the same destination-major row packer as
  // the contiguous LHS path.
  constexpr int kStageWords = 1024;
  if (kw <= kStageWords) {
    TBitpacked stage[kStageWords];
    for (int r = 0; r < tile_rows; ++r) {
      const std::int64_t row = row0 + r;
      if (row >= ind.rows()) {
        gemm::BGemmZeroLhsRow(k_blocks, r, tile_rows, dst);
        continue;
      }
      const std::int32_t* offs = ind.row(row);
      TBitpacked* sp = stage;
      for (int t = 0; t < taps; ++t, sp += words) {
        const TBitpacked* src = tap_src(offs, t);
        for (int wi = 0; wi < words; ++wi) sp[wi] = src[wi];
      }
      gemm::BGemmPackLhsRow(stage, kw, k_blocks, r, tile_rows, dst);
    }
    return;
  }

  // Generic fallback for giant patch rows: scatter word-by-word.
  std::memset(dst, 0,
              static_cast<std::size_t>(k_blocks) * tile_rows * kBgemmKWords64 *
                  sizeof(std::uint64_t));
  for (int r = 0; r < tile_rows; ++r) {
    const std::int64_t row = row0 + r;
    if (row >= ind.rows()) break;
    const std::int32_t* offs = ind.row(row);
    // Each k-block spans kBgemmKWords64 u64 lanes = 2*kBgemmKWords64 of the
    // 32-bit patch words.
    constexpr int kBlockWords32 = 2 * kBgemmKWords64;
    int w = 0;  // word index within the logical patch row
    for (int t = 0; t < taps; ++t) {
      const TBitpacked* src = tap_src(offs, t);
      for (int wi = 0; wi < words; ++wi, ++w) {
        const int kb = w / kBlockWords32;
        const int w64 = (w % kBlockWords32) / 2;
        const int half = w % 2;
        dst[(static_cast<std::int64_t>(kb) * tile_rows + r) * kBgemmKWords64 +
            w64] |= static_cast<std::uint64_t>(src[wi]) << (half * 32);
      }
    }
  }
}

template <bool kInterior>
void GatherPackFloatRows(const float* input, const Conv2DGeometry& g,
                         const float* pad_row, const float* zero_row,
                         std::int64_t row0, float* dst) {
  constexpr int kRows = gemm::kFloatMr;
  const int out_h = g.out_h(), out_w = g.out_w(), in_c = g.in_c;
  const std::int64_t rows = static_cast<std::int64_t>(g.batch) * out_h * out_w;
  // Per row: the image base and the receptive field's top-left corner.
  const float* image[kRows] = {};
  int iy0[kRows] = {}, ix0[kRows] = {};
  for (int r = 0; r < kRows; ++r) {
    const std::int64_t pos = row0 + r;
    if (pos >= rows) continue;
    const std::int64_t b = pos / (static_cast<std::int64_t>(out_h) * out_w);
    const int rem = static_cast<int>(pos - b * out_h * out_w);
    image[r] = input + b * g.in_h * g.in_w * in_c;
    iy0[r] = rem / out_w * g.stride_h - g.pad_h_begin();
    ix0[r] = rem % out_w * g.stride_w - g.pad_w_begin();
  }
  // Destination-major: all kRows rows of one (tap, channel) K index are
  // written together, so the panel is filled sequentially.
  float* d = dst;
  for (int ky = 0; ky < g.filter_h; ++ky) {
    for (int kx = 0; kx < g.filter_w; ++kx) {
      const float* src[kRows];
      for (int r = 0; r < kRows; ++r) {
        const int iy = iy0[r] + ky, ix = ix0[r] + kx;
        if (image[r] == nullptr) {
          src[r] = zero_row;
        } else if (!kInterior &&
                   (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w)) {
          src[r] = pad_row;
        } else {
          src[r] = image[r] + (static_cast<std::int64_t>(iy) * g.in_w + ix) *
                                  in_c;
        }
      }
      for (int c = 0; c < in_c; ++c, d += kRows) {
        for (int r = 0; r < kRows; ++r) d[r] = src[r][c];
      }
    }
  }
}

// One staged patch-row copy of GatherStageInt8Dot; with kBias every byte
// gets the +128 bias (XOR 0x80) on the way.
template <bool kBias>
void CopyTap(std::int8_t* dst, const std::int8_t* src, int n) {
  if constexpr (kBias) {
    for (int i = 0; i < n; ++i) {
      dst[i] = static_cast<std::int8_t>(src[i] ^ 0x80);
    }
  } else {
    std::memcpy(dst, src, static_cast<std::size_t>(n));
  }
}

template <bool kBias>
void GatherStageRows(const std::int8_t* input,
                     const gemm::IndirectionOffsets& ind,
                     std::int8_t pad_value, std::int64_t row0, int tile_rows,
                     int lda, bool interior, std::int8_t* dst) {
  const int taps = ind.taps();
  const int in_c = ind.words();  // elems_per_pixel: bytes for int8 inputs
  const int k = taps * in_c;
  const std::int8_t pad =
      kBias ? static_cast<std::int8_t>(pad_value ^ 0x80) : pad_value;
  for (int r = 0; r < tile_rows; ++r) {
    std::int8_t* drow = dst + static_cast<std::int64_t>(r) * lda;
    const std::int64_t row = row0 + r;
    if (row >= ind.rows()) {
      std::memset(drow, 0, static_cast<std::size_t>(lda));
      continue;
    }
    const std::int32_t* offs = ind.row(row);
    std::int8_t* sp = drow;
    if (interior) {
      for (int t = 0; t < taps; ++t, sp += in_c) {
        CopyTap<kBias>(sp, input + offs[t], in_c);
      }
    } else {
      for (int t = 0; t < taps; ++t, sp += in_c) {
        const std::int32_t off = offs[t];
        if (off < 0) {
          std::memset(sp, pad, static_cast<std::size_t>(in_c));
        } else {
          CopyTap<kBias>(sp, input + off, in_c);
        }
      }
    }
    if (k < lda) std::memset(drow + k, 0, static_cast<std::size_t>(lda - k));
  }
}

}  // namespace

void GatherPackBitpacked(const TBitpacked* input,
                         const gemm::IndirectionOffsets& ind,
                         const TBitpacked* zero_row, std::int64_t row0,
                         int tile_rows, int k_blocks, bool interior,
                         std::uint64_t* dst) {
  if (interior) {
    GatherPackWords<true>(input, ind, zero_row, 0, ind.words(), row0,
                          tile_rows, k_blocks, dst);
  } else {
    GatherPackWords<false>(input, ind, zero_row, 0, ind.words(), row0,
                           tile_rows, k_blocks, dst);
  }
}

void GatherPackBitpackedGroup(const TBitpacked* input,
                              const gemm::IndirectionOffsets& ind,
                              const TBitpacked* zero_row, int word_begin,
                              int word_count, std::int64_t row0, int tile_rows,
                              int k_blocks, bool interior, std::uint64_t* dst) {
  if (interior) {
    GatherPackWords<true>(input, ind, zero_row, word_begin, word_count, row0,
                          tile_rows, k_blocks, dst);
  } else {
    GatherPackWords<false>(input, ind, zero_row, word_begin, word_count, row0,
                           tile_rows, k_blocks, dst);
  }
}

void GatherPackInt8(const std::int8_t* input,
                    const gemm::IndirectionOffsets& ind, std::int8_t pad_value,
                    std::int64_t row0, int tile_rows, int k_blocks,
                    bool interior, std::int8_t* stage, std::int8_t* dst) {
  const int taps = ind.taps();
  const int in_c = ind.words();  // elems_per_pixel: bytes for int8 inputs
  const int k = taps * in_c;
  int staged = 0;  // rows actually gathered; the packer biased-zeroes the rest
  for (int r = 0; r < tile_rows; ++r) {
    const std::int64_t row = row0 + r;
    if (row >= ind.rows()) break;
    const std::int32_t* offs = ind.row(row);
    std::int8_t* sp = stage + static_cast<std::int64_t>(r) * k;
    if (interior) {
      for (int t = 0; t < taps; ++t, sp += in_c) {
        std::memcpy(sp, input + offs[t], static_cast<std::size_t>(in_c));
      }
    } else {
      for (int t = 0; t < taps; ++t, sp += in_c) {
        const std::int32_t off = offs[t];
        if (off < 0) {
          std::memset(sp, pad_value, static_cast<std::size_t>(in_c));
        } else {
          std::memcpy(sp, input + off, static_cast<std::size_t>(in_c));
        }
      }
    }
    ++staged;
  }
  gemm::Int8GemmPackLhsTile(stage, staged, k, 0, tile_rows, k_blocks,
                            /*bias=*/true, dst);
}

void GatherStageInt8Dot(const std::int8_t* input,
                        const gemm::IndirectionOffsets& ind,
                        std::int8_t pad_value, std::int64_t row0,
                        int tile_rows, int lda, bool interior, bool bias,
                        std::int8_t* dst) {
  if (bias) {
    GatherStageRows<true>(input, ind, pad_value, row0, tile_rows, lda,
                          interior, dst);
  } else {
    GatherStageRows<false>(input, ind, pad_value, row0, tile_rows, lda,
                           interior, dst);
  }
}

void GatherPackFloat(const float* input, const Conv2DGeometry& geo,
                     const float* pad_row, const float* zero_row,
                     std::int64_t row0, bool interior, float* dst) {
  if (interior) {
    GatherPackFloatRows<true>(input, geo, pad_row, zero_row, row0, dst);
  } else {
    GatherPackFloatRows<false>(input, geo, pad_row, zero_row, row0, dst);
  }
}

void PrefetchInt8GatherSources(const std::int8_t* input,
                               const gemm::IndirectionOffsets& ind,
                               std::int64_t row0, int tile_rows) {
#if defined(__GNUC__) || defined(__clang__)
  const int taps = ind.taps();
  const int in_c = ind.words();
  for (int r = 0; r < tile_rows; ++r) {
    const std::int64_t row = row0 + r;
    if (row >= ind.rows()) return;
    const std::int32_t* offs = ind.row(row);
    for (int t = 0; t < taps; ++t) {
      const std::int32_t off = offs[t];
      if (off < 0) continue;  // padded tap: nothing to fetch
      for (int b = 0; b < in_c; b += 64) {
        __builtin_prefetch(input + off + b, /*rw=*/0, /*locality=*/3);
      }
    }
  }
#else
  (void)input;
  (void)ind;
  (void)row0;
  (void)tile_rows;
#endif
}

}  // namespace lce::pipeline
