#include "kernels/pipeline/gather_pack.h"

#include <algorithm>
#include <cstring>

#include "gemm/float_gemm.h"

namespace lce::pipeline {
namespace {

// Writes each row's tap slices back to back: row r of `dst` is the
// im2col patch row of output position row0 + r, taps * kWords words long.
// kWords > 0 fixes the slice width at compile time so each tap copy is a
// couple of moves rather than a memcpy call (the common power-of-two
// channel counts); kWords == 0 takes it from `word_count`. kInterior drops
// the padded-tap sentinel check.
template <bool kInterior, int kWords>
void GatherWords(const TBitpacked* input, const gemm::IndirectionOffsets& ind,
                 const TBitpacked* zero_row, int word_begin, int word_count,
                 std::int64_t row0, int tile_rows, TBitpacked* dst) {
  const int words = kWords > 0 ? kWords : word_count;
  const int taps = ind.taps();
  const std::int64_t rows =
      std::min<std::int64_t>(tile_rows, ind.rows() - row0);
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int32_t* offs = ind.row(row0 + r);
    for (int t = 0; t < taps; ++t, dst += words) {
      const std::int32_t off = offs[t];
      const TBitpacked* src =
          !kInterior && off < 0 ? zero_row : input + off + word_begin;
      std::memcpy(dst, src, static_cast<std::size_t>(words) * sizeof(*dst));
    }
  }
}

template <bool kInterior>
void GatherWordsAnyWidth(const TBitpacked* input,
                         const gemm::IndirectionOffsets& ind,
                         const TBitpacked* zero_row, int word_begin,
                         int word_count, std::int64_t row0, int tile_rows,
                         TBitpacked* dst) {
  switch (word_count) {
    case 1:
      return GatherWords<kInterior, 1>(input, ind, zero_row, word_begin,
                                       word_count, row0, tile_rows, dst);
    case 2:
      return GatherWords<kInterior, 2>(input, ind, zero_row, word_begin,
                                       word_count, row0, tile_rows, dst);
    case 4:
      return GatherWords<kInterior, 4>(input, ind, zero_row, word_begin,
                                       word_count, row0, tile_rows, dst);
    case 8:
      return GatherWords<kInterior, 8>(input, ind, zero_row, word_begin,
                                       word_count, row0, tile_rows, dst);
    case 16:
      return GatherWords<kInterior, 16>(input, ind, zero_row, word_begin,
                                        word_count, row0, tile_rows, dst);
    default:
      return GatherWords<kInterior, 0>(input, ind, zero_row, word_begin,
                                       word_count, row0, tile_rows, dst);
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
                         const TBitpacked* zero_row, int word_begin,
                         int word_count, std::int64_t row0, int tile_rows,
                         bool interior, TBitpacked* dst) {
  if (interior) {
    GatherWordsAnyWidth<true>(input, ind, zero_row, word_begin, word_count,
                              row0, tile_rows, dst);
  } else {
    GatherWordsAnyWidth<false>(input, ind, zero_row, word_begin, word_count,
                               row0, tile_rows, dst);
  }
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
