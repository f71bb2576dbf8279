#include "gemm/indirect_bgemm.h"

#include <limits>

#include "core/macros.h"

namespace lce::gemm {

IndirectionOffsets::IndirectionOffsets(const Conv2DGeometry& g)
    : IndirectionOffsets(g, BitpackedWords(g.in_c)) {}

IndirectionOffsets::IndirectionOffsets(const Conv2DGeometry& g,
                                       int elems_per_pixel) {
  words_ = elems_per_pixel;
  taps_ = g.filter_h * g.filter_w;
  const int out_h = g.out_h(), out_w = g.out_w();
  rows_ = static_cast<std::int64_t>(g.batch) * out_h * out_w;
  // Offsets are stored as int32 element indices; any input addressable
  // within that range is far beyond the resource limits of the
  // untrusted-model path, so this only guards the trusted
  // standalone-kernel API.
  LCE_CHECK(static_cast<std::int64_t>(g.batch) * g.in_h * g.in_w * words_ <=
            std::numeric_limits<std::int32_t>::max());
  offsets_.resize(static_cast<std::size_t>(rows_) * taps_);

  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  std::size_t idx = 0;
  for (int b = 0; b < g.batch; ++b) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        const int iy0 = oy * g.stride_h - pad_h;
        const int ix0 = ox * g.stride_w - pad_w;
        for (int ky = 0; ky < g.filter_h; ++ky) {
          const int iy = iy0 + ky;
          for (int kx = 0; kx < g.filter_w; ++kx) {
            const int ix = ix0 + kx;
            if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) {
              offsets_[idx++] = kPaddedTap;
            } else {
              offsets_[idx++] = static_cast<std::int32_t>(
                  ((static_cast<std::int64_t>(b) * g.in_h + iy) * g.in_w + ix) *
                  words_);
            }
          }
        }
      }
    }
  }
}

}  // namespace lce::gemm
