// im2col geometry: the shape of a convolution's GEMM LHS (paper section
// 3.2) -- one patch row per output position, each patch laid out
// [filter_h][filter_w][channels] to match OHWI weights flattened per output
// channel. The production kernels gather these rows per tile through the
// indirection cache (kernels/pipeline/gather_pack.h) and never materialize
// the full matrix; the patch-materializing Im2Col* functions live with the
// full-image oracles in kernels/reference.h.
#ifndef LCE_KERNELS_IM2COL_H_
#define LCE_KERNELS_IM2COL_H_

#include <cstdint>

#include "core/types.h"
#include "kernels/conv_params.h"

namespace lce {

// Patch rows: one per output position.
inline std::int64_t Im2ColRows(const Conv2DGeometry& g) {
  return static_cast<std::int64_t>(g.batch) * g.out_h() * g.out_w();
}
// Patch row length in elements (float / int8 inputs).
inline int Im2ColDepthFloat(const Conv2DGeometry& g) {
  return g.filter_h * g.filter_w * g.in_c;
}
// Patch row length in bitpacked words.
inline int Im2ColDepthBitpacked(const Conv2DGeometry& g) {
  return g.filter_h * g.filter_w * BitpackedWords(g.in_c);
}

}  // namespace lce

#endif  // LCE_KERNELS_IM2COL_H_
