// Indirect BGEMM: binarized convolution without im2col (the second kernel
// family in the upstream LCE codebase).
//
// Instead of materializing [out_pixels][fh*fw*words] patch rows, a setup
// step builds an *indirection table* -- one entry per (output pixel, filter
// tap) -- into the bitpacked input feature map, with padded taps marked by a
// sentinel. The table is stored as input-relative word offsets, so it
// depends only on the convolution geometry: BConv2D builds it once at
// prepare time (CompiledModel::Compile) and every Invoke rebases offsets to
// pointers on the fly while gathering. This trades the im2col copy for
// indirect loads; it wins whenever the patch buffer round-trip would cost
// more than the gather.
//
// The table's only consumers are the gather/pack strategies in
// kernels/pipeline/gather_pack.h, which build micro-kernel A operands
// straight from the feature map inside the fused ConvPipeline of BConv2D
// (grouped included), BDepthwiseConv2D and Conv2DInt8. For BConv2D, that
// gather feeding the packed BGEMM kernels (gemm/bgemm.h) is the indirect
// BGEMM.
#ifndef LCE_GEMM_INDIRECT_BGEMM_H_
#define LCE_GEMM_INDIRECT_BGEMM_H_

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "kernels/conv_params.h"

namespace lce::gemm {

// Geometry-only indirection table: for every (output position, filter tap),
// the element offset of the source pixel's channel vector in the NHWC
// input, or kPaddedTap for taps that fall outside the image. Built once per
// convolution (the geometry, including batch, is fixed at prepare time) and
// shared read-only by all invocations and shards.
//
// The element stride is the per-pixel channel-vector length: words(in_c)
// for bitpacked inputs (the default constructor), or any caller-chosen
// stride -- Conv2DInt8 builds byte offsets with elems_per_pixel = in_c.
class IndirectionOffsets {
 public:
  // Sentinel for taps reading spatial padding.
  static constexpr std::int32_t kPaddedTap = -1;

  IndirectionOffsets() = default;
  // Bitpacked default: offsets are word indices (elems = words(in_c)).
  explicit IndirectionOffsets(const Conv2DGeometry& geo);
  // General stride: offsets are elems_per_pixel * pixel_index.
  IndirectionOffsets(const Conv2DGeometry& geo, int elems_per_pixel);

  bool empty() const { return offsets_.empty(); }
  std::int64_t rows() const { return rows_; }  // batch * out_h * out_w
  int taps() const { return taps_; }           // filter_h * filter_w
  // Elements per pixel: words(in_c) for bitpacked inputs, the constructor's
  // elems_per_pixel otherwise (e.g. in_c bytes for int8 inputs).
  int words() const { return words_; }
  // Offsets for output position r: taps() entries.
  const std::int32_t* row(std::int64_t r) const {
    return offsets_.data() + r * taps_;
  }

 private:
  std::int64_t rows_ = 0;
  int taps_ = 0, words_ = 0;
  std::vector<std::int32_t> offsets_;  // [rows][taps]
};

}  // namespace lce::gemm

#endif  // LCE_GEMM_INDIRECT_BGEMM_H_
