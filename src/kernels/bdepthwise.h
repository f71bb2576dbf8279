// Binarized depthwise convolution (extension): the depthwise analogue of
// LceBConv2d, needed for MobileNet-style BNNs (e.g. MoBiNet, referenced by
// the paper).
//
// A depthwise binary convolution cannot use BGEMM: each channel accumulates
// its own taps independently, so the reduction runs *across filter taps
// within a bit lane* rather than across packed words. The kernel uses
// bit-sliced arithmetic: XOR gives the per-lane product bits tap by tap,
// and a ripple-carry adder over counter bit-planes accumulates 32 channel
// counters in parallel per word -- a vertical popcount. With T taps the
// per-channel dot is T - 2*count.
//
// Execution runs through the shared fused row-tile engine
// (kernels/pipeline/conv_pipeline.h): the bit-sliced counter is the
// micro-kernel policy, the taps are resolved through the prepare-time
// indirection cache, and the shared float output transform applies the
// fused multiplier/bias per cache-resident tile. The retired single-threaded
// full-image loop is the test and benchmark oracle RefBDepthwiseConv2D in
// kernels/reference.h.
#ifndef LCE_KERNELS_BDEPTHWISE_H_
#define LCE_KERNELS_BDEPTHWISE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/tensor.h"
#include "core/types.h"
#include "gemm/context.h"
#include "gemm/indirect_bgemm.h"
#include "kernels/conv_params.h"
#include "kernels/pipeline/conv_pipeline.h"

namespace lce {

struct BDepthwiseConv2DAttrs {
  Conv2DGeometry geo;  // out_c must equal in_c; padding kSameOne or kValid
  // Per-channel fused multiplier/bias applied to the integer dot (batch-norm
  // fusion, as in LceBConv2d). Empty means 1 / 0.
  std::vector<float> multiplier;
  std::vector<float> bias;
};

// Bit-sliced counter over up to 15 taps: four bit-planes of 32 lane-wise
// counters. Incrementing by the bits of `x` is a ripple-carry add of a
// one-bit number into the 4-bit planes.
struct BitSlicedCounter {
  TBitpacked plane[4] = {0, 0, 0, 0};

  inline void Add(TBitpacked x) {
    TBitpacked carry = x;
    for (int p = 0; p < 4 && carry != 0; ++p) {
      const TBitpacked sum = plane[p] ^ carry;
      carry &= plane[p];
      plane[p] = sum;
    }
  }

  inline int Count(int bit) const {
    return static_cast<int>((plane[0] >> bit) & 1u) |
           (static_cast<int>((plane[1] >> bit) & 1u) << 1) |
           (static_cast<int>((plane[2] >> bit) & 1u) << 2) |
           (static_cast<int>((plane[3] >> bit) & 1u) << 3);
  }
};

class BDepthwiseConv2D {
 public:
  // Output rows per pipeline tile. The kernel runs no BGEMM, so its tiling
  // is its own: a BGEMM register-shape change must not re-tile it.
  static constexpr int kTileRows = 4;

  // weights: float [filter_h][filter_w][channels] with +/-1 values.
  BDepthwiseConv2D(const float* weights, BDepthwiseConv2DAttrs attrs);

  // input: bitpacked NHWC; output: float NHWC.
  // scratch usage: context slot 2 (per-shard row-tile accumulator).
  void Run(const Tensor& input, Tensor& output, gemm::Context& ctx,
           pipeline::ConvStageTimes* times = nullptr) const;

  const BDepthwiseConv2DAttrs& attrs() const { return attrs_; }

 private:
  friend class BDepthwiseTileCompute;

  BDepthwiseConv2DAttrs attrs_;
  // Bitpacked weights, [filter_h*filter_w][words(channels)].
  std::vector<TBitpacked> packed_weights_;
  // Pipeline state, built once at construction: tap offsets, one-padding
  // source row, interior/border tile classification and the shared float
  // output transform.
  gemm::IndirectionOffsets indirection_;
  std::vector<TBitpacked> zero_row_;
  pipeline::TilePlan tile_plan_;
  std::unique_ptr<pipeline::OutputTransform> transform_;
};

}  // namespace lce

#endif  // LCE_KERNELS_BDEPTHWISE_H_
