// Indirection-table unit tests: the geometry-only offsets the fused
// convolution gathers read (the gathered rows themselves are checked word
// for word against im2col in test_conv_pipeline.cc).
#include <gtest/gtest.h>

#include "gemm/indirect_bgemm.h"

namespace lce::gemm {
namespace {

Conv2DGeometry MakeGeo(int hw, int c, int k, int stride, Padding pad) {
  Conv2DGeometry g;
  g.in_h = g.in_w = hw;
  g.in_c = g.out_c = c;
  g.filter_h = g.filter_w = k;
  g.stride_h = g.stride_w = stride;
  g.padding = pad;
  return g;
}

TEST(IndirectionOffsets, PaddedTapsAreSentinels) {
  const IndirectionOffsets ind(MakeGeo(4, 32, 3, 1, Padding::kSameOne));
  EXPECT_EQ(ind.rows(), 16);
  EXPECT_EQ(ind.taps(), 9);
  EXPECT_EQ(ind.words(), 1);
  // Output (0,0), tap (0,0) reads (-1,-1): spatial padding.
  EXPECT_EQ(ind.row(0)[0], IndirectionOffsets::kPaddedTap);
  // Tap (1,1) reads (0,0): the first input word.
  EXPECT_EQ(ind.row(0)[4], 0);
}

TEST(IndirectionOffsets, StridedTapsPointAtStridedPixels) {
  const IndirectionOffsets ind(MakeGeo(8, 32, 3, 2, Padding::kValid));
  ASSERT_EQ(ind.rows(), 9);  // (8-3)/2+1 = 3 per axis
  // Output (1,1) tap (0,0) reads input pixel (2,2) = word 18.
  EXPECT_EQ(ind.row(1 * 3 + 1)[0], 18);
}

}  // namespace
}  // namespace lce::gemm
