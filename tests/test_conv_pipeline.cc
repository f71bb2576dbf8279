// Unit tests for the shared ConvPipeline building blocks: the
// interior/border TilePlan and the gather-pack strategies
// (kernels/pipeline/). Each gather strategy is checked against the
// composition it replaces: the bitpacked gathers against im2col rows (full
// or sliced), which they must reproduce word for word, and the int8 gather
// against int8 im2col rows, raw and biased.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/bitpack.h"
#include "core/random.h"
#include "gemm/bgemm.h"
#include "gemm/indirect_bgemm.h"
#include "gemm/int8_gemm.h"
#include "kernels/im2col.h"
#include "kernels/pipeline/gather_pack.h"
#include "kernels/pipeline/tile_plan.h"
#include "kernels/reference.h"

namespace lce {
namespace {

// Brute-force interior predicate: every tap of the receptive field of
// flattened output position `pos` lies inside the image.
bool BruteForceRowInterior(const Conv2DGeometry& g, std::int64_t pos) {
  const int out_w = g.out_w(), out_h = g.out_h();
  const int ox = static_cast<int>(pos % out_w);
  const int oy = static_cast<int>((pos / out_w) % out_h);
  const int iy0 = oy * g.stride_h - g.pad_h_begin();
  const int ix0 = ox * g.stride_w - g.pad_w_begin();
  return iy0 >= 0 && iy0 + g.filter_h <= g.in_h && ix0 >= 0 &&
         ix0 + g.filter_w <= g.in_w;
}

Conv2DGeometry MakeGeo(int hw, int in_c, int k, int stride, Padding pad,
                       int batch = 1) {
  Conv2DGeometry g;
  g.batch = batch;
  g.in_h = g.in_w = hw;
  g.in_c = in_c;
  g.out_c = in_c;  // irrelevant for plans/gathers
  g.filter_h = g.filter_w = k;
  g.stride_h = g.stride_w = stride;
  g.padding = pad;
  return g;
}

TEST(TilePlan, MatchesBruteForce) {
  const struct {
    int hw, k, stride, batch;
    Padding pad;
  } cases[] = {
      {8, 3, 1, 1, Padding::kSameOne},  {8, 3, 1, 2, Padding::kSameZero},
      {9, 3, 2, 1, Padding::kSameZero}, {7, 5, 1, 1, Padding::kSameOne},
      {10, 3, 3, 1, Padding::kSameZero}, {6, 1, 1, 1, Padding::kValid},
      {12, 3, 2, 3, Padding::kSameOne},
  };
  for (const auto& c : cases) {
    const Conv2DGeometry g = MakeGeo(c.hw, 32, c.k, c.stride, c.pad, c.batch);
    for (const int tile_rows : {1, 2, 4}) {
      const pipeline::TilePlan plan(g, tile_rows);
      const std::int64_t rows = Im2ColRows(g);
      ASSERT_EQ(plan.rows(), rows);
      ASSERT_EQ(plan.num_tiles(), (rows + tile_rows - 1) / tile_rows);

      std::int64_t interior_count = 0;
      for (std::int64_t t = 0; t < plan.num_tiles(); ++t) {
        bool all_interior = true;
        for (int r = 0; r < tile_rows; ++r) {
          const std::int64_t pos = t * tile_rows + r;
          if (pos >= rows) break;  // tail rows past the end are ignored
          const bool brute = BruteForceRowInterior(g, pos);
          ASSERT_EQ(pipeline::TilePlan::RowInterior(g, pos), brute)
              << "hw=" << c.hw << " k=" << c.k << " pos=" << pos;
          all_interior = all_interior && brute;
        }
        ASSERT_EQ(plan.interior(t), all_interior)
            << "hw=" << c.hw << " k=" << c.k << " tile " << t;
        interior_count += all_interior ? 1 : 0;
      }
      ASSERT_EQ(plan.interior_tiles(), interior_count);

      // Prefix-sum range queries against a direct count.
      for (std::int64_t b = 0; b < plan.num_tiles(); b += 3) {
        for (std::int64_t e = b; e <= plan.num_tiles(); e += 5) {
          std::int64_t direct = 0;
          for (std::int64_t t = b; t < e; ++t) direct += plan.interior(t);
          ASSERT_EQ(plan.InteriorInRange(b, e), direct);
          ASSERT_EQ(plan.AllInterior(b, e), direct == e - b);
        }
      }
    }
  }
}

TEST(TilePlan, ValidPaddingIsAllInterior) {
  const Conv2DGeometry g = MakeGeo(9, 64, 3, 2, Padding::kValid);
  const pipeline::TilePlan plan(g, 4);
  EXPECT_EQ(plan.interior_tiles(), plan.num_tiles());
  EXPECT_TRUE(plan.AllInterior(0, plan.num_tiles()));
}

// Compares the gathered rows of one tile against the im2col rows they
// replace, word for word. Rows past the end of the image are not gathered
// and not compared.
void ExpectTileMatches(const std::vector<TBitpacked>& got,
                       const std::vector<TBitpacked>& patches,
                       std::int64_t rows, int kw, std::int64_t row0,
                       const char* what, std::int64_t t) {
  const std::int64_t n = std::min<std::int64_t>(gemm::kBgemmMr, rows - row0);
  ASSERT_EQ(std::memcmp(got.data(), patches.data() + row0 * kw,
                        static_cast<std::size_t>(n) * kw * sizeof(TBitpacked)),
            0)
      << what << ", tile " << t;
}

// Gathers every tile of the geometry and compares it with the im2col rows,
// through both the checked and (on interior tiles) the sentinel-free path.
void CheckGatherMatchesIm2Col(const Conv2DGeometry& g) {
  Rng rng(g.in_h * 31 + g.filter_h * 7 + g.in_c);
  Tensor in_f(DataType::kFloat32, Shape{g.batch, g.in_h, g.in_w, g.in_c});
  FillSigns(in_f, rng);
  Tensor in_b(DataType::kBitpacked, in_f.shape());
  BitpackTensor(in_f, in_b);

  const std::int64_t rows = Im2ColRows(g);
  const int patch_words = Im2ColDepthBitpacked(g);
  std::vector<TBitpacked> patches(static_cast<std::size_t>(rows) *
                                  patch_words);
  Im2ColBitpacked(in_b.data<TBitpacked>(), g, patches.data());

  const gemm::IndirectionOffsets ind(g);
  const int words = BitpackedWords(g.in_c);
  std::vector<TBitpacked> zero_row(words, 0);
  const pipeline::TilePlan plan(g, gemm::kBgemmMr);

  std::vector<TBitpacked> got(static_cast<std::size_t>(gemm::kBgemmMr) *
                              patch_words);
  for (std::int64_t t = 0; t < plan.num_tiles(); ++t) {
    const std::int64_t row0 = t * gemm::kBgemmMr;
    // The checked (non-interior) gather must match everywhere...
    pipeline::GatherPackBitpacked(in_b.data<TBitpacked>(), ind,
                                  zero_row.data(), 0, words, row0,
                                  gemm::kBgemmMr, /*interior=*/false,
                                  got.data());
    ExpectTileMatches(got, patches, rows, patch_words, row0, "checked gather",
                      t);
    // ...and the sentinel-free interior variant on interior tiles.
    if (plan.interior(t)) {
      std::fill(got.begin(), got.end(), 0xdeadbeefu);
      pipeline::GatherPackBitpacked(in_b.data<TBitpacked>(), ind,
                                    zero_row.data(), 0, words, row0,
                                    gemm::kBgemmMr, /*interior=*/true,
                                    got.data());
      ExpectTileMatches(got, patches, rows, patch_words, row0,
                        "interior gather", t);
    }
  }
}

TEST(GatherPack, EvenWordsMatchesIm2Col) {
  // 64 channels = 2 words, 128 channels = 4 words.
  CheckGatherMatchesIm2Col(MakeGeo(9, 64, 3, 1, Padding::kSameOne));
  CheckGatherMatchesIm2Col(MakeGeo(8, 128, 3, 2, Padding::kSameOne));
}

TEST(GatherPack, OddWordsMatchesIm2Col) {
  // in_c = 32 (mod 64) gives an odd per-pixel word count, so a 3x3 patch row
  // ends in half a K word that the BGEMM reads zero-extended: 32 channels =
  // 1 word, 96 = 3 words, 160 = 5 words (a width with no fixed-size copy).
  CheckGatherMatchesIm2Col(MakeGeo(9, 32, 3, 1, Padding::kSameOne));
  CheckGatherMatchesIm2Col(MakeGeo(7, 96, 5, 1, Padding::kSameOne));
  CheckGatherMatchesIm2Col(MakeGeo(7, 160, 3, 1, Padding::kSameZero));
}

TEST(GatherPack, GiantPatchRowMatchesIm2Col) {
  // Patch rows over 1024 words: 96 channels = 3 words with a 19x19 filter
  // gives 361 taps * 3 = 1083 words (odd), and 64 channels with a 23x23
  // filter 1058 words (even). One-padding makes border tiles exercise the
  // sentinel path too.
  CheckGatherMatchesIm2Col(MakeGeo(19, 96, 19, 1, Padding::kSameOne));
  CheckGatherMatchesIm2Col(MakeGeo(23, 64, 23, 1, Padding::kSameOne));
}

TEST(GatherPack, BatchedMatchesIm2Col) {
  CheckGatherMatchesIm2Col(MakeGeo(6, 64, 3, 1, Padding::kSameOne, /*batch=*/3));
}

TEST(GatherPack, InteriorAndBorderTilesMatchIm2Col) {
  // Geometries whose row tiles include both interior tiles (sentinel-free
  // gather) and border tiles, for even and odd word counts and batches.
  for (const Conv2DGeometry& g :
       {MakeGeo(14, 64, 3, 1, Padding::kSameOne),
        MakeGeo(14, 96, 3, 1, Padding::kSameZero),
        MakeGeo(13, 32, 3, 1, Padding::kSameOne, /*batch=*/2)}) {
    const pipeline::TilePlan plan(g, gemm::kBgemmMr);
    EXPECT_GT(plan.interior_tiles(), 0) << "in_c=" << g.in_c;
    EXPECT_LT(plan.interior_tiles(), plan.num_tiles()) << "in_c=" << g.in_c;
    CheckGatherMatchesIm2Col(g);
  }
}

TEST(GatherPack, GroupSliceMatchesGroupIm2Col) {
  // Grouped gather vs the sliced im2col the legacy grouped path uses. Group
  // word counts of 1 (32 ch/group, odd), 2 (64 ch/group) and 3 (96 ch/group)
  // cover fixed-width and runtime-width slices.
  const struct {
    int in_c, groups;
  } cases[] = {{64, 2}, {128, 4}, {128, 2}, {96, 3}, {192, 2}};
  for (const auto& c : cases) {
    Conv2DGeometry g = MakeGeo(8, c.in_c, 3, 1, Padding::kSameOne);
    Rng rng(c.in_c * 5 + c.groups);
    Tensor in_f(DataType::kFloat32, Shape{1, g.in_h, g.in_w, g.in_c});
    FillSigns(in_f, rng);
    Tensor in_b(DataType::kBitpacked, in_f.shape());
    BitpackTensor(in_f, in_b);

    const std::int64_t rows = Im2ColRows(g);
    const int total_words = BitpackedWords(g.in_c);
    const int group_words = total_words / c.groups;
    const int taps = g.filter_h * g.filter_w;
    const int group_kw = taps * group_words;

    const gemm::IndirectionOffsets ind(g);
    std::vector<TBitpacked> zero_row(group_words, 0);
    const pipeline::TilePlan plan(g, gemm::kBgemmMr);
    std::vector<TBitpacked> group_patches(static_cast<std::size_t>(rows) *
                                          group_kw);
    std::vector<TBitpacked> got(static_cast<std::size_t>(gemm::kBgemmMr) *
                                group_kw);

    for (int grp = 0; grp < c.groups; ++grp) {
      Im2ColBitpackedGroup(in_b.data<TBitpacked>(), g, total_words,
                           grp * group_words, group_words,
                           group_patches.data());
      for (std::int64_t t = 0; t < plan.num_tiles(); ++t) {
        const std::int64_t row0 = t * gemm::kBgemmMr;
        pipeline::GatherPackBitpacked(in_b.data<TBitpacked>(), ind,
                                      zero_row.data(), grp * group_words,
                                      group_words, row0, gemm::kBgemmMr,
                                      plan.interior(t), got.data());
        const std::int64_t n =
            std::min<std::int64_t>(gemm::kBgemmMr, rows - row0);
        ASSERT_EQ(
            std::memcmp(got.data(), group_patches.data() + row0 * group_kw,
                        static_cast<std::size_t>(n) * group_kw *
                            sizeof(TBitpacked)),
            0)
            << "in_c=" << c.in_c << " groups=" << c.groups << " grp=" << grp
            << " tile " << t;
      }
    }
  }
}

TEST(GatherPack, Int8MatchesIm2Col) {
  // GatherStageInt8Dot against Im2ColInt8: raw and biased (XOR 0x80) rows,
  // K-padding bytes [k, lda) and rows past the image zeroed, through the
  // checked gather on every tile and the sentinel-free one on interior
  // tiles.
  const struct {
    int hw, in_c, k, stride;
    Padding pad;
    int batch;
  } cases[] = {
      {8, 16, 3, 1, Padding::kSameZero, 1},
      {9, 24, 3, 2, Padding::kSameZero, 1},
      {6, 8, 1, 1, Padding::kValid, 1},
      {11, 3, 7, 2, Padding::kSameZero, 1},  // K = 147: one padding byte
      {7, 5, 3, 1, Padding::kSameZero, 2},   // K = 45, 98 rows over 2 images
  };
  std::int64_t interior_tiles = 0, border_tiles = 0;
  for (const auto& c : cases) {
    const Conv2DGeometry g =
        MakeGeo(c.hw, c.in_c, c.k, c.stride, c.pad, c.batch);
    Rng rng(c.hw + c.in_c);
    Tensor in(DataType::kInt8, Shape{c.batch, g.in_h, g.in_w, g.in_c});
    FillInt8(in, rng);
    const std::int8_t pad_value = 3;  // a nonzero input zero point

    const std::int64_t rows = Im2ColRows(g);
    const int depth = Im2ColDepthFloat(g);
    const int lda = (depth + gemm::kInt8DotKg - 1) / gemm::kInt8DotKg *
                    gemm::kInt8DotKg;
    std::vector<std::int8_t> patches(static_cast<std::size_t>(rows) * depth);
    Im2ColInt8(in.data<std::int8_t>(), g, pad_value, patches.data());

    const gemm::IndirectionOffsets ind(g, g.in_c);
    const pipeline::TilePlan plan(g, gemm::kInt8Mr);
    interior_tiles += plan.interior_tiles();
    border_tiles += plan.num_tiles() - plan.interior_tiles();
    std::vector<std::int8_t> got(static_cast<std::size_t>(gemm::kInt8Mr) *
                                 lda);
    for (const bool bias : {false, true}) {
      const int flip = bias ? 0x80 : 0;
      for (std::int64_t t = 0; t < plan.num_tiles(); ++t) {
        const std::int64_t row0 = t * gemm::kInt8Mr;
        for (const bool interior : {false, true}) {
          if (interior && !plan.interior(t)) continue;
          std::fill(got.begin(), got.end(), std::int8_t{0x5a});
          pipeline::GatherStageInt8Dot(in.data<std::int8_t>(), ind, pad_value,
                                       row0, gemm::kInt8Mr, lda, interior,
                                       bias, got.data());
          for (int r = 0; r < gemm::kInt8Mr; ++r) {
            for (int kk = 0; kk < lda; ++kk) {
              const std::int64_t row = row0 + r;
              const std::int8_t expected =
                  row < rows && kk < depth
                      ? static_cast<std::int8_t>(patches[row * depth + kk] ^
                                                 flip)
                      : std::int8_t{0};
              ASSERT_EQ(got[static_cast<std::size_t>(r) * lda + kk], expected)
                  << "hw=" << c.hw << " in_c=" << c.in_c
                  << " batch=" << c.batch << " bias=" << bias
                  << " interior=" << interior << " tile " << t << " row "
                  << r << " byte " << kk;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(interior_tiles, 0);
  EXPECT_GT(border_tiles, 0);
}

}  // namespace
}  // namespace lce
