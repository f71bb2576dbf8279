// Gather/pack strategies of the ConvPipeline (policy seam #1): build a
// micro-kernel's A operand straight from the feature map through the
// prepare-time int32 indirection cache (gemm/indirect_bgemm.h), without
// materializing im2col patches.
//
// Three strategies, one per consumer family:
//   * GatherPackBitpacked  — word gather into plain row-major BGEMM rows
//     (BConv2D): each row is its taps' channel words back to back, exactly
//     an im2col patch row, which the BGEMM kernels read in place. A word
//     slice per pixel (`word_begin`, `word_count`) serves grouped BConv2D;
//     group boundaries fall on word boundaries by construction.
//   * GatherStageInt8Dot   — int8 patch rows staged for the dot-product
//     kernels (Conv2DInt8); padded taps read the input zero point, exactly
//     like Im2ColInt8.
//   * GatherPackFloat      — float gather into float-GEMM A-panels
//     (full-precision Conv2D); padded taps read the padding value.
//
// All take an `interior` flag from the shared TilePlan: interior tiles
// have no padded taps, so the gather skips the kPaddedTap sentinel check
// (or, for the float gather, the bounds check) entirely.
#ifndef LCE_KERNELS_PIPELINE_GATHER_PACK_H_
#define LCE_KERNELS_PIPELINE_GATHER_PACK_H_

#include <cstdint>

#include "core/types.h"
#include "gemm/indirect_bgemm.h"
#include "kernels/conv_params.h"

namespace lce::pipeline {

// Writes the patch rows of output positions [row0, row0 + tile_rows) to
// `dst`, row-major with leading dimension ind.taps() * word_count words:
// for each tap, `word_count` words starting at word `word_begin` of the
// tap pixel's ind.words()-word channel vector (the whole vector for an
// ungrouped convolution, one group's slice otherwise). The result equals
// the (sliced) bitpacked im2col rows, so gemm::BGemmComputeBlock consumes
// it directly. Padded taps read `zero_row` (at least `word_count` zero
// words = +1.0 one-padding). Rows past ind.rows() are not written. With
// `interior` set the padded-tap sentinel check is skipped (caller
// guarantees no padded taps, see pipeline/tile_plan.h).
void GatherPackBitpacked(const TBitpacked* input,
                         const gemm::IndirectionOffsets& ind,
                         const TBitpacked* zero_row, int word_begin,
                         int word_count, std::int64_t row0, int tile_rows,
                         bool interior, TBitpacked* dst);

// Int8 byte gather for every int8 tier (gemm/int8_isa.h): `ind` must have
// been built with elems_per_pixel = in_c (byte offsets). Stages
// `tile_rows` raw patch rows of taps*in_c bytes straight into `dst`,
// row-major with leading dimension `lda` (>= taps*in_c; the tail is
// zeroed so K-padding contributes nothing), filling padded taps with
// `pad_value` (the clamped input zero point). The dot kernels
// (gemm::Int8DotComputeStagedBlock) read these rows directly, with no
// panel interleave pass. Rows beyond ind.rows() are zeroed (they never
// reach the output). With `bias` set every gathered byte (padded taps
// included) is XORed with 0x80 on the way in: the +128 activation bias of
// the u8 x s8 kernels (VNNI and the portable loop;
// gemm::Int8DotRowsBiased), applied once here instead of per broadcast.
void GatherStageInt8Dot(const std::int8_t* input,
                        const gemm::IndirectionOffsets& ind,
                        std::int8_t pad_value, std::int64_t row0,
                        int tile_rows, int lda, bool interior, bool bias,
                        std::int8_t* dst);

// Float gather for the full-precision Conv2D: packs the gemm::kFloatMr
// patch rows starting at output position `row0` into one A-panel of the
// float GEMM ([taps*in_c][kFloatMr] interleaved; gemm/float_gemm.h), K
// ordered [tap][channel] exactly like float im2col. Source pixels are
// computed from `geo` directly: float layers are few and their
// (resolution, batch) variants many, so a per-variant tap table would cost
// more to build and hold than the address arithmetic it saves. Padded taps
// read `pad_row` (in_c copies of the padding value: 0 for SAME_ZERO, +1
// for SAME_ONE) and rows beyond the output read `zero_row` (in_c zeros).
// With `interior` set the bounds checks are skipped.
void GatherPackFloat(const float* input, const Conv2DGeometry& geo,
                     const float* pad_row, const float* zero_row,
                     std::int64_t row0, bool interior, float* dst);

// Software-prefetches the gather sources of rows [row0, row0+tile_rows):
// one prefetch per 64-byte line of each tap's channel vector. The int8
// TileCompute calls this one tile ahead of the gather, so the next tile's
// feature-map lines are already in flight while the current tile's dot
// products execute (the gather stage is the int8 path's main memory-
// latency exposure; see docs/PERFORMANCE.md).
void PrefetchInt8GatherSources(const std::int8_t* input,
                               const gemm::IndirectionOffsets& ind,
                               std::int64_t row0, int tile_rows);

}  // namespace lce::pipeline

#endif  // LCE_KERNELS_PIPELINE_GATHER_PACK_H_
