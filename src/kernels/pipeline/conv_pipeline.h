// ConvPipeline: the shared fused row-tile convolution engine (paper
// section 4 — the single-pass tiled pipeline), lifted out of BConv2D so
// every convolution variant (binary, grouped binary, binary depthwise,
// int8 PTQ, full-precision float) runs the same cache-resident structure:
//
//   shard output row tiles across the thread pool
//     -> per block of up to `block_tiles` tiles:
//          gather/pack (policy seam #1, pipeline/gather_pack.h)
//          micro-kernel block compute (policy seam #2: BGEMM tiers from
//            gemm/bgemm.h, int8 tiers from gemm/int8_gemm.h, bit-sliced
//            depthwise counters, or the float GEMM kernels of
//            gemm/float_gemm.h)
//          optional row correction (zero-padding fixup, skipped for
//            interior blocks via the shared TilePlan)
//          output transform (policy seam #3, pipeline/output_transform.h)
//     -> final output written directly; no full-image accumulator.
//
// The engine owns the sharding, the per-shard scratch carving (context
// slot 2), the interior/border block classification, the per-variant
// telemetry (`<variant>.fused_tiles`, `<variant>.interior_tiles`,
// `<variant>.fused_shard_imbalance_pct`) and the stage-time attribution
// that keeps the Table-4 gemm/transform split observable under fusion.
#ifndef LCE_KERNELS_PIPELINE_CONV_PIPELINE_H_
#define LCE_KERNELS_PIPELINE_CONV_PIPELINE_H_

#include <cstdint>

#include "gemm/context.h"
#include "kernels/pipeline/output_transform.h"
#include "kernels/pipeline/tile_plan.h"

namespace lce::pipeline {

// Wall-clock seconds spent in each stage of the last run; used by the
// profiler for the Table 4 accumulation-loop vs output-transform breakdown.
// (im2col covers any pre-stage: patch materialization or, for gather-based
// variants, nothing.)
struct ConvStageTimes {
  double im2col = 0.0;
  double gemm = 0.0;
  double transform = 0.0;
};

// Policy seam #2: computes one block of accumulator rows. Implementations
// wrap a gather/pack strategy plus a micro-kernel family (packed BGEMM,
// int8 GEMM, bit-sliced depthwise counters, packed float GEMM).
//
// `Acc` is the block accumulator's element type, agreed between the compute
// and the output transform: int32 for the binary and int8 variants, float
// for the full-precision Conv2D. The engine only carves and hands over the
// buffer, so any 4-byte type works.
template <typename Acc>
class BasicTileCompute {
 public:
  static_assert(sizeof(Acc) == 4, "block accumulators are 4-byte elements");
  virtual ~BasicTileCompute() = default;

  // Bytes of per-shard scratch a block of `block_tiles` tiles needs (0 is
  // fine). The engine hands back a 64-byte-aligned region of at least this
  // size; sub-carving is the implementation's business.
  virtual std::size_t ShardScratchBytes(int block_tiles) const = 0;

  // Fills `acc` (block_rows x out_c, row-major stride out_c) with the
  // accumulator rows for flattened output positions [row0, row0+block_rows),
  // i.e. tiles [tile0, tile0+block_tiles) of `plan`. Implementations may
  // query plan.interior(t) per tile to pick sentinel-free gather variants.
  virtual void ComputeBlock(std::int64_t tile0, int block_tiles,
                            std::int64_t row0, int block_rows,
                            const TilePlan& plan, gemm::KernelProfile profile,
                            std::uint8_t* scratch, Acc* acc) const = 0;
};
using TileCompute = BasicTileCompute<std::int32_t>;
using FloatTileCompute = BasicTileCompute<float>;

// Optional post-GEMM accumulator fixup (e.g. BConv2D's zero-padding
// correction). Only invoked for blocks containing at least one border tile.
template <typename Acc>
class BasicRowCorrector {
 public:
  virtual ~BasicRowCorrector() = default;
  virtual void Apply(Acc* acc, std::int64_t row0, std::int64_t nrows) const = 0;
};
using RowCorrector = BasicRowCorrector<std::int32_t>;

template <typename Acc>
struct BasicConvPipelineArgs {
  // Telemetry prefix: counters are `<variant>.fused_tiles` etc. Must point
  // at a string literal (cached by the registry on first use).
  const char* variant = "conv";
  int out_c = 0;
  int block_tiles = 16;
  const TilePlan* plan = nullptr;                     // required; also rows()
  const BasicTileCompute<Acc>* compute = nullptr;     // required
  const BasicRowCorrector<Acc>* corrector = nullptr;  // optional, border only
  const BasicOutputTransform<Acc>* transform = nullptr;  // required
  void* out = nullptr;  // start of the full output buffer
  // Pre-stage (im2col) interval for stage attribution; both zero when the
  // variant has no pre-stage or timing is off.
  std::uint64_t pre_t0 = 0, pre_t1 = 0;
};
using ConvPipelineArgs = BasicConvPipelineArgs<std::int32_t>;
using FloatConvPipelineArgs = BasicConvPipelineArgs<float>;

// Runs the fused pipeline. Scratch: context slot 2 (per-shard compute
// scratch + block accumulator; size independent of the image, unlike the
// legacy full-image accumulator paths). Instantiated for int32 and float
// accumulators.
template <typename Acc>
void RunConvPipeline(const BasicConvPipelineArgs<Acc>& args,
                     gemm::Context& ctx, ConvStageTimes* times);

extern template void RunConvPipeline<std::int32_t>(
    const BasicConvPipelineArgs<std::int32_t>&, gemm::Context&,
    ConvStageTimes*);
extern template void RunConvPipeline<float>(const BasicConvPipelineArgs<float>&,
                                            gemm::Context&, ConvStageTimes*);

}  // namespace lce::pipeline

#endif  // LCE_KERNELS_PIPELINE_CONV_PIPELINE_H_
