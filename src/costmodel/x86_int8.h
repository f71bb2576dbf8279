// Analytical x86 instruction cost model for the int8 convolution tiers
// (gemm/int8_isa.h): the AVX-512 VNNI and AVX2 dot-product kernels and the
// portable loop. Companion to the
// Cortex-A76 model (costmodel/cortex_a76.h), which covers the paper's
// Table 1; this file explains *which* int8 micro-kernel should win on a
// given x86 core and by how much, and backs the tier-selection order of
// BestInt8Tier().
//
// Port model: a Skylake-X/Ice Lake-class core with three vector issue
// ports. SIMD integer multiply-add (vpdpbusd, vpmaddwd, vpmaddubsw) issues
// on ports 0 and 1; shuffles and broadcasts are restricted to port 5;
// bitwise logic and integer add go to any of the three. Throughputs are
// from the Intel optimization manual / uops.info; the exact numbers matter
// less than the structural result that the saturation-safe AVX2 kernel
// spends most of its issue slots on masking, pairwise widening and adds
// while vpdpbusd folds the multiply, widen, and accumulate into one
// port-0/1 instruction.
#ifndef LCE_COSTMODEL_X86_INT8_H_
#define LCE_COSTMODEL_X86_INT8_H_

#include <cstdint>
#include <string>
#include <vector>

#include "costmodel/cortex_a76.h"  // InstrSpec

namespace lce::costmodel {

// The x86 vector instruction classes used by the int8 MAC sequences.
// InstrSpec::port_mask bits here mean: bit 0 = port 0, bit 1 = port 1,
// bit 2 = port 5.
const InstrSpec& Vpdpbusd();     // VNNI: 4-way u8 x s8 dot + i32 accumulate
const InstrSpec& Vpmaddubsw();   // u8 x s8 -> pairwise i16 (saturating)
const InstrSpec& Vpmaddwd();     // i16 x i16 -> pairwise i32
const InstrSpec& Vpand();        // bitwise logic (even/odd byte masking)
const InstrSpec& Vpaddd();       // i32 vector add
const InstrSpec& Vpbroadcastd(); // 4-byte activation group broadcast

// Modeled int8 micro-kernel tiers; they map 1:1 onto the x86 values of
// gemm::Int8Tier.
enum class X86Int8Tier {
  kScalar,
  kDotAvx2,
  kVnni,
};

struct Int8TierAnalysis {
  X86Int8Tier tier;
  std::vector<std::string> instruction_names;  // unique instruction classes
  int instructions = 0;  // instructions per 256-MAC unit sequence
  int macs = 0;          // always 256 for the SIMD tiers
  double cycles = 0.0;   // port-scheduled cycle count of the unit sequence
  double macs_per_cycle = 0.0;
};

// Builds and schedules the canonical inner-loop sequence of each tier,
// normalized to 256 MACs (16 output channels x 16 K bytes):
//  * vnni         : 4 vpbroadcastd + 4 vpdpbusd
//  * dot-avx2     : 4 vpbroadcastd + 16 vpand + 16 vpmaddubsw +
//                   16 vpmaddwd + 16 vpaddd  (even/odd split, 2 ymm halves)
//  * scalar       : modeled flat at 1 MAC/cycle
Int8TierAnalysis AnalyzeInt8Tier(X86Int8Tier tier);

// Cycle count of a sequence under the three-port greedy scheduler: each
// cycle each port issues at most one instruction, most-constrained
// (fewest-allowed-ports) instructions first, plus one drain cycle for the
// dependent reduction tail.
double ScheduleCyclesX86(const std::vector<const InstrSpec*>& sequence);

// Predicted cycles for an m x n x k int8 convolution GEMM (m = output
// pixels, n = output channels, k = patch depth) on one core: the MAC
// throughput above plus the row-staging memcpy every tier pays. The
// staging constant is calibrated to the microbenchmarks in
// bench_int8_dotprod.cc, not derived.
double PredictInt8LayerCycles(X86Int8Tier tier, std::int64_t m,
                              std::int64_t n, std::int64_t k);

// Convenience ratio: PredictInt8LayerCycles(baseline, ...) /
// PredictInt8LayerCycles(candidate, ...).
double PredictedInt8Speedup(X86Int8Tier baseline, X86Int8Tier candidate,
                            std::int64_t m, std::int64_t n, std::int64_t k);

const char* X86Int8TierName(X86Int8Tier tier);

}  // namespace lce::costmodel

#endif  // LCE_COSTMODEL_X86_INT8_H_
