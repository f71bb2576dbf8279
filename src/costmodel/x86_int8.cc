#include "costmodel/x86_int8.h"

#include <cmath>

#include "core/macros.h"

namespace lce::costmodel {
namespace {

constexpr std::uint8_t kP0 = 1, kP1 = 2, kP5 = 4;
constexpr std::uint8_t kP01 = kP0 | kP1;
constexpr std::uint8_t kAny = kP0 | kP1 | kP5;

int PopCount3(std::uint8_t mask) {
  return (mask & 1) + ((mask >> 1) & 1) + ((mask >> 2) & 1);
}

}  // namespace

// SIMD integer multiply-adds issue on ports 0 and 1 (throughput 2);
// shuffles/broadcasts are port-5-only (throughput 1);
// logic and adds go anywhere (throughput 3).
const InstrSpec& Vpdpbusd() {
  static const InstrSpec s{"vpdpbusd", 2.0, kP01};
  return s;
}
const InstrSpec& Vpmaddubsw() {
  static const InstrSpec s{"vpmaddubsw", 2.0, kP01};
  return s;
}
const InstrSpec& Vpmaddwd() {
  static const InstrSpec s{"vpmaddwd", 2.0, kP01};
  return s;
}
const InstrSpec& Vpand() {
  static const InstrSpec s{"vpand", 3.0, kAny};
  return s;
}
const InstrSpec& Vpaddd() {
  static const InstrSpec s{"vpaddd", 3.0, kAny};
  return s;
}
const InstrSpec& Vpbroadcastd() {
  static const InstrSpec s{"vpbroadcastd", 1.0, kP5};
  return s;
}

double ScheduleCyclesX86(const std::vector<const InstrSpec*>& sequence) {
  // Remaining instruction count per port mask (masks are 3-bit).
  int remaining[8] = {0};
  int total = 0;
  for (const InstrSpec* i : sequence) {
    LCE_CHECK(i->port_mask >= 1 && i->port_mask <= 7);
    ++remaining[i->port_mask];
    ++total;
  }
  int cycles = 0;
  while (total > 0) {
    ++cycles;
    for (std::uint8_t port = 1; port <= 4; port <<= 1) {
      // Among masks this port can serve, issue the most-constrained
      // (fewest allowed ports) first -- the same greedy the A76 scheduler
      // uses, generalized to three ports.
      int best_mask = -1;
      for (int mask = 1; mask <= 7; ++mask) {
        if (!(mask & port) || remaining[mask] == 0) continue;
        if (best_mask < 0 || PopCount3(static_cast<std::uint8_t>(mask)) <
                                 PopCount3(static_cast<std::uint8_t>(best_mask))) {
          best_mask = mask;
        }
      }
      if (best_mask >= 0) {
        --remaining[best_mask];
        --total;
      }
    }
  }
  return cycles + 1;  // +1 drain cycle for the dependent tail
}

Int8TierAnalysis AnalyzeInt8Tier(X86Int8Tier tier) {
  Int8TierAnalysis a;
  a.tier = tier;
  a.macs = 256;  // 16 output channels x 16 K bytes
  std::vector<const InstrSpec*> seq;
  switch (tier) {
    case X86Int8Tier::kScalar:
      // Portable dot loop: one multiply-accumulate per cycle is
      // generous (load + sext + imul + add), but the point of the scalar
      // row is its order of magnitude, not its third digit.
      a.instruction_names = {"scalar mac"};
      a.instructions = 256;
      a.cycles = 256.0;
      a.macs_per_cycle = 1.0;
      return a;
    case X86Int8Tier::kVnni:
      // 4 K-groups of 16 channels: one broadcast + one vpdpbusd per group
      // does multiply, widen, 4-way reduce, and i32 accumulate in a single
      // port-0/1 instruction. Port 5 (broadcast) is the critical resource.
      a.instruction_names = {"vpbroadcastd", "vpdpbusd"};
      for (int i = 0; i < 4; ++i) seq.push_back(&Vpbroadcastd());
      for (int i = 0; i < 4; ++i) seq.push_back(&Vpdpbusd());
      break;
    case X86Int8Tier::kDotAvx2:
      // The saturation-safe AVX2 dot kernel (gemm/int8_gemm.cc): per
      // 4-byte K-group and 16 channels (two ymm halves), the even/odd
      // byte split costs 2 vpand + 2 vpmaddubsw + 2 vpmaddwd + 2 vpaddd
      // per half; 4 groups -> 16 of each, plus one broadcast per group.
      a.instruction_names = {"vpbroadcastd", "vpand", "vpmaddubsw",
                             "vpmaddwd", "vpaddd"};
      for (int i = 0; i < 4; ++i) seq.push_back(&Vpbroadcastd());
      for (int i = 0; i < 16; ++i) seq.push_back(&Vpand());
      for (int i = 0; i < 16; ++i) seq.push_back(&Vpmaddubsw());
      for (int i = 0; i < 16; ++i) seq.push_back(&Vpmaddwd());
      for (int i = 0; i < 16; ++i) seq.push_back(&Vpaddd());
      break;
  }
  a.instructions = static_cast<int>(seq.size());
  a.cycles = ScheduleCyclesX86(seq);
  a.macs_per_cycle = static_cast<double>(a.macs) / a.cycles;
  return a;
}

namespace {

// Per-byte data-movement overhead outside the MAC loop, in cycles/byte:
// every tier stages raw patch rows with memcpy (~0.25 cycles/byte).
constexpr double kRowStageCyclesPerByte = 0.25;

}  // namespace

double PredictInt8LayerCycles(X86Int8Tier tier, std::int64_t m,
                              std::int64_t n, std::int64_t k) {
  const double macs = static_cast<double>(m) * n * k;
  return macs / AnalyzeInt8Tier(tier).macs_per_cycle +
         static_cast<double>(m) * k * kRowStageCyclesPerByte;
}

double PredictedInt8Speedup(X86Int8Tier baseline, X86Int8Tier candidate,
                            std::int64_t m, std::int64_t n, std::int64_t k) {
  return PredictInt8LayerCycles(baseline, m, n, k) /
         PredictInt8LayerCycles(candidate, m, n, k);
}

const char* X86Int8TierName(X86Int8Tier tier) {
  switch (tier) {
    case X86Int8Tier::kScalar:
      return "scalar";
    case X86Int8Tier::kDotAvx2:
      return "dot-avx2";
    case X86Int8Tier::kVnni:
      return "vnni";
  }
  return "?";
}

}  // namespace lce::costmodel
