#include "gemm/int8_isa.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace lce::gemm {
namespace {

#if defined(__x86_64__) || defined(__i386__)

// XCR0 via raw xgetbv: <immintrin.h>'s _xgetbv needs -mxsave, and CPUID
// already guaranteed OSXSAVE before this is called.
unsigned long long Xcr0() {
  unsigned int lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (static_cast<unsigned long long>(hi) << 32) | lo;
}

bool OsSavesYmm() {
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  if (!(ecx & (1u << 27))) return false;  // OSXSAVE
  return (Xcr0() & 0x6) == 0x6;           // xmm + ymm state
}

bool OsSavesZmm() {
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  if (!(ecx & (1u << 27))) return false;   // OSXSAVE
  return (Xcr0() & 0xe6) == 0xe6;          // xmm + ymm + opmask + zmm state
}

// Leaf 7 subleaf 0: EBX bit 5 = AVX2, EBX bit 30 = AVX512BW,
// ECX bit 11 = AVX512_VNNI.
bool CpuHasAvx2() {
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 5)) != 0 && OsSavesYmm();
}

bool CpuHasVnni() {
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  // The VNNI kernel also assumes AVX-512BW-era 512-bit integer ops.
  if (!(ebx & (1u << 30))) return false;  // AVX512BW
  if (!(ecx & (1u << 11))) return false;  // AVX512_VNNI
  return OsSavesZmm();
}

#endif  // x86

std::atomic<int> g_tier_override{0};

int ParseForcedTier(const char* s) {
  if (s == nullptr || *s == '\0') return 0;
  if (std::strcmp(s, "scalar") == 0) return static_cast<int>(Int8Tier::kScalar);
  if (std::strcmp(s, "avx2dot") == 0) {
    return static_cast<int>(Int8Tier::kAvx2Dot);
  }
  if (std::strcmp(s, "neondot") == 0 || std::strcmp(s, "sdot") == 0) {
    return static_cast<int>(Int8Tier::kNeonDot);
  }
  if (std::strcmp(s, "vnni") == 0) return static_cast<int>(Int8Tier::kVnni);
  return 0;  // unknown: ignored, BestInt8Tier() decides
}

}  // namespace

bool Int8TierAvailable(Int8Tier tier) {
  switch (tier) {
    case Int8Tier::kScalar:
      return true;
    case Int8Tier::kAvx2Dot:
#if defined(__AVX2__)
      return CpuHasAvx2();
#else
      return false;
#endif
    case Int8Tier::kNeonDot:
#if defined(__ARM_NEON) && defined(__ARM_FEATURE_DOTPROD)
      return true;
#else
      return false;
#endif
    case Int8Tier::kVnni:
#if defined(__AVX512VNNI__)
      return CpuHasVnni();
#else
      return false;
#endif
  }
  return false;
}

Int8Tier BestInt8Tier() {
  if (Int8TierAvailable(Int8Tier::kVnni)) return Int8Tier::kVnni;
  if (Int8TierAvailable(Int8Tier::kNeonDot)) return Int8Tier::kNeonDot;
  if (Int8TierAvailable(Int8Tier::kAvx2Dot)) return Int8Tier::kAvx2Dot;
  return Int8Tier::kScalar;
}

Int8Tier SelectInt8Tier() {
  const int hook = g_tier_override.load(std::memory_order_relaxed);
  if (hook != 0) {
    const auto t = static_cast<Int8Tier>(hook);
    if (Int8TierAvailable(t)) return t;
  }
  static const int forced = ParseForcedTier(std::getenv("LCE_FORCE_ISA"));
  if (forced != 0) {
    const auto t = static_cast<Int8Tier>(forced);
    if (Int8TierAvailable(t)) return t;
  }
  static const Int8Tier best = BestInt8Tier();
  return best;
}

void SetInt8TierOverrideForTest(int tier) {
  g_tier_override.store(tier, std::memory_order_relaxed);
}

const char* Int8TierName(Int8Tier tier) {
  switch (tier) {
    case Int8Tier::kScalar:
      return "scalar";
    case Int8Tier::kAvx2Dot:
      return "avx2dot";
    case Int8Tier::kNeonDot:
      return "neondot";
    case Int8Tier::kVnni:
      return "vnni";
  }
  return "unknown";
}

}  // namespace lce::gemm
