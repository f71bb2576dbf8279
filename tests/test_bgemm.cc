// BGEMM tests: the packed XOR-POPCOUNT kernel against the reference dot
// product, every compiled micro-kernel tier bit-exact against a scalar
// k_bits - 2 * popcount, SIMD vs scalar profile agreement, edge tiles,
// multithreading and the baseline (DaBNN/TVM/BMXNet-style) kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/bitpack.h"
#include "core/random.h"
#include "gemm/baselines.h"
#include "gemm/bgemm.h"

namespace lce::gemm {
namespace {

struct BinaryProblem {
  int m, n, k_bits;
  std::vector<TBitpacked> lhs, rhs;
  std::vector<std::int32_t> expected;
  int kw() const { return BitpackedWords(k_bits); }
};

BinaryProblem MakeProblem(int m, int n, int k_bits, std::uint64_t seed) {
  BinaryProblem p{m, n, k_bits, {}, {}, {}};
  Rng rng(seed);
  const int kw = p.kw();
  p.lhs.resize(static_cast<std::size_t>(m) * kw);
  p.rhs.resize(static_cast<std::size_t>(n) * kw);
  auto fill = [&](std::vector<TBitpacked>& v) {
    for (auto& w : v) w = static_cast<TBitpacked>(rng.Next());
    // Zero the channel-padding bits of every row's last word.
    const int rem = k_bits % kBitpackWordSize;
    if (rem != 0) {
      for (std::size_t i = kw - 1; i < v.size(); i += kw) {
        v[i] &= (TBitpacked{1} << rem) - 1;
      }
    }
  };
  fill(p.lhs);
  fill(p.rhs);
  p.expected.resize(static_cast<std::size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      p.expected[static_cast<std::size_t>(i) * n + j] = BinaryDotReference(
          p.lhs.data() + static_cast<std::size_t>(i) * kw,
          p.rhs.data() + static_cast<std::size_t>(j) * kw, k_bits);
    }
  }
  return p;
}

class BGemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BGemmShapes, MatchesReference) {
  const auto [m, n, k_bits] = GetParam();
  const BinaryProblem p = MakeProblem(m, n, k_bits, m * 131 + n * 17 + k_bits);
  Context ctx(1);
  std::vector<std::int32_t> out(static_cast<std::size_t>(m) * n, -12345);
  BGemm(p.lhs.data(), m, p.rhs.data(), n, p.kw(), k_bits, out.data(), n, ctx);
  EXPECT_EQ(out, p.expected);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, BGemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 32), std::make_tuple(1, 1, 17),
                      std::make_tuple(4, 4, 256), std::make_tuple(5, 3, 64),
                      std::make_tuple(7, 9, 100), std::make_tuple(16, 16, 2304),
                      std::make_tuple(33, 65, 288), std::make_tuple(2, 130, 31),
                      std::make_tuple(100, 8, 1024),
                      std::make_tuple(13, 13, 4608)));

// Every compiled tier through the block entry point, against a direct
// k_bits - 2 * popcount(lhs ^ rhs) over the 32-bit words: K around and
// across 64-bit word boundaries (odd and even word counts), out_c around
// the 8-channel panel and 4-panel block widths, every row count up to one
// past the widest (6-row) register block, ldc > n, and rows sharded over 1
// and 4 threads sharing one packed matrix.
TEST(BGemm, EveryTierMatchesScalarPopcount) {
  const std::vector<BGemmTier> tiers = CompiledBGemmTiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), BGemmTier::kScalar);
  EXPECT_EQ(tiers.back(), BestBGemmTier());
  constexpr int kMaxRows = 7;
  ThreadPool pool1(1), pool4(4);
  for (const int k_bits : {32, 96, 288, 576, 4640}) {
    const int kw = BitpackedWords(k_bits);
    for (const int n : {1, 7, 8, 9, 33, 64}) {
      const int m = 4 * kMaxRows;  // four shards of up to kMaxRows rows
      const BinaryProblem p = MakeProblem(m, n, k_bits, k_bits * 7 + n);
      std::vector<std::int32_t> want(static_cast<std::size_t>(m) * n);
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          int pop = 0;
          for (int w = 0; w < kw; ++w) {
            pop += std::popcount(p.lhs[static_cast<std::size_t>(i) * kw + w] ^
                                 p.rhs[static_cast<std::size_t>(j) * kw + w]);
          }
          want[static_cast<std::size_t>(i) * n + j] = k_bits - 2 * pop;
        }
      }
      ASSERT_EQ(want, p.expected);
      const PackedBinaryMatrix packed(p.rhs.data(), n, kw);
      const int ldc = n + 3;
      for (const BGemmTier tier : tiers) {
        for (ThreadPool* pool : {&pool1, &pool4}) {
          const int threads = pool->num_threads();
          for (int rows = 1; rows <= kMaxRows; ++rows) {
            // Shard s computes rows [s * kMaxRows, s * kMaxRows + rows).
            std::vector<std::int32_t> out(static_cast<std::size_t>(m) * ldc,
                                          -777);
            pool->ParallelFor(4, [&](std::int64_t b, std::int64_t e) {
              for (std::int64_t s = b; s < e; ++s) {
                const std::int64_t r0 = s * kMaxRows;
                BGemmComputeBlock(p.lhs.data() + r0 * kw, kw, packed, k_bits,
                                  tier, rows, out.data() + r0 * ldc, ldc);
              }
            });
            for (int i = 0; i < m; ++i) {
              const bool computed = i % kMaxRows < rows;
              for (int j = 0; j < ldc; ++j) {
                const std::int32_t expect =
                    computed && j < n
                        ? want[static_cast<std::size_t>(i) * n + j]
                        : -777;
                ASSERT_EQ(out[static_cast<std::size_t>(i) * ldc + j], expect)
                    << "tier " << static_cast<int>(tier)
                    << " k_bits=" << k_bits
                    << " n=" << n << " rows=" << rows << " threads="
                    << threads << " at (" << i << ", " << j << ")";
              }
            }
          }
        }
      }
    }
  }
}

TEST(BGemm, TiersReadRowsInPlaceWithLeadingDimension) {
  // LHS rows with lda > kw (a patch row inside a wider buffer): only the
  // first kw words of each row may be read.
  const int k_bits = 96, kw = 3, lda = 5, m = 9, n = 12;
  const BinaryProblem p = MakeProblem(m, n, k_bits, 99);
  std::vector<TBitpacked> wide(static_cast<std::size_t>(m) * lda,
                               0xffffffffu);
  for (int i = 0; i < m; ++i) {
    std::copy_n(p.lhs.data() + static_cast<std::size_t>(i) * kw, kw,
                wide.data() + static_cast<std::size_t>(i) * lda);
  }
  const PackedBinaryMatrix packed(p.rhs.data(), n, kw);
  for (const BGemmTier tier : CompiledBGemmTiers()) {
    std::vector<std::int32_t> out(static_cast<std::size_t>(m) * n);
    BGemmComputeBlock(wide.data(), lda, packed, k_bits, tier, m, out.data(),
                      n);
    EXPECT_EQ(out, p.expected) << "tier " << static_cast<int>(tier);
  }
}

TEST(BGemm, ScalarAndSimdProfilesAgree) {
  const BinaryProblem p = MakeProblem(37, 29, 576, 42);
  std::vector<std::int32_t> simd(37 * 29), scalar(37 * 29);
  {
    Context ctx(1, KernelProfile::kSimd);
    BGemm(p.lhs.data(), p.m, p.rhs.data(), p.n, p.kw(), p.k_bits, simd.data(),
          p.n, ctx);
  }
  {
    Context ctx(1, KernelProfile::kScalar);
    BGemm(p.lhs.data(), p.m, p.rhs.data(), p.n, p.kw(), p.k_bits,
          scalar.data(), p.n, ctx);
  }
  EXPECT_EQ(simd, scalar);
  EXPECT_EQ(simd, p.expected);
}

TEST(BGemm, MultithreadedMatchesSingleThreaded) {
  const BinaryProblem p = MakeProblem(64, 48, 320, 7);
  std::vector<std::int32_t> mt(64 * 48);
  Context ctx(4);
  BGemm(p.lhs.data(), p.m, p.rhs.data(), p.n, p.kw(), p.k_bits, mt.data(),
        p.n, ctx);
  EXPECT_EQ(mt, p.expected);
}

TEST(BGemm, OddTilesMultithreadedMatchesReference) {
  // m and n deliberately not multiples of the 4x4 tile: the edge tiles must
  // stay correct when the row-tile loop is sharded across threads.
  const BinaryProblem p = MakeProblem(37, 29, 576, 23);
  std::vector<std::int32_t> mt(37 * 29);
  Context ctx(4);
  BGemm(p.lhs.data(), p.m, p.rhs.data(), p.n, p.kw(), p.k_bits, mt.data(),
        p.n, ctx);
  EXPECT_EQ(mt, p.expected);
}

TEST(BGemm, ConcurrentCallsOnSharedPoolMatchReference) {
  // Serving configuration: several request threads run BGemm at once, each
  // with its own Context (own scratch) on one shared pool. Results must be
  // identical to the serial reference for every caller.
  auto pool = ThreadPool::Shared(4);
  constexpr int kThreads = 4;
  std::vector<BinaryProblem> problems;
  for (int t = 0; t < kThreads; ++t) {
    problems.push_back(MakeProblem(37 + t, 29 + t, 320, 1000 + t));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const BinaryProblem& p = problems[t];
      Context ctx(pool);
      for (int round = 0; round < 10; ++round) {
        std::vector<std::int32_t> out(static_cast<std::size_t>(p.m) * p.n);
        BGemm(p.lhs.data(), p.m, p.rhs.data(), p.n, p.kw(), p.k_bits,
              out.data(), p.n, ctx);
        ASSERT_EQ(out, p.expected) << "thread " << t << " round " << round;
      }
    });
  }
  for (auto& th : threads) th.join();
}

TEST(ContextDeathTest, ScratchSlotOutOfRangeAborts) {
  // Slot indices are a fixed contract between the kernels; an out-of-range
  // slot must abort instead of silently indexing off the end of scratch_.
  Context ctx(1);
  EXPECT_DEATH(ctx.Scratch(Context::kNumScratchSlots, 16),
               "slot out of range");
  EXPECT_DEATH(ctx.Scratch(-1, 16), "slot out of range");
}

TEST(BGemm, PrepackedRhsIsReusable) {
  const BinaryProblem p = MakeProblem(10, 12, 96, 3);
  PackedBinaryMatrix packed(p.rhs.data(), p.n, p.kw());
  Context ctx(1);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::int32_t> out(10 * 12);
    BGemm(p.lhs.data(), p.m, packed, p.k_bits, out.data(), p.n, ctx);
    EXPECT_EQ(out, p.expected) << "round " << round;
  }
}

TEST(BGemm, RespectsLeadingDimension) {
  const BinaryProblem p = MakeProblem(6, 5, 64, 9);
  const int ldc = 11;
  std::vector<std::int32_t> out(6 * ldc, -777);
  Context ctx(1);
  BGemm(p.lhs.data(), p.m, p.rhs.data(), p.n, p.kw(), p.k_bits, out.data(),
        ldc, ctx);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_EQ(out[i * ldc + j], p.expected[i * 5 + j]);
    }
    for (int j = 5; j < ldc; ++j) {
      EXPECT_EQ(out[i * ldc + j], -777) << "padding columns must be untouched";
    }
  }
}

TEST(BGemm, AllOnesAgainstAllOnes) {
  // Identical operands: dot == k_bits exactly.
  const int m = 3, n = 3, k_bits = 100;
  const int kw = BitpackedWords(k_bits);
  std::vector<TBitpacked> ones(static_cast<std::size_t>(m) * kw, 0);
  std::vector<std::int32_t> out(m * n);
  Context ctx(1);
  BGemm(ones.data(), m, ones.data(), n, kw, k_bits, out.data(), n, ctx);
  for (auto v : out) EXPECT_EQ(v, k_bits);
}

TEST(BGemm, OppositeOperands) {
  const int k_bits = 64;
  std::vector<TBitpacked> a(2, 0);             // all +1
  std::vector<TBitpacked> b(2, 0xffffffffu);   // all -1
  std::int32_t out = 0;
  Context ctx(1);
  BGemm(a.data(), 1, b.data(), 1, 2, k_bits, &out, 1, ctx);
  EXPECT_EQ(out, -k_bits);
}

using BaselineFn = void (*)(const TBitpacked*, int, const TBitpacked*, int,
                            int, int, std::int32_t*, int);

class BaselineBGemm : public ::testing::TestWithParam<BaselineFn> {};

TEST_P(BaselineBGemm, MatchesReference) {
  const BinaryProblem p = MakeProblem(21, 19, 161, 13);
  std::vector<std::int32_t> out(21 * 19);
  GetParam()(p.lhs.data(), p.m, p.rhs.data(), p.n, p.kw(), p.k_bits,
             out.data(), p.n);
  EXPECT_EQ(out, p.expected);
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineBGemm,
                         ::testing::Values(&DaBnnStyleBGemm, &TvmStyleBGemm,
                                           &BmxnetStyleBGemm));

}  // namespace
}  // namespace lce::gemm
