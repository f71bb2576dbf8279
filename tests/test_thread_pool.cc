// ThreadPool tests: full index coverage, inline single-thread execution,
// concurrent-safety of sharded writes, the balanced shard split,
// concurrent submitters sharing one pool (the serving configuration), and
// the spin-then-park dispatch under back-to-back calls and teardown.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

class ThreadPoolCoverage : public ::testing::TestWithParam<int> {};

TEST_P(ThreadPoolCoverage, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(GetParam());
  const std::int64_t count = 1000;
  std::vector<std::atomic<int>> hits(count);
  pool.ParallelFor(count, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (std::int64_t i = 0; i < count; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadPoolCoverage,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(0, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, CountSmallerThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SequentialCallsReusePool) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(100, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) sum.fetch_add(i);
    });
  }
  EXPECT_EQ(sum.load(), 20 * (99 * 100 / 2));
}

TEST(ThreadPool, BalancedSplitLeavesNoShardEmpty) {
  // Regression: the old ceil-based split gave count=5, shards=4 the loads
  // 2,2,1,0 -- a silently idle shard that was still counted as executed.
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<std::int64_t, std::int64_t>> shards;
  telemetry::Metric* executed =
      telemetry::MetricsRegistry::Global().Counter("threadpool.shards_executed");
  const std::int64_t executed_before = executed->value();
  pool.ParallelFor(5, [&](std::int64_t begin, std::int64_t end) {
    std::lock_guard<std::mutex> lock(mu);
    shards.emplace_back(begin, end);
  });
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(executed->value() - executed_before, 4)
      << "shards_executed must count only non-empty shards";
  std::sort(shards.begin(), shards.end());
  std::int64_t expect_begin = 0;
  std::int64_t min_load = 5, max_load = 0;
  for (const auto& [begin, end] : shards) {
    EXPECT_EQ(begin, expect_begin) << "shards must tile [0, count)";
    EXPECT_LT(begin, end) << "no shard may be empty";
    min_load = std::min(min_load, end - begin);
    max_load = std::max(max_load, end - begin);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, 5);
  EXPECT_LE(max_load - min_load, 1) << "split must be balanced";
}

TEST(ThreadPool, ConcurrentSubmittersShareOnePool) {
  // The serving path: many request threads issue ParallelFor on one
  // process-shared pool. Every call must see all of its own indices exactly
  // once regardless of interleaving with other submitters.
  auto pool = ThreadPool::Shared(4);
  ASSERT_EQ(pool.get(), ThreadPool::Shared(4).get())
      << "Shared() must return one instance per size";
  constexpr int kSubmitters = 4;
  constexpr int kRounds = 25;
  constexpr std::int64_t kCount = 997;  // prime: uneven shard loads
  std::vector<std::thread> submitters;
  std::vector<std::int64_t> sums(kSubmitters, 0);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        std::atomic<std::int64_t> sum{0};
        pool->ParallelFor(kCount, [&](std::int64_t begin, std::int64_t end) {
          std::int64_t local = 0;
          for (std::int64_t i = begin; i < end; ++i) local += i;
          sum.fetch_add(local);
        });
        sums[t] = sum.load();
        ASSERT_EQ(sums[t], kCount * (kCount - 1) / 2)
            << "submitter " << t << " round " << round;
      }
    });
  }
  for (auto& th : submitters) th.join();
  for (std::int64_t s : sums) EXPECT_EQ(s, kCount * (kCount - 1) / 2);
}

TEST(ThreadPool, TryParallelForPropagatesMidShardFault) {
  // Regression for the serving no-abort rule: a shard that fails mid-range
  // must surface its Status through the call instead of being swallowed,
  // and the sibling shards must still run their full ranges (no mid-flight
  // abort -- their output stays well-defined).
  ThreadPool pool(4);
  constexpr std::int64_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  const Status s = pool.TryParallelFor(
      kCount, [&](std::int64_t begin, std::int64_t end) -> Status {
        for (std::int64_t i = begin; i < end; ++i) {
          if (i == 777) {
            return Status::Internal("induced fault at index 777");
          }
          hits[i].fetch_add(1);
        }
        return Status::Ok();
      });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("777"), std::string::npos);
  // Every index outside the failing shard's truncated tail was visited
  // exactly once: the failing shard covers at most kCount/4 indices, and
  // only its post-fault tail is skipped.
  int visited = 0;
  for (std::int64_t i = 0; i < kCount; ++i) visited += hits[i].load();
  EXPECT_GE(visited, static_cast<int>(kCount - kCount / 4));
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[777].load(), 0) << "the faulting index must not be counted";
}

TEST(ThreadPool, TryParallelForShardReportsLowestFailingShard) {
  // Determinism contract: when several shards fail, the returned status is
  // the lowest-indexed shard's, independent of scheduling order.
  ThreadPool pool(8);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> completed{0};
    const Status s = pool.TryParallelForShard(
        800, [&](int shard, std::int64_t, std::int64_t) -> Status {
          completed.fetch_add(1);
          if (shard >= 3) {
            return Status::InvalidArgument("shard " + std::to_string(shard) +
                                           " failed");
          }
          return Status::Ok();
        });
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.message(), "shard 3 failed") << "round " << round;
    EXPECT_EQ(completed.load(), 8)
        << "every shard must run to completion even after a sibling failed";
  }
}

// Back-to-back tiny calls: every call must see each of its indices
// exactly once, whether workers are spinning, parked or busy with another
// submitter's shards.
void BackToBackTinyCalls(ThreadPool& pool, int submitters) {
  constexpr int kCalls = 10000;
  constexpr std::int64_t kCount = 7;  // uneven shard loads
  std::atomic<int> bad_calls{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < submitters; ++t) {
    threads.emplace_back([&] {
      for (int call = 0; call < kCalls; ++call) {
        std::atomic<int> hits[kCount] = {};
        pool.ParallelFor(kCount, [&](std::int64_t begin, std::int64_t end) {
          for (std::int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        });
        for (const auto& h : hits) {
          if (h.load() != 1) {
            bad_calls.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad_calls.load(), 0);
}

TEST(ThreadPool, BackToBackTinyCallsOneSubmitter) {
  ThreadPool pool(4);
  BackToBackTinyCalls(pool, 1);
}

TEST(ThreadPool, BackToBackTinyCallsFourSubmitters) {
  ThreadPool pool(4);
  BackToBackTinyCalls(pool, 4);
}

TEST(ThreadPool, DestroyWhileWorkersSpin) {
  // Right after a call the workers are in their spin phase (and right after
  // construction they spin on an empty list): teardown must still join
  // them promptly, and repeatedly.
  for (int round = 0; round < 100; ++round) {
    ThreadPool pool(4);
    if (round % 2 == 0) {
      std::atomic<int> hits{0};
      pool.ParallelFor(4, [&](std::int64_t begin, std::int64_t end) {
        hits.fetch_add(static_cast<int>(end - begin));
      });
      ASSERT_EQ(hits.load(), 4);
    }
  }
}

TEST(ThreadPool, CallAfterWorkersParkedStillRuns) {
  // Workers park after their bounded spin; a later call must wake them.
  ThreadPool pool(4);
  pool.ParallelFor(4, [](std::int64_t, std::int64_t) {});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::atomic<int> hits{0};
  pool.ParallelFor(1000, [&](std::int64_t begin, std::int64_t end) {
    hits.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(hits.load(), 1000);
}

TEST(ThreadPool, LowestFailingShardWinsUnderConcurrentSubmitters) {
  // Higher shards fail first (shard s sleeps less the higher s is), and
  // four submitters share the pool: each call must still report its own
  // lowest failing shard, after all of its shards ran.
  auto pool = std::make_shared<ThreadPool>(4);
  std::vector<std::thread> submitters;
  std::atomic<int> wrong{0};
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        std::atomic<int> completed{0};
        const int first_bad = 1 + (t + round) % 3;
        const Status s = pool->TryParallelForShard(
            4, [&](int shard, std::int64_t, std::int64_t) -> Status {
              std::this_thread::sleep_for(
                  std::chrono::microseconds(50 * (4 - shard)));
              completed.fetch_add(1);
              if (shard >= first_bad) {
                return Status::Internal("submitter " + std::to_string(t) +
                                        " shard " + std::to_string(shard));
              }
              return Status::Ok();
            });
        const std::string want = "submitter " + std::to_string(t) +
                                 " shard " + std::to_string(first_bad);
        if (s.ok() || s.message() != want || completed.load() != 4) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : submitters) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ThreadPool, TryParallelForAllOkAndInlineShard) {
  ThreadPool pool(1);  // inline path
  std::atomic<std::int64_t> sum{0};
  const Status s = pool.TryParallelFor(
      100, [&](std::int64_t begin, std::int64_t end) -> Status {
        for (std::int64_t i = begin; i < end; ++i) sum.fetch_add(i);
        return Status::Ok();
      });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
  // The inline shard (shard 0 runs on the submitter) also propagates.
  const Status inline_fail = pool.TryParallelForShard(
      4, [&](int, std::int64_t, std::int64_t) -> Status {
        return Status::Internal("inline shard failed");
      });
  EXPECT_EQ(inline_fail.code(), StatusCode::kInternal);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  // With one thread, the callback must run on the calling thread (no
  // synchronization noise for latency benchmarks).
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.ParallelFor(10, [&](std::int64_t, std::int64_t) {
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

}  // namespace
}  // namespace lce
