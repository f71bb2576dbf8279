// A small work-stealing-free thread pool used by the GEMM context for
// multi-threaded inference (the feature the paper notes DaBNN lacks).
//
// Design: a fixed set of worker threads executes `ParallelFor` shards. With
// num_threads == 1 everything runs inline on the caller, which keeps
// single-threaded latency measurements free of synchronization noise (that
// path touches no dispatch state at all).
//
// Dispatch is spin-then-park. A call publishes one job record (on the
// submitter's stack) to the pool's job list; each of its shards is claimed
// through an atomic bitmask, either by a worker or by the submitter itself,
// and completion is an atomic count. Worker i prefers shard i and the
// submitter runs shard 0, so consecutive calls over the same index space
// (one kernel's output rows, the next kernel's input rows) keep each range
// on the same core. Idle workers spin on a post counter for a bounded time
// before parking on a condition variable, and a submitter whose shards are
// still running elsewhere spins the same way before it parks, so
// back-to-back ParallelFor calls -- one per kernel node during an Invoke --
// pay neither a futex wake nor a sleep/wake round trip. Spinning threads
// yield the core between checks after the first few microseconds, so an
// oversubscribed machine still runs the thread holding the work. Parked
// threads are woken only when somebody is actually parked (Dekker-style
// flag check, see thread_pool.cc), and the spin budgets are fixed
// constants, not options.
//
// Concurrency: `ParallelFor` is safe to call from any number of threads
// simultaneously on one pool -- the serving path shares a single process
// pool across all in-flight requests (see docs/SERVING.md). A submitter
// can always run every one of its own shards, so calls never wait on each
// other's work, and nested calls from inside a shard cannot deadlock. A
// call returns only after every one of its shards has finished, and no
// worker touches the job record after reporting its shard done.
#ifndef LCE_CORE_THREAD_POOL_H_
#define LCE_CORE_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/status.h"

namespace lce {

class ThreadPool {
 public:
  // Shard claims are bits of one 64-bit word per call.
  static constexpr int kMaxThreads = 64;

  // Creates a pool with `num_threads` total workers, clamped to
  // [1, kMaxThreads]. One of them is the calling thread, so
  // `num_threads - 1` std::threads are spawned.
  explicit ThreadPool(int num_threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Process-shared pool of the given size: repeated calls with the same
  // `num_threads` return the same instance while anyone still holds it.
  // This is what lets N concurrent ExecutionContexts (and the Interpreter
  // compatibility wrapper) share one set of worker threads instead of
  // spawning a pool per request.
  static std::shared_ptr<ThreadPool> Shared(int num_threads);

  int num_threads() const { return num_threads_; }

  // Runs fn(i) for i in [0, count), sharded across the pool. Blocks until
  // all shards are done. fn must be safe to call concurrently. Shards are
  // balanced: every shard gets count/num_shards indices, +1 for the first
  // count%num_shards shards, so no shard is ever empty.
  void ParallelFor(std::int64_t count,
                   const std::function<void(std::int64_t, std::int64_t)>& fn);

  // Number of shards ParallelFor/ParallelForShard will split `count` indices
  // into. Lets callers pre-allocate shard-local scratch before submitting.
  int PlannedShards(std::int64_t count) const {
    return static_cast<int>(
        std::min<std::int64_t>(num_threads_, std::max<std::int64_t>(count, 0)));
  }

  // ParallelFor variant passing the shard index: fn(shard, begin, end) with
  // shard in [0, PlannedShards(count)). Each shard index is used by exactly
  // one concurrent call of fn, so fn may own mutable per-shard state (e.g. a
  // scratch slice) indexed by it -- the fused BConv2D pipeline keeps one
  // A-panel and one accumulator tile per shard this way.
  void ParallelForShard(
      std::int64_t count,
      const std::function<void(int, std::int64_t, std::int64_t)>& fn);

  // Status-propagating variants for fallible shard work (the serving path's
  // no-abort-on-runtime-data rule). Every shard always runs to completion --
  // there is no mid-flight abort of sibling shards, so the data written by
  // successful shards is well-defined -- and the status of the
  // lowest-indexed failing shard is returned, deterministically, regardless
  // of scheduling order. Returns Ok when every shard returned Ok.
  Status TryParallelFor(
      std::int64_t count,
      const std::function<Status(std::int64_t, std::int64_t)>& fn);
  Status TryParallelForShard(
      std::int64_t count,
      const std::function<Status(int, std::int64_t, std::int64_t)>& fn);

 private:
  struct Job;

  // Test-and-test-and-set lock for the job list: its critical sections are
  // a few loads and stores, far shorter than a futex sleep.
  class SpinLock {
   public:
    void lock();
    void unlock() { held_.store(false, std::memory_order_release); }

   private:
    std::atomic<bool> held_{false};
  };

  // Worker `home` (1..num_threads-1) prefers shard `home` of every job, so
  // consecutive calls over the same index space keep each row range on the
  // same core (the caller always runs shard 0).
  void WorkerLoop(int home);
  // Claims one unclaimed shard of any posted job, preferring shard `home`,
  // and runs it. Returns false if every posted shard was already claimed.
  bool RunOneShard(int home);
  // Runs shard `s` of `job` and reports it done; `job` must not be touched
  // afterwards (its submitter may return immediately).
  void FinishShard(Job* job, int s);
  // Spins until `pred` holds or the spin budget runs out; returns pred().
  template <typename Pred>
  static bool SpinUntil(const Pred& pred);

  int num_threads_;
  std::vector<std::thread> workers_;

  SpinLock jobs_lock_;
  std::vector<Job*> jobs_;  // posted jobs that may have unclaimed shards
  // Bumped once per posted job; what idle workers spin on.
  std::atomic<std::uint64_t> posts_{0};
  std::atomic<bool> shutdown_{false};

  // Parking: idle workers wait on work_cv_, submitters whose shards are
  // still running elsewhere wait on done_cv_. The counters let the waking
  // side skip the mutex and the notify when nobody is parked.
  std::mutex park_mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::atomic<int> parked_workers_{0};
  std::atomic<int> parked_submitters_{0};
};

}  // namespace lce

#endif  // LCE_CORE_THREAD_POOL_H_
