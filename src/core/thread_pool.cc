#include "core/thread_pool.h"

#include <algorithm>
#include <bit>
#include <map>
#include <vector>

#include "core/macros.h"
#include "serving/fault_injection.h"
#include "telemetry/clock.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace lce {
namespace {

// How long an idle worker, or a submitter waiting on its last shards, spins
// before parking. Long enough to bridge the serial gap between two kernel
// nodes of one Invoke (the caller's dispatch plus a serial op), short
// enough that an idle pool goes quiet within a fraction of a millisecond.
constexpr std::uint64_t kSpinNanos = 200'000;
// Spin iterations between clock reads.
constexpr int kSpinsPerClockRead = 64;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

// One ParallelFor call, on its submitter's stack. Lives until every shard
// has been reported done.
struct ThreadPool::Job {
  Job(int shards, Status (*run)(const void*, int), const void* run_ctx)
      : run(run),
        run_ctx(run_ctx),
        shards(shards),
        all_claimed(shards == 64 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << shards) - 1) {}

  // Claims shard `home` if it is still free, else the lowest free shard.
  // Returns -1 once every shard is claimed.
  int Claim(int home) {
    if (home < shards) {
      const std::uint64_t bit = std::uint64_t{1} << home;
      if ((claimed.load(std::memory_order_relaxed) & bit) == 0 &&
          (claimed.fetch_or(bit, std::memory_order_acq_rel) & bit) == 0) {
        return home;
      }
    }
    std::uint64_t c = claimed.load(std::memory_order_relaxed);
    while (c != all_claimed) {
      const int s = std::countr_zero(~c & all_claimed);
      const std::uint64_t bit = std::uint64_t{1} << s;
      c = claimed.fetch_or(bit, std::memory_order_acq_rel);
      if ((c & bit) == 0) return s;
      c |= bit;
    }
    return -1;
  }

  // The lowest-indexed failing shard wins, so the reported status is
  // deterministic regardless of scheduling order. Only failing shards take
  // the lock.
  void RecordError(int s, Status st) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (s < first_error_shard) {
      first_error_shard = s;
      first_error = std::move(st);
    }
  }

  Status (*const run)(const void*, int);
  const void* const run_ctx;
  const int shards;
  const std::uint64_t all_claimed;
  std::atomic<std::uint64_t> claimed{0};
  std::atomic<int> done{0};
  std::mutex error_mu;
  int first_error_shard = kMaxThreads;  // sentinel: no error
  Status first_error;
};

void ThreadPool::SpinLock::lock() {
  while (held_.exchange(true, std::memory_order_acquire)) {
    while (held_.load(std::memory_order_relaxed)) CpuRelax();
  }
}

template <typename Pred>
bool ThreadPool::SpinUntil(const Pred& pred) {
  std::uint64_t deadline = 0;
  for (int i = 1;; ++i) {
    if (pred()) return true;
    CpuRelax();
    if (i % kSpinsPerClockRead == 0) {
      const std::uint64_t now = telemetry::NowNanos();
      if (deadline == 0) {
        deadline = now + kSpinNanos;
      } else if (now >= deadline) {
        return pred();
      }
      // Past the first clock read, offer the core to any other runnable
      // thread between checks: when the machine is oversubscribed, the
      // thread that would make `pred` true may be waiting for this core.
      std::this_thread::yield();
    }
  }
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::clamp(num_threads, 1, kMaxThreads)) {
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Under park_mu_ so a worker between its predicate check and its wait
    // cannot miss the flag; spinning workers see it directly.
    std::lock_guard<std::mutex> lock(park_mu_);
    shutdown_.store(true, std::memory_order_seq_cst);
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::shared_ptr<ThreadPool> ThreadPool::Shared(int num_threads) {
  num_threads = std::max(1, num_threads);
  // One cached pool per size, held weakly: pools die when the last model /
  // context using them does, and are recreated on demand. Leaked (not
  // destroyed at exit) so worker threads never outlive the registry.
  static std::mutex* mu = new std::mutex;
  static auto* pools = new std::map<int, std::weak_ptr<ThreadPool>>;
  std::lock_guard<std::mutex> lock(*mu);
  auto& slot = (*pools)[num_threads];
  if (auto existing = slot.lock()) return existing;
  auto pool = std::make_shared<ThreadPool>(num_threads);
  slot = pool;
  return pool;
}

void ThreadPool::WorkerLoop(int home) {
  for (;;) {
    // Read before looking for work: a job posted after this read changes
    // posts_, one posted before it is already in jobs_.
    const std::uint64_t seen = posts_.load(std::memory_order_seq_cst);
    if (RunOneShard(home)) continue;
    const auto woken = [&] {
      return shutdown_.load(std::memory_order_seq_cst) ||
             posts_.load(std::memory_order_seq_cst) != seen;
    };
    if (!SpinUntil(woken)) {
      // Park. Incrementing parked_workers_ before re-checking posts_ pairs
      // with the submitter's increment of posts_ before it reads
      // parked_workers_ (both seq_cst): at least one side sees the other,
      // so either this check succeeds or the submitter notifies.
      std::unique_lock<std::mutex> lock(park_mu_);
      parked_workers_.fetch_add(1, std::memory_order_seq_cst);
      work_cv_.wait(lock, woken);
      parked_workers_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (shutdown_.load(std::memory_order_acquire)) return;
  }
}

bool ThreadPool::RunOneShard(int home) {
  Job* job = nullptr;
  int s = -1;
  {
    // Claims happen under the list lock: a listed job is alive, and its
    // submitter unlists it (under the same lock) before waiting for it.
    std::lock_guard<SpinLock> lock(jobs_lock_);
    for (Job* j : jobs_) {
      s = j->Claim(home);
      if (s >= 0) {
        job = j;
        break;
      }
    }
  }
  if (job == nullptr) return false;
  FinishShard(job, s);
  return true;
}

void ThreadPool::FinishShard(Job* job, int s) {
  Status st = job->run(job->run_ctx, s);
  if (!st.ok()) job->RecordError(s, std::move(st));
  const int shards = job->shards;
  // Release: the shard's writes (output, error slot, span timing) are
  // visible to the submitter once it observes the count.
  const bool last =
      job->done.fetch_add(1, std::memory_order_seq_cst) + 1 == shards;
  // `job` may be gone from here on. Same Dekker pairing as parking workers:
  // the count is bumped before parked_submitters_ is read.
  if (last && parked_submitters_.load(std::memory_order_seq_cst) > 0) {
    { std::lock_guard<std::mutex> lock(park_mu_); }
    done_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(
    std::int64_t count,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  ParallelForShard(count, [&fn](int /*shard*/, std::int64_t begin,
                                std::int64_t end) { fn(begin, end); });
}

void ThreadPool::ParallelForShard(
    std::int64_t count,
    const std::function<void(int, std::int64_t, std::int64_t)>& fn) {
  // The void form is the infallible adapter over the status-propagating
  // core; the wrapper can never produce a non-Ok status.
  TryParallelForShard(count,
                      [&fn](int shard, std::int64_t begin, std::int64_t end) {
                        fn(shard, begin, end);
                        return Status::Ok();
                      });
}

Status ThreadPool::TryParallelFor(
    std::int64_t count,
    const std::function<Status(std::int64_t, std::int64_t)>& fn) {
  return TryParallelForShard(
      count, [&fn](int /*shard*/, std::int64_t begin, std::int64_t end) {
        return fn(begin, end);
      });
}

Status ThreadPool::TryParallelForShard(
    std::int64_t count,
    const std::function<Status(int, std::int64_t, std::int64_t)>& fn) {
  if (count <= 0) return Status::Ok();
  const int shards = PlannedShards(count);
  static telemetry::Metric* pf_calls =
      telemetry::MetricsRegistry::Global().Counter(
          "threadpool.parallel_for_calls");
  static telemetry::Metric* pf_shards =
      telemetry::MetricsRegistry::Global().Counter(
          "threadpool.shards_executed");
  pf_calls->Add(1);
  // Balanced split (below) never produces an empty shard, so every shard
  // counted here executes at least one index.
  pf_shards->Add(shards);
  const bool tracing = telemetry::TracingActive();
  // Per-shard wall times, only gathered while tracing. Feeds the shard
  // spans (emitted on each worker's own track) and the imbalance gauge.
  std::vector<std::uint64_t> shard_ns(tracing ? shards : 0, 0);
  // Balanced split: base indices per shard, with the first `rem` shards
  // taking one extra. The previous ceil-based split could leave tail shards
  // empty (count=5, shards=4 gave loads 2,2,1,0).
  const std::int64_t base = count / shards;
  const std::int64_t rem = count % shards;
  const auto shard_begin = [base, rem](int s) {
    return s * base + std::min<std::int64_t>(s, rem);
  };
  // Runs one shard: fault point (stalled-worker injection), optional span,
  // then the user fn. Every shard runs to completion even if a sibling has
  // already failed -- a partial result is only ever reported through the
  // returned status, never through shards silently skipping work.
  const auto run_shard = [&](int s) -> Status {
    LCE_FAULT_ON_SHARD(s);
    const std::int64_t begin = shard_begin(s);
    const std::int64_t end = shard_begin(s + 1);
    if (!tracing) return fn(s, begin, end);
    const std::uint64_t s0 = telemetry::NowNanos();
    Status st = fn(s, begin, end);
    const std::uint64_t s1 = telemetry::NowNanos();
    telemetry::Tracer::Global().RecordCompleteWithArg(
        "threadpool/shard", "threadpool", s0, s1, "shard", s);
    shard_ns[s] = s1 - s0;
    return st;
  };
  // Pool of one (or a single index): inline, no dispatch state touched.
  if (shards == 1) return run_shard(0);

  using RunShard = decltype(run_shard);
  Job job(shards,
          [](const void* ctx, int s) {
            return (*static_cast<const RunShard*>(ctx))(s);
          },
          &run_shard);
  {
    std::lock_guard<SpinLock> lock(jobs_lock_);
    jobs_.push_back(&job);
    posts_.fetch_add(1, std::memory_order_seq_cst);
  }
  if (parked_workers_.load(std::memory_order_seq_cst) > 0) {
    { std::lock_guard<std::mutex> lock(park_mu_); }
    work_cv_.notify_all();
  }
  // Shard 0 first, then whatever no worker has claimed yet: a submitter can
  // always finish its own call, even when every worker is busy elsewhere.
  for (int s = job.Claim(0); s >= 0; s = job.Claim(0)) FinishShard(&job, s);
  {
    std::lock_guard<SpinLock> lock(jobs_lock_);
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
  }
  const auto all_done = [&] {
    return job.done.load(std::memory_order_seq_cst) == shards;
  };
  if (!SpinUntil(all_done)) {
    std::unique_lock<std::mutex> lock(park_mu_);
    parked_submitters_.fetch_add(1, std::memory_order_seq_cst);
    done_cv_.wait(lock, all_done);
    parked_submitters_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (tracing) {
    const auto [mn, mx] = std::minmax_element(shard_ns.begin(), shard_ns.end());
    if (*mx > 0) {
      static telemetry::Metric* imbalance =
          telemetry::MetricsRegistry::Global().Gauge(
              "threadpool.shard_imbalance_pct");
      imbalance->SetMax(static_cast<std::int64_t>((*mx - *mn) * 100 / *mx));
    }
  }
  // Every shard has reported done; the error slot needs no further locking.
  return job.first_error_shard < shards ? job.first_error : Status::Ok();
}

}  // namespace lce
