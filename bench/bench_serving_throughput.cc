// Serving throughput: N concurrent request streams against ONE shared
// CompiledModel (docs/SERVING.md).
//
// Each stream owns an ExecutionContext (its own arena + GEMM scratch) and
// invokes in a closed loop against the same set of packed binary weights on
// one process-shared thread pool. Reported per stream count: aggregate QPS
// and p50/p99 request latency, plus the resident packed-weight gauge --
// which must stay flat as streams scale, proving the 32x-compressed weights
// are shared rather than duplicated per stream (the pre-split
// one-Interpreter-per-request workaround duplicated them).
//
// Default: QuickNet-S, streams 1/2/4/8, intra-op pool of 1 (parallelism
// across requests, the classic serving configuration). `--full` adds
// QuickNet-M/L; `--pool=K` sizes the shared intra-op pool.
//
// `--open-loop` additionally runs the overload experiment: Poisson arrivals
// at `--overload=X` times the measured closed-loop sustainable rate are
// submitted to a bounded serving::Server (`--inflight=`, `--depth=`) with a
// per-request deadline (3x the closed-loop p99 unless `--deadline-ms=`
// overrides). The run records shed/timeout counts, queue-wait and
// admitted-latency percentiles, queue-depth peak and the resident-arena
// peak -- and structurally asserts the overload contract: queue depth never
// exceeds its bound and resident arena bytes stay flat at
// max_inflight * arena_bytes no matter the offered load.
//
// `--batch` runs the dynamic-batching experiment on an int8-heavy model
// (all-float ConvNet through PTQ -- requantized int8 gemms are where lane
// batching amortizes the packed-weight streaming best): the same 8
// closed-loop request streams are offered to a batch-1 server and to a
// `--max-batch=N` server, comparing QPS and per-request p99 at equal
// offered load, and recording the mean batch occupancy
// (admitted / batches_executed). With `--open-loop` it additionally
// overloads the batched server with Poisson arrivals. Both runs assert the
// bounds stay intact under batching: queue depth within max_queue_depth,
// resident arenas within max_inflight * the *batch-N* arena, and the
// resident packed-weight gauge flat across every compiled batch variant.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "converter/convert.h"
#include "converter/ptq.h"
#include "graph/compiled_model.h"
#include "models/builder.h"
#include "models/zoo.h"
#include "serving/server.h"
#include "telemetry/metrics.h"
#include "telemetry/run_report.h"

namespace {

using namespace lce;

struct StreamResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::int64_t requests = 0;
  std::int64_t resident_packed_bytes = 0;
};

std::int64_t ResidentPackedBytes() {
  return telemetry::MetricsRegistry::Global()
      .Gauge("weights.resident_packed_bytes")
      ->value();
}

// Runs `streams` closed-loop request threads against `model` for
// ~`seconds` of wall time and aggregates throughput and latency. A
// non-empty `hist_name` additionally streams every request latency into
// that registry histogram, whose full bucket list then lands in the
// --json report via the embedded metrics snapshot; the histogram's
// interpolated p99 is cross-checked against the exact order statistic
// within one bucket's relative error (<= 12.5%).
StreamResult RunStreams(const std::shared_ptr<const CompiledModel>& model,
                        int streams, double seconds,
                        const std::string& hist_name = std::string()) {
  telemetry::Histogram* hist =
      hist_name.empty()
          ? nullptr
          : telemetry::MetricsRegistry::Global().Histogram(hist_name);
  std::vector<std::vector<double>> latencies(streams);
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < streams; ++t) {
    threads.emplace_back([&, t] {
      ExecutionContext exec(model);
      Rng rng(1000 + t);
      Tensor in = exec.input(0);
      for (std::int64_t i = 0; i < in.num_elements(); ++i) {
        in.data<float>()[i] = rng.Uniform();
      }
      exec.Invoke();  // warmup, not measured
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        const auto t0 = std::chrono::steady_clock::now();
        exec.Invoke();
        const auto t1 = std::chrono::steady_clock::now();
        const double lat_s = std::chrono::duration<double>(t1 - t0).count();
        latencies[t].push_back(lat_s);
        if (hist != nullptr) {
          hist->Record(static_cast<std::int64_t>(lat_s * 1e9));
        }
      }
    });
  }
  while (ready.load() < streams) std::this_thread::yield();
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  StreamResult r;
  std::vector<double> all;
  for (const auto& per_stream : latencies) {
    r.requests += static_cast<std::int64_t>(per_stream.size());
    all.insert(all.end(), per_stream.begin(), per_stream.end());
  }
  r.qps = wall > 0 ? static_cast<double>(r.requests) / wall : 0.0;
  if (!all.empty()) {
    r.p50_ms = profiling::Percentile(all, 0.5) * 1e3;
    r.p99_ms = profiling::Percentile(all, 0.99) * 1e3;
  }
  if (hist != nullptr && !all.empty()) {
    const auto snap = hist->TakeSnapshot();
    LCE_CHECK(snap.count == r.requests &&
              "histogram count must equal the measured request count");
    std::vector<double> all_ns(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) all_ns[i] = all[i] * 1e9;
    const double exact_p99 = profiling::Percentile(all_ns, 0.99);
    const double hist_p99 = snap.p99();
    LCE_CHECK(std::abs(hist_p99 - exact_p99) <= 0.125 * exact_p99 + 1.0 &&
              "histogram p99 drifted past one bucket from the exact p99");
  }
  r.resident_packed_bytes = ResidentPackedBytes();
  return r;
}

struct OpenLoopResult {
  double offered_qps = 0.0;
  double completed_qps = 0.0;
  std::int64_t submitted = 0;
  std::int64_t ok = 0;
  std::int64_t shed = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t other = 0;
  double admitted_p50_ms = 0.0;
  double admitted_p99_ms = 0.0;
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
  std::int64_t queue_depth_peak = 0;
  std::int64_t arena_peak_bytes = 0;
  std::int64_t batches = 0;
  double occupancy_mean = 0.0;
};

// Open-loop overload: Poisson arrivals at `rate_qps` submitted to a bounded
// Server for ~`seconds`, independent of completion (arrivals do not slow
// down when the server backs up -- the property that separates overload
// behavior from the closed-loop runs above). All requests are drained
// before returning, so every stat covers the full arrival set.
// `max_batch` > 1 serves the arrivals through the dynamic batcher; the
// arena bound then covers the batch-N contexts (`arena_bound_per_ctx`,
// which defaults to the base model's arena when 0 / unbatched).
OpenLoopResult RunOpenLoop(const std::shared_ptr<const CompiledModel>& model,
                           double rate_qps, double seconds, int inflight,
                           int depth, double deadline_ms, int max_batch = 1,
                           std::chrono::nanoseconds batch_timeout =
                               std::chrono::nanoseconds{0},
                           std::int64_t arena_bound_per_ctx = 0) {
  serving::ServerOptions sopts;
  sopts.max_inflight = inflight;
  sopts.max_queue_depth = depth;
  sopts.max_batch_size = max_batch;
  sopts.batch_timeout = batch_timeout;
  serving::Server server(model, sopts);

  // One canonical input, copied into each admitted request's context.
  std::vector<float> input;
  {
    ExecutionContext probe(model);
    Rng rng(77);
    input.resize(probe.input(0).num_elements());
    for (auto& v : input) v = rng.Uniform();
    // Warm the pool so calibration overhead is not billed to request 0.
    std::memcpy(probe.input(0).data<float>(), input.data(),
                input.size() * sizeof(float));
    probe.Invoke();
  }
  const auto fill = [&input](ExecutionContext& ctx) {
    std::memcpy(ctx.input(0).data<float>(), input.data(),
                input.size() * sizeof(float));
  };

  // Sample the resident-arena gauge while the run is live: flatness under
  // overload is the memory half of the admission-control contract.
  auto* arena_gauge = telemetry::MetricsRegistry::Global().Gauge(
      "serving.resident_arena_bytes");
  std::atomic<bool> stop_sampler{false};
  std::atomic<std::int64_t> arena_peak{0};
  std::atomic<std::int64_t> depth_peak{0};
  std::thread sampler([&] {
    while (!stop_sampler.load(std::memory_order_relaxed)) {
      std::int64_t v = arena_gauge->value();
      std::int64_t prev = arena_peak.load(std::memory_order_relaxed);
      while (v > prev &&
             !arena_peak.compare_exchange_weak(prev, v,
                                               std::memory_order_relaxed)) {
      }
      v = server.queue_depth();
      prev = depth_peak.load(std::memory_order_relaxed);
      while (v > prev &&
             !depth_peak.compare_exchange_weak(prev, v,
                                               std::memory_order_relaxed)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  const auto deadline = std::chrono::nanoseconds(
      static_cast<std::int64_t>(deadline_ms * 1e6));
  std::vector<std::shared_ptr<serving::Request>> handles;
  handles.reserve(static_cast<std::size_t>(rate_qps * seconds * 1.5) + 16);
  Rng arrivals(13);
  const auto start = std::chrono::steady_clock::now();
  auto next = start;
  while (true) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (elapsed >= seconds) break;
    // Exponential inter-arrival gap: a Poisson process at rate_qps.
    // Uniform() defaults to [-1, 1); the exponential transform needs
    // [0, 1) or half the gaps come out negative (a max-rate burst).
    const double u = arrivals.Uniform(0.0f, 1.0f);
    const double gap_s = -std::log(1.0 - u) / rate_qps;
    next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(gap_s));
    std::this_thread::sleep_until(next);
    handles.push_back(server.Submit(fill, nullptr, deadline));
  }
  // Drain: arrivals stopped, so the queue empties on its own.
  for (auto& h : handles) h->Wait();
  stop_sampler.store(true, std::memory_order_relaxed);
  sampler.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  OpenLoopResult r;
  r.submitted = static_cast<std::int64_t>(handles.size());
  r.offered_qps = wall > 0 ? static_cast<double>(r.submitted) / wall : 0.0;
  std::vector<double> admitted_ms, queue_wait_ms;
  for (const auto& h : handles) {
    const Status s = h->status();
    switch (s.code()) {
      case StatusCode::kOk:
        ++r.ok;
        admitted_ms.push_back(
            static_cast<double>(h->queue_wait_ns() + h->exec_ns()) * 1e-6);
        queue_wait_ms.push_back(static_cast<double>(h->queue_wait_ns()) * 1e-6);
        break;
      case StatusCode::kResourceExhausted:
        ++r.shed;
        break;
      case StatusCode::kDeadlineExceeded:
        ++r.deadline_exceeded;
        break;
      default:
        ++r.other;
        break;
    }
  }
  r.completed_qps = wall > 0 ? static_cast<double>(r.ok) / wall : 0.0;
  if (!admitted_ms.empty()) {
    r.admitted_p50_ms = profiling::Percentile(admitted_ms, 0.5);
    r.admitted_p99_ms = profiling::Percentile(admitted_ms, 0.99);
    r.queue_wait_p50_ms = profiling::Percentile(queue_wait_ms, 0.5);
    r.queue_wait_p99_ms = profiling::Percentile(queue_wait_ms, 0.99);
  }
  r.queue_depth_peak = depth_peak.load();
  r.arena_peak_bytes = arena_peak.load();
  const serving::ServerStats stats = server.StatsSnapshot();
  r.batches = stats.batches_executed;
  r.occupancy_mean = r.batches > 0
                         ? static_cast<double>(stats.admitted) /
                               static_cast<double>(r.batches)
                         : 0.0;

  // The overload contract, asserted structurally on every run: the queue
  // depth honors its bound and the resident arenas never exceed the pool.
  const std::int64_t per_ctx =
      arena_bound_per_ctx > 0
          ? arena_bound_per_ctx
          : static_cast<std::int64_t>(model->arena_bytes());
  LCE_CHECK(r.queue_depth_peak <= depth &&
            "admission queue exceeded max_queue_depth under overload");
  LCE_CHECK(r.arena_peak_bytes <= static_cast<std::int64_t>(inflight) * per_ctx &&
            "resident arenas exceeded max_inflight * arena_bytes");
  return r;
}

// ---------------------------------------------------------------------------
// Dynamic-batching experiment (--batch).
// ---------------------------------------------------------------------------

// All-float ConvNet quantized to int8 by PTQ: five requantized int8 gemms
// dominate the per-request cost, the configuration where batch-N lanes
// amortize the packed-weight streaming best.
Graph BuildInt8Net(int hw) {
  Graph g;
  ModelBuilder b(g, 21);
  int x = b.Input(hw, hw, 3);
  x = b.Conv(x, 32, 3, 1, Padding::kSameZero, Activation::kRelu);
  x = b.Conv(x, 32, 3, 2, Padding::kSameZero, Activation::kRelu);
  x = b.Conv(x, 64, 3, 1, Padding::kSameZero, Activation::kRelu);
  x = b.Conv(x, 64, 3, 2, Padding::kSameZero, Activation::kRelu);
  x = b.Conv(x, 128, 3, 1, Padding::kSameZero, Activation::kRelu);
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 10);
  g.MarkOutput(x);
  PtqStats ptq;
  LCE_CHECK(QuantizeModelInt8(g, {}, &ptq).ok());
  LCE_CHECK(ptq.convs_quantized == 5);
  return g;
}

struct BatchLoopResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::int64_t requests = 0;
  std::int64_t batches = 0;
  double occupancy_mean = 0.0;
  std::int64_t queue_depth_peak = 0;
  std::int64_t arena_peak_bytes = 0;
};

// `streams` closed-loop clients blocking on Infer() against one bounded
// Server -- the equal-offered-load harness for comparing max_batch_size
// values. Asserts the queue-depth and resident-arena bounds throughout.
BatchLoopResult RunServerClosedLoop(
    const std::shared_ptr<const CompiledModel>& model, int streams,
    double seconds, int inflight, int depth, int max_batch,
    std::chrono::nanoseconds batch_timeout, std::int64_t arena_bound_per_ctx) {
  serving::ServerOptions sopts;
  sopts.max_inflight = inflight;
  sopts.max_queue_depth = depth;
  sopts.max_batch_size = max_batch;
  sopts.batch_timeout = batch_timeout;
  serving::Server server(model, sopts);

  std::vector<float> input;
  {
    ExecutionContext probe(model);
    Rng rng(78);
    input.resize(probe.input(0).num_elements());
    for (auto& v : input) v = rng.Uniform();
  }
  const auto fill = [&input](ExecutionContext& ctx) {
    std::memcpy(ctx.input(0).data<float>(), input.data(),
                input.size() * sizeof(float));
  };

  auto* arena_gauge = telemetry::MetricsRegistry::Global().Gauge(
      "serving.resident_arena_bytes");
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> arena_peak{0};
  std::atomic<std::int64_t> depth_peak{0};
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::int64_t v = arena_gauge->value();
      std::int64_t prev = arena_peak.load(std::memory_order_relaxed);
      while (v > prev && !arena_peak.compare_exchange_weak(
                             prev, v, std::memory_order_relaxed)) {
      }
      v = server.queue_depth();
      prev = depth_peak.load(std::memory_order_relaxed);
      while (v > prev && !depth_peak.compare_exchange_weak(
                             prev, v, std::memory_order_relaxed)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  std::vector<std::vector<double>> latencies(streams);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < streams; ++t) {
    clients.emplace_back([&, t] {
      // Warmup request (pool contexts + execute-estimate histogram).
      LCE_CHECK(server.Infer(fill).ok());
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        const auto t0 = std::chrono::steady_clock::now();
        const Status s = server.Infer(fill);
        LCE_CHECK(s.ok() && "closed-loop requests cannot be shed");
        const auto t1 = std::chrono::steady_clock::now();
        latencies[t].push_back(
            std::chrono::duration<double>(t1 - t0).count());
      }
    });
  }
  while (ready.load() < streams) std::this_thread::yield();
  const serving::ServerStats warm = server.StatsSnapshot();
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : clients) th.join();
  sampler.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  BatchLoopResult r;
  std::vector<double> all;
  for (const auto& per_stream : latencies) {
    r.requests += static_cast<std::int64_t>(per_stream.size());
    all.insert(all.end(), per_stream.begin(), per_stream.end());
  }
  r.qps = wall > 0 ? static_cast<double>(r.requests) / wall : 0.0;
  if (!all.empty()) {
    r.p50_ms = profiling::Percentile(all, 0.5) * 1e3;
    r.p99_ms = profiling::Percentile(all, 0.99) * 1e3;
  }
  const serving::ServerStats stats = server.StatsSnapshot();
  r.batches = stats.batches_executed - warm.batches_executed;
  const std::int64_t admitted = stats.admitted - warm.admitted;
  r.occupancy_mean =
      r.batches > 0 ? static_cast<double>(admitted) /
                          static_cast<double>(r.batches)
                    : 0.0;
  r.queue_depth_peak = depth_peak.load();
  r.arena_peak_bytes = arena_peak.load();
  LCE_CHECK(r.queue_depth_peak <= depth &&
            "admission queue exceeded max_queue_depth under batching");
  LCE_CHECK(r.arena_peak_bytes <=
                static_cast<std::int64_t>(inflight) * arena_bound_per_ctx &&
            "resident arenas exceeded max_inflight * batch-variant arena");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lce::bench;
  const auto profile = ParseProfile(argc, argv);
  const bool full = HasFlag(argc, argv, "--full");
  const std::string json_path = ParseJsonPath(argc, argv);
  const int pool_threads =
      std::atoi(ParseStringFlag(argc, argv, "--pool=", "1").c_str());
  const int input_hw =
      std::atoi(ParseStringFlag(argc, argv, "--input=", "224").c_str());
  const double seconds =
      std::atof(ParseStringFlag(argc, argv, "--seconds=", "0.6").c_str());
  const bool open_loop = HasFlag(argc, argv, "--open-loop");
  const double overload =
      std::atof(ParseStringFlag(argc, argv, "--overload=", "2.0").c_str());
  const int inflight =
      std::atoi(ParseStringFlag(argc, argv, "--inflight=", "2").c_str());
  const int queue_depth =
      std::atoi(ParseStringFlag(argc, argv, "--depth=", "16").c_str());
  const double deadline_flag_ms =
      std::atof(ParseStringFlag(argc, argv, "--deadline-ms=", "0").c_str());
  const bool batch = HasFlag(argc, argv, "--batch");
  const int max_batch =
      std::atoi(ParseStringFlag(argc, argv, "--max-batch=", "4").c_str());
  const int batch_streams =
      std::atoi(ParseStringFlag(argc, argv, "--batch-streams=", "8").c_str());
  const auto batch_timeout = std::chrono::microseconds(std::atoi(
      ParseStringFlag(argc, argv, "--batch-timeout-us=", "0").c_str()));
  const int batch_input =
      std::atoi(ParseStringFlag(argc, argv, "--batch-input=", "8").c_str());

  const unsigned cores = std::thread::hardware_concurrency();
  telemetry::RunReport report("bench_serving_throughput");
  report.AddMeta("profile", ProfileName(profile));
  report.AddMetaInt("input_hw", input_hw);
  report.AddMetaInt("pool_threads", pool_threads);
  report.AddMetaInt("hardware_concurrency", cores);

  std::vector<QuickNetConfig> configs = {QuickNetSmallConfig()};
  if (full) {
    configs.push_back(QuickNetMediumConfig());
    configs.push_back(QuickNetLargeConfig());
  }
  const std::vector<int> stream_counts = full
                                             ? std::vector<int>{1, 2, 3, 4, 5,
                                                                6, 7, 8}
                                             : std::vector<int>{1, 2, 4, 8};

  // Scaling is judged against what this host can actually run in parallel:
  // the largest measured stream count that fits within the detected core
  // count (a fixed 1 -> 4 target was meaningless on 1- and 2-core CI
  // containers). hardware_concurrency() == 0 means "unknown"; assume the
  // historical 4-core host in that case, but say so in the report.
  int scaling_target = 1;
  for (const int s : stream_counts) {
    if (s <= static_cast<int>(cores == 0 ? 4u : cores)) {
      scaling_target = std::max(scaling_target, s);
    }
  }
  report.AddMetaInt("scaling_target_streams", scaling_target);

  std::printf(
      "=== Serving throughput: shared CompiledModel, per-stream "
      "ExecutionContexts (profile=%s, pool=%d, input=%d, cores=%u) ===\n\n",
      ProfileName(profile), pool_threads, input_hw, cores);

  for (const auto& cfg : configs) {
    Graph g = BuildQuickNet(cfg, input_hw);
    LCE_CHECK(Convert(g).ok());
    CompileOptions copts;
    copts.num_threads = pool_threads;
    copts.kernel_profile = profile;
    std::shared_ptr<const CompiledModel> model;
    const Status compiled = CompiledModel::Compile(g, copts, &model);
    LCE_CHECK(compiled.ok());
    std::printf("%s: arena %.2f MiB/stream, packed weights %.2f MiB (shared)\n",
                cfg.name.c_str(), model->arena_bytes() / (1024.0 * 1024.0),
                model->packed_weight_bytes() / (1024.0 * 1024.0));
    std::printf("%8s %10s %10s %10s %10s %14s\n", "streams", "QPS", "p50-ms",
                "p99-ms", "requests", "packed-MiB");

    double qps1 = 0.0, qps_target = 0.0;
    const std::int64_t packed_before = ResidentPackedBytes();
    for (int streams : stream_counts) {
      const StreamResult r = RunStreams(
          model, streams, seconds,
          "bench.closed_loop." + cfg.name + ".streams" +
              std::to_string(streams) + "_ns");
      if (streams == 1) qps1 = r.qps;
      if (streams == scaling_target) qps_target = r.qps;
      std::printf("%8d %10.1f %10.2f %10.2f %10lld %14.2f\n", streams, r.qps,
                  r.p50_ms, r.p99_ms, static_cast<long long>(r.requests),
                  r.resident_packed_bytes / (1024.0 * 1024.0));
      LCE_CHECK(r.resident_packed_bytes == packed_before &&
                "packed weights must not scale with stream count");
      const std::string prefix =
          cfg.name + ".streams" + std::to_string(streams);
      report.AddResult(prefix + ".qps", r.qps);
      report.AddResult(prefix + ".p50_ms", r.p50_ms);
      report.AddResult(prefix + ".p99_ms", r.p99_ms);
    }
    if (qps1 > 0.0 && qps_target > 0.0) {
      const double scaling = qps_target / qps1;
      std::printf("  1 -> %d stream scaling: %.2fx (host exposes %u cores)\n\n",
                  scaling_target, scaling, cores);
      report.AddResult(cfg.name + ".scaling_1_to_" +
                           std::to_string(scaling_target),
                       scaling);
      report.AddResult(cfg.name + ".scaling_to_cores", scaling);
    }

    if (open_loop) {
      // Calibrate the sustainable rate: a closed loop with exactly
      // `inflight` streams is the fastest the bounded server can complete
      // work, by construction.
      const StreamResult closed = RunStreams(model, inflight, seconds);
      const double rate = std::max(1.0, overload * closed.qps);
      const double deadline_ms = deadline_flag_ms > 0.0
                                     ? deadline_flag_ms
                                     : 3.0 * std::max(closed.p99_ms, 1.0);
      std::printf(
          "  open-loop overload: Poisson %.1f qps (%.1fx of sustainable "
          "%.1f), inflight=%d, depth=%d, deadline=%.1f ms\n",
          rate, overload, closed.qps, inflight, queue_depth, deadline_ms);
      const OpenLoopResult ol = RunOpenLoop(model, rate, seconds, inflight,
                                            queue_depth, deadline_ms);
      std::printf(
          "    submitted %lld  ok %lld  shed %lld  deadline %lld  other "
          "%lld\n",
          static_cast<long long>(ol.submitted), static_cast<long long>(ol.ok),
          static_cast<long long>(ol.shed),
          static_cast<long long>(ol.deadline_exceeded),
          static_cast<long long>(ol.other));
      std::printf(
          "    admitted p50 %.2f ms  p99 %.2f ms (closed-loop p99 %.2f ms, "
          "ratio %.2fx)\n",
          ol.admitted_p50_ms, ol.admitted_p99_ms, closed.p99_ms,
          closed.p99_ms > 0 ? ol.admitted_p99_ms / closed.p99_ms : 0.0);
      std::printf(
          "    queue wait p50 %.2f ms  p99 %.2f ms  depth peak %lld/%d  "
          "arena peak %.2f MiB (bound %.2f MiB)\n\n",
          ol.queue_wait_p50_ms, ol.queue_wait_p99_ms,
          static_cast<long long>(ol.queue_depth_peak), queue_depth,
          ol.arena_peak_bytes / (1024.0 * 1024.0),
          inflight * model->arena_bytes() / (1024.0 * 1024.0));
      const std::string p = cfg.name + ".open_loop";
      report.AddResult(p + ".offered_qps", ol.offered_qps);
      report.AddResult(p + ".completed_qps", ol.completed_qps);
      report.AddResult(p + ".submitted", static_cast<double>(ol.submitted));
      report.AddResult(p + ".ok", static_cast<double>(ol.ok));
      report.AddResult(p + ".shed", static_cast<double>(ol.shed));
      report.AddResult(p + ".deadline_exceeded",
                       static_cast<double>(ol.deadline_exceeded));
      report.AddResult(p + ".admitted_p50_ms", ol.admitted_p50_ms);
      report.AddResult(p + ".admitted_p99_ms", ol.admitted_p99_ms);
      report.AddResult(p + ".closed_loop_p99_ms", closed.p99_ms);
      report.AddResult(p + ".queue_wait_p50_ms", ol.queue_wait_p50_ms);
      report.AddResult(p + ".queue_wait_p99_ms", ol.queue_wait_p99_ms);
      report.AddResult(p + ".queue_depth_peak",
                       static_cast<double>(ol.queue_depth_peak));
      report.AddResult(p + ".arena_peak_bytes",
                       static_cast<double>(ol.arena_peak_bytes));
    }
  }

  if (batch) {
    // Int8-heavy model at a small input: per-request work is light (the
    // gemm M dimension is a few hundred rows per sample), so the per-invoke
    // overheads and per-tile packed-weight streaming that lane batching
    // amortizes are a large share of the cost.
    Graph g = BuildInt8Net(batch_input);
    CompileOptions copts;
    copts.num_threads = pool_threads;
    std::shared_ptr<const CompiledModel> model;
    LCE_CHECK(CompiledModel::Compile(g, copts, &model).ok());

    // The arena bound under batching covers the largest variant; compiling
    // it ahead of the server also proves the packed weights are borrowed:
    // the resident gauge must not move for any batch variant.
    const std::int64_t packed_before = ResidentPackedBytes();
    std::shared_ptr<const CompiledModel> largest;
    LCE_CHECK(
        CompiledModel::GetOrCompileVariant(model, {0, max_batch}, &largest)
            .ok());
    LCE_CHECK(ResidentPackedBytes() == packed_before &&
              "batch variants must share, not duplicate, packed weights");
    const auto arena_bound =
        static_cast<std::int64_t>(largest->arena_bytes());

    std::printf(
        "=== Dynamic batching: int8net-%d, %d closed-loop streams, "
        "inflight=%d, max_batch=%d, timeout=%lld us ===\n",
        batch_input, batch_streams, inflight, max_batch,
        static_cast<long long>(batch_timeout.count()));
    const BatchLoopResult base = RunServerClosedLoop(
        model, batch_streams, seconds, inflight, queue_depth,
        /*max_batch=*/1, std::chrono::nanoseconds{0}, arena_bound);
    const BatchLoopResult batched = RunServerClosedLoop(
        model, batch_streams, seconds, inflight, queue_depth, max_batch,
        batch_timeout, arena_bound);
    LCE_CHECK(ResidentPackedBytes() == packed_before &&
              "packed weights must stay flat across the batched servers");
    const double speedup = base.qps > 0 ? batched.qps / base.qps : 0.0;
    std::printf("%12s %10s %10s %10s %10s %10s\n", "max_batch", "QPS",
                "p50-ms", "p99-ms", "batches", "occupancy");
    std::printf("%12d %10.1f %10.2f %10.2f %10lld %10.2f\n", 1, base.qps,
                base.p50_ms, base.p99_ms, static_cast<long long>(base.batches),
                base.occupancy_mean);
    std::printf("%12d %10.1f %10.2f %10.2f %10lld %10.2f\n", max_batch,
                batched.qps, batched.p50_ms, batched.p99_ms,
                static_cast<long long>(batched.batches),
                batched.occupancy_mean);
    std::printf(
        "  batching speedup %.2fx at equal offered load (target >= 1.2x); "
        "depth peak %lld/%d, arena peak %.2f/%.2f MiB\n\n",
        speedup, static_cast<long long>(batched.queue_depth_peak), queue_depth,
        batched.arena_peak_bytes / (1024.0 * 1024.0),
        inflight * arena_bound / (1024.0 * 1024.0));
    report.AddMetaInt("batch_streams", batch_streams);
    report.AddMetaInt("max_batch", max_batch);
    report.AddResult("int8net.batch1.qps", base.qps);
    report.AddResult("int8net.batch1.p99_ms", base.p99_ms);
    report.AddResult("int8net.batched.qps", batched.qps);
    report.AddResult("int8net.batched.p50_ms", batched.p50_ms);
    report.AddResult("int8net.batched.p99_ms", batched.p99_ms);
    report.AddResult("int8net.batched.occupancy_mean", batched.occupancy_mean);
    report.AddResult("int8net.batched.batches",
                     static_cast<double>(batched.batches));
    report.AddResult("int8net.batched.queue_depth_peak",
                     static_cast<double>(batched.queue_depth_peak));
    report.AddResult("int8net.batched.arena_peak_bytes",
                     static_cast<double>(batched.arena_peak_bytes));
    report.AddResult("int8net.batch_speedup", speedup);

    if (open_loop) {
      // Overload the batched server: Poisson arrivals above the batched
      // sustainable rate. Backlog raises occupancy; the bounds must hold.
      const double rate = std::max(1.0, overload * batched.qps);
      const double deadline_ms =
          deadline_flag_ms > 0.0 ? deadline_flag_ms
                                 : 3.0 * std::max(batched.p99_ms, 1.0);
      const OpenLoopResult ol =
          RunOpenLoop(model, rate, seconds, inflight, queue_depth,
                      deadline_ms, max_batch, batch_timeout, arena_bound);
      std::printf(
          "  open-loop batched overload: offered %.1f qps, ok %lld, shed "
          "%lld, deadline %lld, occupancy %.2f, depth peak %lld/%d\n\n",
          ol.offered_qps, static_cast<long long>(ol.ok),
          static_cast<long long>(ol.shed),
          static_cast<long long>(ol.deadline_exceeded), ol.occupancy_mean,
          static_cast<long long>(ol.queue_depth_peak), queue_depth);
      report.AddResult("int8net.open_loop.offered_qps", ol.offered_qps);
      report.AddResult("int8net.open_loop.completed_qps", ol.completed_qps);
      report.AddResult("int8net.open_loop.shed",
                       static_cast<double>(ol.shed));
      report.AddResult("int8net.open_loop.deadline_exceeded",
                       static_cast<double>(ol.deadline_exceeded));
      report.AddResult("int8net.open_loop.occupancy_mean", ol.occupancy_mean);
      report.AddResult("int8net.open_loop.admitted_p99_ms",
                       ol.admitted_p99_ms);
    }
  }
  std::printf(
      "Shape: QPS grows with streams (up to the core count -- aggregate\n"
      "throughput cannot scale past the cores the host exposes) while\n"
      "packed-MiB stays flat: one set of 32x-compressed weights serves every\n"
      "stream; only the per-stream arenas (intermediate activations) scale.\n");

  if (!json_path.empty()) {
    const Status st = report.WriteJson(json_path);
    if (st.ok()) {
      std::printf("[json] wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s: %s\n", json_path.c_str(),
                   st.message().c_str());
      return 1;
    }
  }
  return 0;
}
