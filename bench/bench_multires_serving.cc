// Mixed-resolution serving: one shape-bucketed QuickNet serving the zoo's
// multi-resolution scenarios concurrently (docs/SERVING.md,
// "Multi-resolution serving").
//
// One CompiledModel is compiled at the first requested resolution and
// bucketed at the rest (kZooInputResolutions by default: 96/160/224/320 px
// -- preview, reduced, canonical, high-detail). Two experiments:
//
//   * CLOSED LOOP, per bucket: client threads blocking on the shaped
//     Infer() of one resolution, measuring per-bucket QPS and latency
//     through the full serving path (shape routing, shape-keyed batching,
//     the (bucket, batch)-keyed context pool).
//   * OPEN LOOP, mixed: Poisson arrivals whose resolution is sampled per
//     request, offered to one bounded server at `--overload=X` times the
//     measured aggregate sustainable rate -- the traffic shape bucketed
//     compilation exists for. Reports per-bucket admitted latency and the
//     batch occupancy the mixed stream still achieves.
//
// Structural assertions, LCE_CHECKed on every run (the CI perf-smoke step
// runs this bench and greps for the [check] lines):
//
//   * `weights.resident_packed_bytes` stays FLAT from the moment the base
//     model is compiled, through every bucket and batch-variant compile,
//     to the end of the run: buckets borrow the packed weights, they never
//     duplicate them.
//   * no shaped request is shape-rejected, and the resident-arena peak
//     honors max_inflight * the largest bucket's batch-variant arena.
//
// `--smoke` shrinks the run for CI (96/160 px, short wall time); `--json=`
// writes the committed BENCH_multires.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "converter/convert.h"
#include "graph/compiled_model.h"
#include "graph/memory_planner.h"
#include "models/builder.h"
#include "models/zoo.h"
#include "serving/server.h"
#include "telemetry/metrics.h"
#include "telemetry/run_report.h"

namespace {

using namespace lce;

std::int64_t GaugeValue(const char* name) {
  return telemetry::MetricsRegistry::Global().Gauge(name)->value();
}

std::vector<int> ParseResolutions(const std::string& csv) {
  std::vector<int> out;
  std::string cur;
  for (const char c : csv + ",") {
    if (c == ',') {
      if (!cur.empty()) out.push_back(std::atoi(cur.c_str()));
      cur.clear();
    } else {
      cur += c;
    }
  }
  return out;
}

struct BucketResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::int64_t requests = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace lce::bench;
  const auto profile = ParseProfile(argc, argv);
  const std::string json_path = ParseJsonPath(argc, argv);
  const bool smoke = HasFlag(argc, argv, "--smoke");
  const double seconds = std::atof(
      ParseStringFlag(argc, argv, "--seconds=", smoke ? "0.25" : "0.6")
          .c_str());
  const int pool_threads =
      std::atoi(ParseStringFlag(argc, argv, "--pool=", "1").c_str());
  const int inflight =
      std::atoi(ParseStringFlag(argc, argv, "--inflight=", "2").c_str());
  const int queue_depth =
      std::atoi(ParseStringFlag(argc, argv, "--depth=", "32").c_str());
  const int max_batch =
      std::atoi(ParseStringFlag(argc, argv, "--max-batch=", "4").c_str());
  const double overload =
      std::atof(ParseStringFlag(argc, argv, "--overload=", "1.5").c_str());

  std::vector<int> resolutions;
  const std::string res_csv = ParseStringFlag(argc, argv, "--resolutions=");
  if (!res_csv.empty()) {
    resolutions = ParseResolutions(res_csv);
  } else if (smoke) {
    resolutions = {96, 160};
  } else {
    resolutions.assign(std::begin(kZooInputResolutions),
                       std::end(kZooInputResolutions));
  }
  LCE_CHECK(!resolutions.empty());

  telemetry::RunReport report("bench_multires_serving");
  report.AddMeta("profile", ProfileName(profile));
  report.AddMetaInt("pool_threads", pool_threads);
  report.AddMetaInt("inflight", inflight);
  report.AddMetaInt("max_batch", max_batch);
  report.AddMetaInt("buckets", static_cast<int>(resolutions.size()));

  // One QuickNet-S, compiled once at the first resolution; every other
  // resolution becomes a shape bucket sharing its packed weights. The
  // bucket list goes through CompileOptions so a misconfigured resolution
  // fails here, at startup.
  const QuickNetConfig cfg = QuickNetSmallConfig();
  Graph g = BuildQuickNet(cfg, resolutions.front());
  LCE_CHECK(Convert(g).ok());
  CompileOptions copts;
  copts.num_threads = pool_threads;
  copts.kernel_profile = profile;
  copts.input_resolutions = resolutions;
  std::shared_ptr<const CompiledModel> model;
  LCE_CHECK(CompiledModel::Compile(g, copts, &model).ok());
  const std::int64_t packed_resident =
      GaugeValue("weights.resident_packed_bytes");
  LCE_CHECK(model->packed_weight_bytes() > 0);

  // Per-bucket arena accounting straight from the registry buckets.
  std::vector<std::size_t> bucket_arenas;
  std::size_t max_bucket_arena = 0;
  for (const int hw : model->ShapeBucketResolutions()) {
    std::shared_ptr<const CompiledModel> bucket;
    LCE_CHECK(CompiledModel::GetOrCompileVariant(model, {hw, 1}, &bucket).ok());
    LCE_CHECK(bucket.get() == model.get() ||
              bucket->packed_weight_bytes() == 0);
    bucket_arenas.push_back(bucket->arena_bytes());
    max_bucket_arena = std::max(max_bucket_arena, bucket->arena_bytes());
  }
  const CrossBucketArena cross = PlanCrossBucketArena(bucket_arenas);
  std::printf(
      "=== Mixed-resolution serving: %s, %zu buckets, packed weights %.2f "
      "MiB (shared), arena high-water %.2f MiB vs unshared sum %.2f MiB "
      "===\n\n",
      cfg.name.c_str(), resolutions.size(),
      static_cast<double>(model->packed_weight_bytes()) / (1024.0 * 1024.0),
      static_cast<double>(cross.high_water) / (1024.0 * 1024.0),
      static_cast<double>(cross.unshared_sum) / (1024.0 * 1024.0));
  report.AddResult("arena.high_water_bytes",
                   static_cast<double>(cross.high_water));
  report.AddResult("arena.unshared_sum_bytes",
                   static_cast<double>(cross.unshared_sum));
  report.AddResult("weights.packed_bytes",
                   static_cast<double>(model->packed_weight_bytes()));

  serving::ServerOptions sopts;
  sopts.max_inflight = inflight;
  sopts.max_queue_depth = queue_depth;
  sopts.max_batch_size = max_batch;
  sopts.batch_timeout = std::chrono::nanoseconds{0};
  serving::Server server(model, sopts);
  LCE_CHECK(GaugeValue("weights.resident_packed_bytes") == packed_resident &&
            "server-side bucket/batch variants duplicated packed weights");

  // One canonical input per bucket, memcpy'd by the fill callbacks.
  std::map<int, std::vector<float>> inputs;
  for (const int hw : resolutions) {
    Rng rng(100 + hw);
    auto& v = inputs[hw];
    v.resize(static_cast<std::size_t>(hw) * hw * 3);
    for (auto& x : v) x = rng.Uniform();
  }
  const auto fill_for = [&inputs](int hw) {
    return [&inputs, hw](ExecutionContext& ctx) {
      const auto& v = inputs.at(hw);
      LCE_CHECK(static_cast<std::size_t>(ctx.input(0).num_elements()) ==
                    v.size() &&
                "shape routing handed a request the wrong bucket's arena");
      std::memcpy(ctx.input(0).data<float>(), v.data(),
                  v.size() * sizeof(float));
    };
  };

  // Resident-arena peak sampler for the whole benchmark.
  std::atomic<bool> stop_sampler{false};
  std::atomic<std::int64_t> arena_peak{0};
  std::thread sampler([&] {
    auto* gauge = telemetry::MetricsRegistry::Global().Gauge(
        "serving.resident_arena_bytes");
    while (!stop_sampler.load(std::memory_order_relaxed)) {
      std::int64_t v = gauge->value();
      std::int64_t prev = arena_peak.load(std::memory_order_relaxed);
      while (v > prev && !arena_peak.compare_exchange_weak(
                             prev, v, std::memory_order_relaxed)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  // ---- Closed loop, per bucket --------------------------------------------
  std::printf("%8s %10s %10s %10s %10s\n", "px", "QPS", "p50-ms", "p99-ms",
              "requests");
  double aggregate_qps = 0.0;
  std::map<int, BucketResult> closed;
  for (const int hw : resolutions) {
    const int streams = inflight;
    std::vector<std::vector<double>> lat(streams);
    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    const auto fill = fill_for(hw);
    for (int t = 0; t < streams; ++t) {
      clients.emplace_back([&, t] {
        LCE_CHECK(server.Infer(hw, fill).ok());  // warmup, not measured
        while (!stop.load(std::memory_order_relaxed)) {
          const auto t0 = std::chrono::steady_clock::now();
          const Status s = server.Infer(hw, fill);
          LCE_CHECK(s.ok() && "closed-loop shaped requests cannot fail");
          lat[t].push_back(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
        }
      });
    }
    const auto start = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : clients) th.join();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    BucketResult r;
    std::vector<double> all;
    for (const auto& per : lat) {
      r.requests += static_cast<std::int64_t>(per.size());
      all.insert(all.end(), per.begin(), per.end());
    }
    r.qps = wall > 0 ? static_cast<double>(r.requests) / wall : 0.0;
    if (!all.empty()) {
      r.p50_ms = profiling::Percentile(all, 0.5) * 1e3;
      r.p99_ms = profiling::Percentile(all, 0.99) * 1e3;
    }
    closed[hw] = r;
    aggregate_qps += r.qps;
    std::printf("%8d %10.1f %10.2f %10.2f %10lld\n", hw, r.qps, r.p50_ms,
                r.p99_ms, static_cast<long long>(r.requests));
    const std::string p = "closed." + std::to_string(hw) + "px";
    report.AddResult(p + ".qps", r.qps);
    report.AddResult(p + ".p50_ms", r.p50_ms);
    report.AddResult(p + ".p99_ms", r.p99_ms);
  }
  report.AddResult("closed.aggregate_qps", aggregate_qps);

  // ---- Open loop, mixed resolutions ---------------------------------------
  // Poisson arrivals; each request samples its resolution uniformly. A
  // uniform mix's sustainable rate is the HARMONIC mean of the per-bucket
  // closed-loop rates (mean service cost is the average of the buckets'
  // 1/qps, dominated by the slowest resolution); `--overload=` scales
  // that. A generous deadline keeps the focus on routing, not shedding.
  double inv_sum = 0.0;
  for (const auto& [hw, r] : closed) inv_sum += r.qps > 0 ? 1.0 / r.qps : 1.0;
  const double harmonic =
      static_cast<double>(resolutions.size()) / std::max(inv_sum, 1e-9);
  const double rate = std::max(1.0, overload * harmonic);
  double worst_p99_ms = 1.0;
  for (const auto& [hw, r] : closed) worst_p99_ms = std::max(worst_p99_ms, r.p99_ms);
  const auto deadline = std::chrono::nanoseconds(
      static_cast<std::int64_t>(worst_p99_ms * 20.0 * 1e6));
  std::printf(
      "\nopen loop: Poisson %.1f qps mixed uniformly over %zu resolutions, "
      "deadline %.0f ms\n",
      rate, resolutions.size(), worst_p99_ms * 20.0);

  const serving::ServerStats before_open = server.StatsSnapshot();
  std::vector<std::pair<int, std::shared_ptr<serving::Request>>> handles;
  Rng arrivals(13);
  const auto start = std::chrono::steady_clock::now();
  auto next = start;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() < seconds) {
    // Rng::Uniform() defaults to [-1, 1); the exponential gap and the
    // resolution pick both need [0, 1).
    const double u = arrivals.Uniform(0.0f, 1.0f);
    const double gap_s = -std::log(1.0 - u) / rate;
    next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(gap_s));
    std::this_thread::sleep_until(next);
    const int hw = resolutions[std::min(
        resolutions.size() - 1,
        static_cast<std::size_t>(arrivals.Uniform(0.0f, 1.0f) *
                                 static_cast<double>(resolutions.size())))];
    handles.emplace_back(hw, server.Submit(hw, fill_for(hw), nullptr, deadline));
  }
  for (auto& [hw, h] : handles) h->Wait();
  stop_sampler.store(true, std::memory_order_relaxed);
  sampler.join();

  std::map<int, std::vector<double>> admitted_ms;
  std::int64_t ok = 0, not_ok = 0;
  for (const auto& [hw, h] : handles) {
    if (h->status().ok()) {
      ++ok;
      admitted_ms[hw].push_back(
          static_cast<double>(h->queue_wait_ns() + h->exec_ns()) * 1e-6);
    } else {
      ++not_ok;
    }
  }
  std::printf("  submitted %zu  ok %lld  not-ok %lld\n", handles.size(),
              static_cast<long long>(ok), static_cast<long long>(not_ok));
  for (const int hw : resolutions) {
    auto& v = admitted_ms[hw];
    if (v.empty()) continue;
    std::printf("  %4d px: %5zu admitted, p50 %.2f ms, p99 %.2f ms\n", hw,
                v.size(), profiling::Percentile(v, 0.5),
                profiling::Percentile(v, 0.99));
    const std::string p = "open." + std::to_string(hw) + "px";
    report.AddResult(p + ".admitted", static_cast<double>(v.size()));
    report.AddResult(p + ".p50_ms", profiling::Percentile(v, 0.5));
    report.AddResult(p + ".p99_ms", profiling::Percentile(v, 0.99));
  }
  const serving::ServerStats stats = server.StatsSnapshot();
  const std::int64_t batches = stats.batches_executed - before_open.batches_executed;
  const std::int64_t admitted = stats.admitted - before_open.admitted;
  const double occupancy =
      batches > 0 ? static_cast<double>(admitted) / static_cast<double>(batches)
                  : 0.0;
  std::printf("  batches %lld, mean occupancy %.2f, shape buckets %d\n",
              static_cast<long long>(batches), occupancy, stats.shape_buckets);
  report.AddResult("open.occupancy_mean", occupancy);
  report.AddResult("open.batches", static_cast<double>(batches));
  report.AddResult("shape_buckets", static_cast<double>(stats.shape_buckets));

  // ---- The contract, asserted ---------------------------------------------
  const std::int64_t packed_after = GaugeValue("weights.resident_packed_bytes");
  LCE_CHECK(packed_after == packed_resident &&
            "packed weights moved during mixed-resolution serving");
  std::printf("\n[check] packed weights flat across %d buckets: OK (%.2f MiB)\n",
              stats.shape_buckets,
              static_cast<double>(packed_after) / (1024.0 * 1024.0));
  LCE_CHECK(stats.shape_rejected == 0 &&
            "a configured resolution was shape-rejected");
  std::printf("[check] shape_rejected == 0: OK\n");
  // The arena bound covers inflight contexts of the largest bucket's
  // largest batch variant (batch lanes scale the arena linearly).
  const std::int64_t arena_bound =
      static_cast<std::int64_t>(inflight) *
      static_cast<std::int64_t>(max_bucket_arena) * max_batch;
  LCE_CHECK(arena_peak.load() <= arena_bound &&
            "resident arenas exceeded the bucketed-pool bound");
  std::printf("[check] arena peak %.2f MiB within bound %.2f MiB: OK\n",
              static_cast<double>(arena_peak.load()) / (1024.0 * 1024.0),
              static_cast<double>(arena_bound) / (1024.0 * 1024.0));
  report.AddResult("arena.peak_bytes",
                   static_cast<double>(arena_peak.load()));

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
