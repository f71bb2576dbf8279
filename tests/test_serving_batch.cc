// Dynamic-batching tests (docs/SERVING.md, "Batching semantics"): the
// BatchScheduler's close rules (size, timeout, deadline-aware), batch-N
// bit-exactness against serial batch-1 execution across the pipeline
// variants (float conv, depthwise, binary conv, grouped binary conv, int8
// requantize), per-lane outcome isolation (one lane's cancellation or
// deadline evicts only that lane), the negative-deadline Submit regression,
// and the packed-weights-stay-flat guarantee for batch variants. Part of
// the CI ThreadSanitizer job (name matches the "serving" regex).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "converter/convert.h"
#include "converter/ptq.h"
#include "core/bitpack.h"
#include "core/cancellation.h"
#include "core/macros.h"
#include "core/random.h"
#include "gemm/context.h"
#include "graph/compiled_model.h"
#include "kernels/bconv2d.h"
#include "models/builder.h"
#include "serving/batch_scheduler.h"
#include "serving/context_pool.h"
#include "serving/server.h"
#include "telemetry/clock.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

using namespace std::chrono_literals;
using serving::BatchItem;
using serving::BatchScheduler;
using serving::ContextPool;
using serving::Request;
using serving::Server;
using serving::ServerOptions;

// ---------------------------------------------------------------------------
// BatchScheduler close rules. The scheduler moves opaque BatchItems, so
// these tests need no model at all.
// ---------------------------------------------------------------------------

BatchItem Item(std::int64_t deadline_ns = CancellationToken::kNoDeadline) {
  BatchItem item;
  item.enqueue_ns = telemetry::NowNanos();
  item.deadline_ns = deadline_ns;
  return item;
}

TEST(BatchScheduler, ClosesBySizeImmediately) {
  BatchScheduler::Options opts;
  opts.max_batch_size = 4;
  opts.batch_timeout_ns = std::chrono::nanoseconds(10s).count();
  BatchScheduler sched(opts);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sched.TryEnqueue(Item()).ok());
  }
  // A full batch must close without consuming any of the 10s timeout.
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<BatchItem> batch = sched.NextBatch();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_LT(elapsed, 2s) << "size-closed batches must not wait the timeout";
  EXPECT_EQ(sched.closed_full(), 1);
  EXPECT_EQ(sched.closed_timeout(), 0);
  EXPECT_EQ(sched.depth(), 0);
  EXPECT_EQ(sched.depth_peak(), 4);
}

TEST(BatchScheduler, ClosesByTimeoutWithPartialBatch) {
  BatchScheduler::Options opts;
  opts.max_batch_size = 8;
  opts.batch_timeout_ns = std::chrono::nanoseconds(30ms).count();
  BatchScheduler sched(opts);
  ASSERT_TRUE(sched.TryEnqueue(Item()).ok());
  ASSERT_TRUE(sched.TryEnqueue(Item()).ok());
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<BatchItem> batch = sched.NextBatch();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_GE(elapsed, 10ms) << "a partial batch should have held for lanes";
  EXPECT_EQ(sched.closed_full(), 0);
  EXPECT_EQ(sched.closed_timeout(), 1);
}

TEST(BatchScheduler, ZeroTimeoutIsOpportunistic) {
  BatchScheduler::Options opts;
  opts.max_batch_size = 8;
  opts.batch_timeout_ns = 0;
  BatchScheduler sched(opts);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sched.TryEnqueue(Item()).ok());
  }
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<BatchItem> batch = sched.NextBatch();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(batch.size(), 3u)
      << "opportunistic mode takes whatever is queued, all at once";
  EXPECT_LT(elapsed, 2s);
  EXPECT_EQ(sched.closed_timeout(), 1);
}

TEST(BatchScheduler, DeadlineAwareCloseBeatsTheTimeout) {
  // One queued request with a 60ms deadline and a 15ms execution estimate:
  // the batch must close around deadline - estimate, far before the 10s
  // timeout -- holding longer would make the lane miss its SLO inside the
  // scheduler.
  BatchScheduler::Options opts;
  opts.max_batch_size = 8;
  opts.batch_timeout_ns = std::chrono::nanoseconds(10s).count();
  opts.execute_estimate_ns = [] {
    return std::chrono::nanoseconds(15ms).count();
  };
  BatchScheduler sched(opts);
  const std::int64_t deadline =
      static_cast<std::int64_t>(telemetry::NowNanos()) +
      std::chrono::nanoseconds(60ms).count();
  ASSERT_TRUE(sched.TryEnqueue(Item(deadline)).ok());
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<BatchItem> batch = sched.NextBatch();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_LT(elapsed, 5s)
      << "the deadline-aware close must fire near deadline - estimate, "
         "not at the configured batch timeout";
  EXPECT_EQ(sched.closed_timeout(), 1);
}

TEST(BatchScheduler, BoundedQueueRefusesAndShutdownDrains) {
  BatchScheduler::Options opts;
  opts.max_queue_depth = 2;
  opts.max_batch_size = 4;
  opts.batch_timeout_ns = std::chrono::nanoseconds(10s).count();
  BatchScheduler sched(opts);
  int depth = 0;
  ASSERT_TRUE(sched.TryEnqueue(Item(), &depth).ok());
  EXPECT_EQ(depth, 1);
  ASSERT_TRUE(sched.TryEnqueue(Item(), &depth).ok());
  EXPECT_EQ(depth, 2);
  EXPECT_EQ(sched.TryEnqueue(Item()).code(), StatusCode::kResourceExhausted);

  const std::vector<BatchItem> drained = sched.Shutdown();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(sched.depth(), 0);
  EXPECT_EQ(sched.TryEnqueue(Item()).code(), StatusCode::kCancelled);
  EXPECT_TRUE(sched.NextBatch().empty())
      << "post-shutdown NextBatch is the executor exit signal";
}

// ---------------------------------------------------------------------------
// Batch-variant bit-exactness at the graph level. The batched run must be
// bit-identical, lane for lane, to serial batch-1 runs of the same inputs.
// ---------------------------------------------------------------------------

// Float conv + depthwise conv + binary conv + dense head, converted to the
// inference dialect. 16x16 input with stride-2 stem and SAME padding keeps
// the row-tile geometry non-trivial (odd spatial extents downstream).
Graph MakeBatchableGraph() {
  Graph g;
  ModelBuilder b(g, 7);
  int x = b.Input(16, 16, 3);
  x = b.Conv(x, 8, 3, 2, Padding::kSameZero);
  x = b.BatchNorm(x);
  x = b.Relu(x);
  x = b.DepthwiseConv(x, 3, 1, Padding::kSameZero);
  int y = b.BinaryConv(x, 32, 3, 1, Padding::kSameOne);
  y = b.BatchNorm(y);
  x = b.GlobalAvgPool(y);
  x = b.Dense(x, 10);
  g.MarkOutput(x);
  LCE_CHECK(Convert(g).ok());
  return g;
}

// All-float model quantized to int8 by PTQ: the batched path must carry the
// requantization pipeline bit-exactly too.
Graph MakeInt8Graph() {
  Graph g;
  ModelBuilder b(g, 13);
  int x = b.Input(16, 16, 3);
  x = b.Conv(x, 16, 3, 1, Padding::kSameZero, Activation::kRelu);
  x = b.Conv(x, 32, 3, 2, Padding::kSameZero, Activation::kRelu);
  x = b.Conv(x, 32, 3, 1, Padding::kSameZero);
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 10);
  g.MarkOutput(x);
  PtqStats stats;
  LCE_CHECK(QuantizeModelInt8(g, {}, &stats).ok());
  LCE_CHECK(stats.convs_quantized == 3);
  return g;
}

void FillInput(Tensor in, std::uint64_t seed) {
  Rng rng(seed);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<float>()[i] = rng.Uniform();
  }
}

std::vector<float> SerialReference(
    const std::shared_ptr<const CompiledModel>& model, std::uint64_t seed) {
  ExecutionContext exec(model);
  FillInput(exec.input(0), seed);
  exec.Invoke();
  const Tensor out = exec.output(0);
  return std::vector<float>(out.data<float>(),
                            out.data<float>() + out.num_elements());
}

void ExpectBatchedMatchesSerial(
    const std::shared_ptr<const CompiledModel>& base, int batch,
    std::uint64_t seed_base) {
  std::vector<std::vector<float>> refs;
  for (int i = 0; i < batch; ++i) {
    refs.push_back(SerialReference(base, seed_base + static_cast<std::uint64_t>(i)));
  }
  std::shared_ptr<const CompiledModel> variant;
  ASSERT_TRUE(
      CompiledModel::GetOrCompileVariant(base, {0, batch}, &variant).ok());
  ASSERT_EQ(variant->batch(), batch);

  ExecutionContext ctx(variant);
  for (int i = 0; i < batch; ++i) {
    ctx.set_io_lane(i);
    FillInput(ctx.input(0), seed_base + static_cast<std::uint64_t>(i));
  }
  ctx.clear_io_lane();
  CancellationToken none;
  ASSERT_TRUE(ctx.Invoke(&none).ok());
  for (int i = 0; i < batch; ++i) {
    ctx.set_io_lane(i);
    const Tensor out = ctx.output(0);
    ASSERT_EQ(static_cast<std::size_t>(out.num_elements()), refs[static_cast<std::size_t>(i)].size());
    EXPECT_EQ(0, std::memcmp(out.data<float>(),
                             refs[static_cast<std::size_t>(i)].data(),
                             refs[static_cast<std::size_t>(i)].size() * sizeof(float)))
        << "batch " << batch << " lane " << i
        << " diverged from its serial batch-1 reference";
  }
}

TEST(BatchVariant, MixedPipelineBitExactForBatch2And3And8) {
  static const Graph* g = new Graph(MakeBatchableGraph());
  std::shared_ptr<const CompiledModel> base;
  ASSERT_TRUE(CompiledModel::Compile(*g, {}, &base).ok());
  for (const int batch : {2, 3, 8}) {
    ExpectBatchedMatchesSerial(base, batch, 100 + static_cast<std::uint64_t>(batch));
  }
}

TEST(BatchVariant, Int8RequantizePipelineBitExactForBatch2And3And8) {
  static const Graph* g = new Graph(MakeInt8Graph());
  std::shared_ptr<const CompiledModel> base;
  ASSERT_TRUE(CompiledModel::Compile(*g, {}, &base).ok());
  for (const int batch : {2, 3, 8}) {
    ExpectBatchedMatchesSerial(base, batch, 500 + static_cast<std::uint64_t>(batch));
  }
}

TEST(BatchVariant, Batch1ReturnsTheBaseModelItself) {
  static const Graph* g = new Graph(MakeBatchableGraph());
  std::shared_ptr<const CompiledModel> base;
  ASSERT_TRUE(CompiledModel::Compile(*g, {}, &base).ok());
  std::shared_ptr<const CompiledModel> variant;
  ASSERT_TRUE(CompiledModel::GetOrCompileVariant(base, {0, 1}, &variant).ok());
  EXPECT_EQ(variant.get(), base.get());
}

// Batch variants must not duplicate packed weights: the resident gauge
// stays flat through variant compilation and handle release, and each
// variant reports zero resident bytes of its own.
TEST(BatchVariant, PackedWeightsStayFlatAcrossVariants) {
  static const Graph* g = new Graph(MakeBatchableGraph());
  auto* gauge = telemetry::MetricsRegistry::Global().Gauge(
      "weights.resident_packed_bytes");
  std::shared_ptr<const CompiledModel> base;
  ASSERT_TRUE(CompiledModel::Compile(*g, {}, &base).ok());
  ASSERT_GT(base->packed_weight_bytes(), 0u);
  const std::int64_t resident_with_base = gauge->value();
  {
    std::vector<std::shared_ptr<const CompiledModel>> variants;
    for (const int batch : {2, 3, 8}) {
      std::shared_ptr<const CompiledModel> v;
      ASSERT_TRUE(
          CompiledModel::GetOrCompileVariant(base, {0, batch}, &v).ok());
      EXPECT_EQ(v->packed_weight_bytes(), 0u)
          << "a batch variant must borrow, not own, the packed weights";
      variants.push_back(std::move(v));
    }
    EXPECT_EQ(gauge->value(), resident_with_base)
        << "compiling batch variants must not move the resident gauge";
  }
  EXPECT_EQ(gauge->value(), resident_with_base)
      << "dropping batch variant handles must not move the resident gauge";
}

// ---------------------------------------------------------------------------
// Kernel-level parity: the batch-variant sibling constructor against serial
// per-sample runs of the base kernel, for the grouped binarized convolution
// (no graph-level spelling exists for groups > 1) and for a geometry whose
// row tiles straddle sample boundaries (out_h*out_w not a multiple of the
// gemm row tile), exercising the gather_pack/TilePlan batch-boundary paths
// brute-force.
// ---------------------------------------------------------------------------

void ExpectSiblingMatchesSerial(const Conv2DGeometry& base_geo, int groups,
                                int batch, std::uint64_t seed) {
  Conv2DGeometry geo = base_geo;
  geo.batch = 1;
  const int in_c_pg = geo.in_c / groups;
  Rng rng(seed);
  std::vector<float> w(static_cast<std::size_t>(geo.out_c) * geo.filter_h *
                       geo.filter_w * in_c_pg);
  for (auto& v : w) v = rng.Sign();

  BConv2DAttrs attrs;
  attrs.geo = geo;
  attrs.groups = groups;
  attrs.output_type = BConvOutputType::kFloat;
  const BConv2D base(w.data(), attrs);

  BConv2DAttrs batched_attrs = attrs;
  batched_attrs.geo.batch = batch;
  const BConv2D sibling(base, batched_attrs);

  const int hw_in = geo.in_h * geo.in_w;
  const int out_elems = geo.out_h() * geo.out_w() * geo.out_c;
  Tensor in_f(DataType::kFloat32, Shape{batch, geo.in_h, geo.in_w, geo.in_c});
  FillSigns(in_f, rng);
  Tensor in_b(DataType::kBitpacked, in_f.shape());
  BitpackTensor(in_f, in_b);
  Tensor out(DataType::kFloat32,
             Shape{batch, geo.out_h(), geo.out_w(), geo.out_c});
  gemm::Context ctx(1);
  sibling.Run(in_b, out, ctx);

  for (int s = 0; s < batch; ++s) {
    Tensor sample_f(DataType::kFloat32,
                    Shape{1, geo.in_h, geo.in_w, geo.in_c});
    std::memcpy(sample_f.data<float>(),
                in_f.data<float>() +
                    static_cast<std::int64_t>(s) * hw_in * geo.in_c,
                static_cast<std::size_t>(hw_in) * geo.in_c * sizeof(float));
    Tensor sample_b(DataType::kBitpacked, sample_f.shape());
    BitpackTensor(sample_f, sample_b);
    Tensor ref(DataType::kFloat32,
               Shape{1, geo.out_h(), geo.out_w(), geo.out_c});
    base.Run(sample_b, ref, ctx);
    ASSERT_EQ(0, std::memcmp(out.data<float>() +
                                 static_cast<std::int64_t>(s) * out_elems,
                             ref.data<float>(),
                             static_cast<std::size_t>(out_elems) * sizeof(float)))
        << "groups=" << groups << " batch=" << batch << " sample " << s
        << " diverged from the serial base kernel";
  }
}

TEST(BatchVariantKernels, GroupedBConvSiblingMatchesSerialPerSample) {
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 5;
  geo.in_c = 128;
  geo.out_c = 16;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameOne;
  ExpectSiblingMatchesSerial(geo, /*groups=*/2, /*batch=*/3, 71);
}

TEST(BatchVariantKernels, RowTilesStraddlingSampleBoundaries) {
  // 5x5 SAME output = 25 rows per sample: no gemm row-tile width divides
  // it, so nearly every tile in the batched run straddles a sample
  // boundary -- the brute-force audit of the indirection/TilePlan
  // batch-boundary arithmetic, for both padding-correction modes.
  for (const Padding pad : {Padding::kSameOne, Padding::kSameZero}) {
    Conv2DGeometry geo;
    geo.in_h = geo.in_w = 5;
    geo.in_c = 64;
    geo.out_c = 8;
    geo.filter_h = geo.filter_w = 3;
    geo.padding = pad;
    ExpectSiblingMatchesSerial(geo, /*groups=*/1, /*batch=*/8,
                               pad == Padding::kSameOne ? 91 : 92);
  }
}

// ---------------------------------------------------------------------------
// Server-level batching: occupancy, bit-exactness through the request API,
// per-lane outcome isolation, and the Submit deadline regression.
// ---------------------------------------------------------------------------

std::shared_ptr<const CompiledModel> CompileServingModel() {
  static const Graph* g = new Graph(MakeBatchableGraph());
  std::shared_ptr<const CompiledModel> model;
  LCE_CHECK(CompiledModel::Compile(*g, {}, &model).ok());
  return model;
}

// Gate helper: blocks the (single) executor inside a throwaway request's
// fill so later submissions pile up in the scheduler and then execute as
// one batch when the gate opens.
struct ExecutorGate {
  std::promise<void> started;
  std::promise<void> gate_promise;
  std::shared_future<void> gate = gate_promise.get_future().share();

  std::shared_ptr<Request> Block(Server& server) {
    auto req = server.Submit([this](ExecutionContext& ctx) {
      started.set_value();
      gate.wait();
      FillInput(ctx.input(0), 1);
    });
    started.get_future().wait();
    return req;
  }
  void Open() { gate_promise.set_value(); }
};

TEST(ServingBatch, QueuedRequestsExecuteAsOneBatchBitExact) {
  auto model = CompileServingModel();
  std::vector<std::vector<float>> expected;
  for (int i = 0; i < 4; ++i) {
    expected.push_back(SerialReference(model, 200 + static_cast<std::uint64_t>(i)));
  }
  auto* occupancy =
      telemetry::MetricsRegistry::Global().Histogram("serving.batch_occupancy");
  const std::int64_t batches_before = occupancy->count();

  ServerOptions opts;
  opts.max_inflight = 1;
  opts.max_batch_size = 4;
  opts.batch_timeout = 0ns;  // opportunistic: batch whatever queued up
  Server server(model, opts);

  ExecutorGate gate;
  auto r0 = gate.Block(server);

  std::vector<std::vector<float>> got(4, std::vector<float>(10, -1.0f));
  std::vector<std::shared_ptr<Request>> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(server.Submit(
        [i](ExecutionContext& ctx) {
          FillInput(ctx.input(0), 200 + static_cast<std::uint64_t>(i));
        },
        [&got, i](const Status& s, ExecutionContext* ctx) {
          if (s.ok() && ctx != nullptr) {
            const float* o = ctx->output(0).data<float>();
            std::copy(o, o + 10, got[static_cast<std::size_t>(i)].begin());
          }
        }));
  }
  EXPECT_EQ(server.queue_depth(), 4);
  gate.Open();
  ASSERT_TRUE(r0->Wait().ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(reqs[static_cast<std::size_t>(i)]->Wait().ok());
    EXPECT_EQ(0, std::memcmp(got[static_cast<std::size_t>(i)].data(),
                             expected[static_cast<std::size_t>(i)].data(),
                             10 * sizeof(float)))
        << "lane " << i << " diverged from its serial reference";
  }

  const serving::ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.submitted, 5);
  EXPECT_EQ(stats.admitted, 5);
  EXPECT_EQ(stats.completed_ok, 5);
  EXPECT_EQ(stats.batches_executed, 2)
      << "one solo batch (the gate) + one size-closed batch of 4";
  EXPECT_EQ(occupancy->count() - batches_before, 2);
  EXPECT_EQ(stats.submitted, stats.shed + stats.expired_in_queue +
                                 stats.cancelled_in_queue + stats.admitted);
  EXPECT_EQ(stats.admitted, stats.completed_ok + stats.deadline_exceeded +
                                stats.cancelled + stats.failed);
}

TEST(ServingBatch, LaneCancellationMidBatchEvictsOnlyThatLane) {
  auto model = CompileServingModel();
  const std::vector<float> expected = SerialReference(model, 300);
  auto* quarantined = telemetry::MetricsRegistry::Global().Counter(
      "serving.pool.quarantined_total");
  const std::int64_t quarantined_before = quarantined->value();

  ServerOptions opts;
  opts.max_inflight = 1;
  opts.max_batch_size = 2;
  opts.batch_timeout = 0ns;
  Server server(model, opts);

  ExecutorGate gate;
  auto r0 = gate.Block(server);

  // Lane A's fill cancels lane B *during the scatter phase* -- after the
  // expired-in-queue filter ran, so the cancellation can only surface via
  // the per-lane eviction after the batch Invoke.
  std::shared_ptr<Request> victim;
  std::vector<float> got(10, -1.0f);
  std::atomic<bool> victim_output_seen{false};
  auto survivor = server.Submit(
      [&victim](ExecutionContext& ctx) {
        victim->Cancel();
        FillInput(ctx.input(0), 300);
      },
      [&got](const Status& s, ExecutionContext* ctx) {
        if (s.ok() && ctx != nullptr) {
          const float* o = ctx->output(0).data<float>();
          std::copy(o, o + 10, got.begin());
        }
      });
  victim = server.Submit(
      [](ExecutionContext& ctx) { FillInput(ctx.input(0), 301); },
      [&victim_output_seen](const Status& s, ExecutionContext* ctx) {
        if (ctx != nullptr) victim_output_seen.store(true);
        EXPECT_EQ(s.code(), StatusCode::kCancelled);
      });
  EXPECT_EQ(server.queue_depth(), 2);
  gate.Open();

  ASSERT_TRUE(r0->Wait().ok());
  EXPECT_TRUE(survivor->Wait().ok())
      << "a batchmate's cancellation must not fail the surviving lane";
  EXPECT_EQ(victim->Wait().code(), StatusCode::kCancelled);
  EXPECT_FALSE(victim_output_seen.load())
      << "an evicted lane must never see an output context";
  EXPECT_EQ(0, std::memcmp(got.data(), expected.data(), 10 * sizeof(float)))
      << "surviving lane diverged from its serial reference";
  EXPECT_EQ(quarantined->value(), quarantined_before)
      << "an Ok batch with an evicted lane leaves a clean, reusable context";

  const serving::ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.completed_ok, 2);
  EXPECT_EQ(stats.cancelled, 1) << "the eviction is an admitted-lane outcome";
  EXPECT_EQ(stats.admitted, stats.completed_ok + stats.deadline_exceeded +
                                stats.cancelled + stats.failed);
}

TEST(ServingBatch, LaneDeadlineExpiringMidBatchEvictsOnlyThatLane) {
  auto model = CompileServingModel();
  const std::vector<float> expected = SerialReference(model, 310);

  ServerOptions opts;
  opts.max_inflight = 1;
  opts.max_batch_size = 2;
  opts.batch_timeout = 0ns;
  Server server(model, opts);

  ExecutorGate gate;
  auto r0 = gate.Block(server);

  // Lane A arms lane B's deadline in the past during scatter (the
  // deterministic stand-in for "the deadline lapsed while the batch was
  // executing"): lane B must be evicted with kDeadlineExceeded while lane
  // A completes -- B's deadline must not cap the batch Invoke.
  std::shared_ptr<Request> doomed;
  std::vector<float> got(10, -1.0f);
  auto survivor = server.Submit(
      [&doomed](ExecutionContext& ctx) {
        doomed->token().set_deadline(CancellationToken::Clock::now() - 1ms);
        FillInput(ctx.input(0), 310);
      },
      [&got](const Status& s, ExecutionContext* ctx) {
        if (s.ok() && ctx != nullptr) {
          const float* o = ctx->output(0).data<float>();
          std::copy(o, o + 10, got.begin());
        }
      });
  doomed = server.Submit(
      [](ExecutionContext& ctx) { FillInput(ctx.input(0), 311); });
  gate.Open();

  ASSERT_TRUE(r0->Wait().ok());
  EXPECT_TRUE(survivor->Wait().ok());
  EXPECT_EQ(doomed->Wait().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(0, std::memcmp(got.data(), expected.data(), 10 * sizeof(float)));

  const serving::ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.completed_ok, 2);
  EXPECT_EQ(stats.admitted, stats.completed_ok + stats.deadline_exceeded +
                                stats.cancelled + stats.failed);
}

// Regression: a *negative* deadline used to be silently upgraded to
// default_deadline, granting an already-expired request a fresh budget. It
// must complete immediately with kDeadlineExceeded, before touching the
// queue; only an unset (zero) deadline takes the default.
TEST(ServingBatch, NegativeDeadlineCompletesImmediatelyNotUpgraded) {
  auto model = CompileServingModel();
  ServerOptions opts;
  opts.max_inflight = 1;
  opts.default_deadline = 1h;  // the upgrade, were it still there, never fires
  Server server(model, opts);

  std::atomic<bool> fill_ran{false};
  auto req = server.Submit(
      [&fill_ran](ExecutionContext&) { fill_ran.store(true); }, nullptr,
      /*deadline=*/-1ns);
  EXPECT_TRUE(req->done()) << "an expired-at-submit request is terminal "
                              "synchronously";
  EXPECT_EQ(req->status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(fill_ran.load());

  // The unset spelling still takes the (generous) default and succeeds.
  EXPECT_TRUE(server
                  .Infer([](ExecutionContext& ctx) {
                    FillInput(ctx.input(0), 5);
                  })
                  .ok());

  const serving::ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.expired_in_queue, 1);
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.submitted, stats.shed + stats.expired_in_queue +
                                 stats.cancelled_in_queue + stats.admitted);
}

// Multi-variant pool: the capacity bound covers all batch sizes together,
// and parked contexts of one batch size are evicted -- not leaked, not
// overcounted -- when another batch size needs the slot.
TEST(ServingBatch, PoolBoundsResidentContextsAcrossBatchSizes) {
  auto model = CompileServingModel();
  std::shared_ptr<const CompiledModel> batch4;
  ASSERT_TRUE(CompiledModel::GetOrCompileVariant(model, {0, 4}, &batch4).ok());
  ContextPool pool(model, /*capacity=*/1);

  std::unique_ptr<ExecutionContext> ctx;
  ASSERT_TRUE(pool.Acquire(0, 1, &ctx).ok());
  EXPECT_EQ(ctx->model().batch(), 1);
  pool.Release(std::move(ctx), Status::Ok());
  EXPECT_EQ(pool.pooled(), 1);

  // Acquiring the other batch size with the lone slot parked under batch-1
  // must evict the idle batch-1 context, keeping resident <= capacity.
  ASSERT_TRUE(pool.Acquire(0, 4, &ctx).ok());
  EXPECT_EQ(ctx->model().batch(), 4);
  EXPECT_EQ(pool.pooled(), 0);
  EXPECT_EQ(pool.outstanding(), 1);
  EXPECT_EQ(pool.evicted(), 1);
  pool.Release(std::move(ctx), Status::Ok());
  EXPECT_EQ(pool.pooled(), 1);

  EXPECT_EQ(pool.Acquire(0, 3, &ctx).code(), StatusCode::kInvalidArgument)
      << "batch sizes without a compiled variant are refused";
}

// TSan target: concurrent clients against a batching server with random
// cancellation -- batched scatter/gather, per-lane eviction and the
// scheduler's timed waits must all be race-free, and successful lanes stay
// bit-exact under concurrency.
TEST(ServingBatch, ConcurrentClientsAgainstBatchingServer) {
  auto model = CompileServingModel();
  const std::vector<float> expected = SerialReference(model, 333);
  ServerOptions opts;
  opts.max_inflight = 2;
  opts.max_batch_size = 4;
  opts.batch_timeout = 2ms;
  opts.max_queue_depth = 64;
  Server server(model, opts);

  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0}, other{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        std::vector<float> got(10, 0.0f);
        auto req = server.Submit(
            [](ExecutionContext& ctx) { FillInput(ctx.input(0), 333); },
            [&got](const Status& s, ExecutionContext* ctx) {
              if (s.ok() && ctx != nullptr) {
                const float* o = ctx->output(0).data<float>();
                std::copy(o, o + 10, got.begin());
              }
            });
        if ((c + i) % 3 == 0) req->Cancel();
        const Status s = req->Wait();
        if (s.ok()) {
          ok_count.fetch_add(1);
          ASSERT_EQ(0, std::memcmp(got.data(), expected.data(),
                                   10 * sizeof(float)))
              << "client " << c << " request " << i;
        } else {
          ASSERT_TRUE(s.code() == StatusCode::kCancelled ||
                      s.code() == StatusCode::kResourceExhausted)
              << s.ToString();
          other.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok_count.load() + other.load(), kClients * kPerClient);
  EXPECT_GT(ok_count.load(), 0);
  const serving::ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.admitted, stats.completed_ok + stats.deadline_exceeded +
                                stats.cancelled + stats.failed);
}

}  // namespace
}  // namespace lce
