#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <malloc.h>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "converter/convert.h"
#include "converter/ptq.h"
#include "converter/serializer.h"
#include "core/random.h"
#include "core/thread_pool.h"
#include "graph/compiled_model.h"
#include "graph/shape_variant.h"
#include "models/zoo.h"
#include "serving/server.h"
#include "telemetry/metrics.h"

namespace perfbench {
namespace {

using namespace std::chrono_literals;
using lce::CompiledModel;
using lce::CompileOptions;
using lce::ExecutionContext;
using lce::ExecutionOptions;
using lce::Graph;
using lce::OpProfile;
using lce::Status;
using lce::Tensor;
using lce::serving::Request;
using lce::serving::Server;
using lce::serving::ServerOptions;
using lce::serving::ServerStats;

// Seeded inputs per resolution. Every request carries one of them, so every
// output is checked against the reference computed for that input.
constexpr int kProbes = 4;
// SIMD-vs-scalar tolerance, the one tests/test_integration.cc uses.
constexpr double kScalarTolerance = 1e-4;
// max_rate_rps: the highest offered rate whose tail stays under the
// workload's latency limit with at most kFailLimit of the requests failed
// and no growing backlog. Ladder requests carry a deadline of twice the
// limit, which bounds the drain after an overloaded trial.
constexpr double kFailLimit = 0.01;
constexpr int kLadderTrials = 4;
constexpr int kLadderRetries = 2;
constexpr int kLadderFallbacks = 4;
constexpr double kLadderStep = 1.1;
// setup_s is the median over this many setups per run.
constexpr int kSetups = 5;
// Traced runs keep per-node spans for this many requests (request-level
// spans are kept for all of them).
constexpr int kNodeSpanRequests = 200;

struct Spec {
  const char* name;
  Graph (*build)(int hw);
  bool ptq;
  int model_threads;  // CompileOptions::num_threads of the served model
  bool served;        // through serving::Server (else ExecutionContext)
  std::vector<int> resolutions;  // front() is the model's own resolution
  int max_inflight;
  int max_batch;
  int outstanding;       // closed loop: requests kept in flight; 0 = open
  double open_rate_rps;  // open-loop main phase: Poisson rate
  std::chrono::milliseconds deadline;  // per request; 0 = none
  std::chrono::milliseconds tail_limit;  // max_rate_rps latency limit
  std::chrono::milliseconds batch_timeout;  // ServerOptions::batch_timeout
};

Graph BuildQuickNetLarge(int hw) {
  return lce::BuildQuickNet(lce::QuickNetLargeConfig(), hw);
}
Graph BuildQuickNetSmall(int hw) {
  return lce::BuildQuickNet(lce::QuickNetSmallConfig(), hw);
}
Graph BuildResNet18(int hw) { return lce::BuildFloatResNet18(hw); }

const Spec* FindSpec(const std::string& name) {
  // edge_latency: the paper's single-image on-device case; all parallelism
  // is intra-op (caller + 3 pool workers), serving is bypassed.
  // int8_batch: the paper's int8 PTQ baseline under dynamic batching; no
  // binary kernels and no intra-op threads, so binary and intra-op
  // optimisations must leave it unchanged. 12 outstanding requests and a
  // 20 ms batch timeout keep every executor on a full batch of 4: with 8
  // outstanding, or without the timeout (a freed executor then takes
  // whatever part of the 4 resubmitted requests has arrived), the batch mix
  // and with it the throughput change from run to run. A full batch of 4
  // takes about 200 ms, so its latency limit is 500 ms: at 100 ms any
  // batch misses, and max_rate_rps would count arrival bursts, not capacity.
  // serve_mixed_open: independent users at one fixed Poisson rate and a
  // uniform 96/160/224/320 px mix; exercises queueing, shape-keyed
  // batching and the (bucket, batch) context pool.
  static const Spec kSpecs[] = {
      {"edge_latency", BuildQuickNetLarge, false, 4, false, {224}, 0, 1, 1,
       0.0, 0ms, 100ms, 0ms},
      {"int8_batch", BuildResNet18, true, 1, true, {224}, 3, 4, 12, 0.0, 0ms,
       500ms, 20ms},
      {"serve_mixed_open", BuildQuickNetSmall, false, 1, true,
       {224, 96, 160, 320}, 3, 4, 0, 120.0, 200ms, 100ms, 0ms},
  };
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

int Tid() {
  static std::atomic<int> next{1};
  thread_local const int tid = next.fetch_add(1);
  return tid;
}

// ---------------------------------------------------------------------------
// Inputs and reference outputs.
// ---------------------------------------------------------------------------

struct Probes {
  std::map<int, std::vector<std::vector<float>>> in;
  std::map<int, std::vector<std::vector<float>>> ref;
};

std::vector<float> ReadOutput(ExecutionContext& ctx) {
  Tensor out = ctx.output(0);
  const float* p = out.data<float>();
  return std::vector<float>(p, p + out.num_elements());
}

bool WriteInput(ExecutionContext& ctx, const std::vector<float>& in) {
  Tensor t = ctx.input(0);
  if (static_cast<std::size_t>(t.num_elements()) != in.size()) return false;
  std::memcpy(t.data<float>(), in.data(), in.size() * sizeof(float));
  return true;
}

// The reference for every probe: a 1-thread batch-1 SIMD compile of the
// loaded model at each resolution (a fresh single-shape compile, not a
// shape bucket). A kScalar compile must agree with it within
// kScalarTolerance; the largest difference is returned.
Status BuildReference(const Spec& s, const Graph& loaded, Probes* probes,
                      double* scalar_max_diff) {
  *scalar_max_diff = 0.0;
  for (const int hw : s.resolutions) {
    std::unique_ptr<Graph> clone;
    const Graph* g = &loaded;
    if (hw != s.resolutions.front()) {
      Status st = lce::CloneGraphWithInputSize(loaded, hw, &clone);
      if (!st.ok()) return st;
      g = clone.get();
    }
    for (const auto profile :
         {lce::gemm::KernelProfile::kSimd, lce::gemm::KernelProfile::kScalar}) {
      CompileOptions co;
      co.num_threads = 1;
      co.kernel_profile = profile;
      std::shared_ptr<const CompiledModel> model;
      Status st = CompiledModel::Compile(*g, co, &model);
      if (!st.ok()) return st;
      ExecutionContext ctx(model);
      for (int p = 0; p < kProbes; ++p) {
        if (!WriteInput(ctx, probes->in.at(hw)[p])) {
          return Status::Internal("probe input size mismatch");
        }
        st = ctx.Invoke(nullptr);
        if (!st.ok()) return st;
        if (profile == lce::gemm::KernelProfile::kSimd) {
          probes->ref[hw].push_back(ReadOutput(ctx));
        } else {
          *scalar_max_diff = std::max(
              *scalar_max_diff, MaxAbsDiff(ReadOutput(ctx), probes->ref[hw][p]));
        }
      }
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Setup: seeded training graph -> first correct result.
// ---------------------------------------------------------------------------

struct Deployed {
  std::unique_ptr<Graph> graph;  // the loaded model; compiled models borrow it
  std::shared_ptr<const CompiledModel> model;
  std::unique_ptr<Server> server;
  std::unique_ptr<ExecutionContext> ctx;

  void Reset() {
    server.reset();
    ctx.reset();
    model.reset();
    graph.reset();
  }
  ~Deployed() { Reset(); }
};

struct SetupTimes {
  double convert_s = 0, ptq_s = 0, serialize_s = 0, load_s = 0;
  double compile_s = 0, variant_s = 0, total_s = 0;
  double model_bytes = 0;
};

ServerOptions MakeServerOptions(const Spec& s, bool profiling) {
  ServerOptions o;
  o.max_inflight = s.max_inflight;
  o.max_batch_size = s.max_batch;
  o.batch_timeout = s.batch_timeout;
  o.input_resolutions = s.resolutions;
  o.lazy_shape_compile = false;
  o.execution.enable_profiling = profiling;
  return o;
}

Status Deploy(const Spec& s, const Graph& training, std::uint64_t seed,
              const std::vector<float>& first_input, SpanLog& spans,
              Deployed* d, SetupTimes* t, std::vector<float>* first_out) {
  Graph g = lce::CloneGraph(training);  // input generation, not timed
  const int tid = Tid();
  const std::uint64_t t0 = NowNs();
  Status st = lce::Convert(g);
  const std::uint64_t t1 = NowNs();
  spans.Add("Convert", "converter", t0, t1, 0, tid);
  if (!st.ok()) return st;
  std::uint64_t t2 = t1;
  if (s.ptq) {
    lce::PtqOptions po;
    po.calibration_seed = seed * 31 + 1234;
    st = lce::QuantizeModelInt8(g, po);
    t2 = NowNs();
    spans.Add("QuantizeModelInt8", "converter", t1, t2, 0, tid);
    if (!st.ok()) return st;
  }
  std::vector<std::uint8_t> bytes = lce::SerializeGraph(g);
  const std::uint64_t t3 = NowNs();
  spans.Add("SerializeGraph", "converter", t2, t3, 0, tid);
  d->graph = std::make_unique<Graph>();
  st = lce::DeserializeGraph(bytes.data(), bytes.size(), d->graph.get());
  const std::uint64_t t4 = NowNs();
  spans.Add("DeserializeGraph", "converter", t3, t4, 0, tid);
  if (!st.ok()) return st;
  CompileOptions co;
  co.num_threads = s.model_threads;
  st = CompiledModel::Compile(*d->graph, co, &d->model);
  const std::uint64_t t5 = NowNs();
  spans.Add("CompiledModel::Compile", "graph", t4, t5, 0, tid);
  if (!st.ok()) return st;
  if (s.served) {
    d->server = std::make_unique<Server>(d->model, MakeServerOptions(s, false));
  } else {
    d->ctx = std::make_unique<ExecutionContext>(d->model);
  }
  const std::uint64_t t6 = NowNs();
  spans.Add(s.served ? "serving::Server" : "ExecutionContext", "graph", t5, t6,
            0, tid);
  if (s.served) {
    st = d->server->Infer(
        s.resolutions.front(),
        [&](ExecutionContext& c) { WriteInput(c, first_input); },
        [&](ExecutionContext& c) { *first_out = ReadOutput(c); });
  } else {
    if (!WriteInput(*d->ctx, first_input)) {
      return Status::Internal("input size mismatch");
    }
    st = d->ctx->Invoke(nullptr);
    if (st.ok()) *first_out = ReadOutput(*d->ctx);
  }
  const std::uint64_t t7 = NowNs();
  spans.Add("first_request", s.served ? "serving" : "graph", t6, t7, 0, tid);
  if (!st.ok()) return st;
  t->convert_s = (t1 - t0) * 1e-9;
  t->ptq_s = (t2 - t1) * 1e-9;
  t->serialize_s = (t3 - t2) * 1e-9;
  t->load_s = (t4 - t3) * 1e-9;
  t->compile_s = (t5 - t4) * 1e-9;
  t->variant_s = s.served ? (t6 - t5) * 1e-9 : 0.0;
  t->total_s = (t7 - t0) * 1e-9;
  t->model_bytes = static_cast<double>(bytes.size());
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Request records. One per request; written by the executor that completes
// it, read by the generator once the request's handle is done.
// ---------------------------------------------------------------------------

struct Rec {
  int hw = 0;
  int probe = 0;
  std::uint64_t due = 0, submit = 0, fill = 0, invoke0 = 0, invoke1 = 0,
                done = 0;
  int lanes = 0;
  bool ok = false;
  bool mismatch = false;
  std::int64_t id = 0;
  std::int64_t queue_ns = 0, exec_ns = 0;
  std::vector<OpProfile> nodes;  // sampled per-node profile (traced runs)
};

// Latency of a request: open loops count from the due time, so a stall
// also delays the requests queued behind it; closed loops from submission.
double LatencyMs(const Rec& r, bool open_loop) {
  return static_cast<double>(r.done - (open_loop ? r.due : r.submit)) * 1e-6;
}

struct Arrival {
  double t_s;
  int hw;
  int probe;
};

// Poisson arrivals at `rate` over `seconds`, conditioned on their count:
// round(rate * seconds) arrival times drawn uniformly and sorted, so every
// seed offers the same load. Resolutions are an exactly balanced shuffled
// mix; probe inputs are drawn uniformly.
std::vector<Arrival> Schedule(lce::Rng& rng, double rate, double seconds,
                              const std::vector<int>& resolutions) {
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<Arrival> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].t_s = seconds * static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
    out[i].hw = resolutions[i % resolutions.size()];
    out[i].probe = static_cast<int>(rng.UniformInt(kProbes));
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(out[i - 1].hw, out[rng.UniformInt(i)].hw);
  }
  std::sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    return a.t_s < b.t_s;
  });
  return out;
}

void SleepUntilNs(std::uint64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(static_cast<std::int64_t>(t))));
}

// Invoke window of the batch the executor thread is running: the last
// lane's fill ends right before Invoke, the first successful lane's done
// callback runs right after it.
thread_local std::uint64_t tl_fill_end = 0;
thread_local std::uint64_t tl_invoke_end = 0;

// State shared by the served request callbacks of one phase.
struct ServeState {
  const Probes* probes = nullptr;
  bool profiling = false;
  std::mutex mu;
  std::condition_variable cv;
  int outstanding = 0;
  Attribution attr;           // guarded by mu
  int node_samples_left = 0;  // guarded by mu
};

struct ServedPhase {
  std::deque<Rec> recs;
  std::vector<std::shared_ptr<Request>> handles;
  PhaseSampler sampler;
  std::vector<double> lag_ms;  // open loop: submit - due
  // Summed over the phase's windows: first submit to last completion, and
  // the server's outcome counters.
  double seconds = 0.0;
  ServerStats delta;
  // The ServerStats invariants held at the end of every window (server
  // idle), and the deepest queue seen.
  bool invariants_hold = true;
  int queue_depth_peak = 0;
};

void AddDelta(ServerStats* sum, const ServerStats& a, const ServerStats& b) {
  sum->submitted += a.submitted - b.submitted;
  sum->shed += a.shed - b.shed;
  sum->expired_in_queue += a.expired_in_queue - b.expired_in_queue;
  sum->cancelled_in_queue += a.cancelled_in_queue - b.cancelled_in_queue;
  sum->admitted += a.admitted - b.admitted;
  sum->completed_ok += a.completed_ok - b.completed_ok;
  sum->deadline_exceeded += a.deadline_exceeded - b.deadline_exceeded;
  sum->cancelled += a.cancelled - b.cancelled;
  sum->failed += a.failed - b.failed;
  sum->batches_executed += a.batches_executed - b.batches_executed;
}

std::shared_ptr<Request> SubmitRec(Server& server, ServeState& st, Rec* r,
                                   std::chrono::milliseconds deadline) {
  auto fill = [r, &st](ExecutionContext& c) {
    r->fill = NowNs();
    WriteInput(c, st.probes->in.at(r->hw)[r->probe]);
    tl_fill_end = NowNs();
    tl_invoke_end = 0;
  };
  auto done = [r, &st](const Status& status, ExecutionContext* c) {
    const std::uint64_t now = NowNs();
    r->ok = status.ok() && c != nullptr;
    if (r->ok) {
      const bool first = tl_invoke_end == 0;
      if (first) tl_invoke_end = now;
      r->invoke0 = tl_fill_end;
      r->invoke1 = tl_invoke_end;
      r->lanes = c->model().batch();
      const std::vector<float>& ref = st.probes->ref.at(r->hw)[r->probe];
      Tensor out = c->output(0);
      r->mismatch = static_cast<std::size_t>(out.num_elements()) != ref.size() ||
                    !SameBits(out.data<float>(), ref);
      if (first && st.profiling) {
        std::lock_guard<std::mutex> lock(st.mu);
        st.attr.Add(c->profile(), (r->invoke1 - r->invoke0) * 1e-9, r->lanes);
        if (st.node_samples_left > 0) {
          --st.node_samples_left;
          r->nodes = c->profile();
        }
      }
    }
    r->done = now;
    {
      std::lock_guard<std::mutex> lock(st.mu);
      --st.outstanding;
    }
    st.cv.notify_all();
  };
  {
    std::lock_guard<std::mutex> lock(st.mu);
    ++st.outstanding;
  }
  r->submit = NowNs();
  return server.Submit(r->hw, fill, done, deadline);
}

// Waits for the window's requests (those from `first` on) and books the
// window's server counters.
void FinishServedWindow(Server& server, ServedPhase* ph, std::uint64_t t0,
                        const ServerStats& before, std::size_t first) {
  std::uint64_t last = t0;
  for (std::size_t i = first; i < ph->handles.size(); ++i) {
    ph->handles[i]->Wait();
    Rec& r = ph->recs[i];
    r.id = ph->handles[i]->id();
    r.queue_ns = ph->handles[i]->queue_wait_ns();
    r.exec_ns = ph->handles[i]->exec_ns();
    last = std::max(last, r.done);
  }
  ph->seconds += static_cast<double>(last - t0) * 1e-9;
  const ServerStats a = server.StatsSnapshot();
  AddDelta(&ph->delta, a, before);
  ph->invariants_hold =
      ph->invariants_hold &&
      a.submitted == a.shed + a.expired_in_queue + a.cancelled_in_queue +
                         a.admitted &&
      a.admitted ==
          a.completed_ok + a.deadline_exceeded + a.cancelled + a.failed;
  ph->queue_depth_peak = std::max(ph->queue_depth_peak, a.queue_depth_peak);
}

// Closed loop: one generator keeps `outstanding` requests in flight.
void ServeClosedLoop(Server& server, ServeState& st, const Spec& s,
                     lce::Rng& rng, double seconds, ServedPhase* ph) {
  const ServerStats before = server.StatsSnapshot();
  const std::size_t first = ph->handles.size();
  const std::uint64_t t0 = NowNs();
  const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  ph->sampler.Start();
  for (;;) {
    const std::uint64_t now = NowNs();
    if (now >= end) break;
    ph->sampler.Tick();
    {
      std::unique_lock<std::mutex> lock(st.mu);
      if (st.outstanding >= s.outstanding) {
        st.cv.wait_for(lock, 20ms);
        continue;
      }
    }
    ph->recs.emplace_back();
    Rec* r = &ph->recs.back();
    r->hw = s.resolutions.front();
    r->probe = static_cast<int>(rng.UniformInt(kProbes));
    r->due = NowNs();
    ph->handles.push_back(SubmitRec(server, st, r, s.deadline));
  }
  ph->sampler.Finish();
  FinishServedWindow(server, ph, t0, before, first);
}

// Open loop: requests are submitted at their scheduled times whatever the
// server's state; the generator's own lateness is recorded.
void ServeOpenLoop(Server& server, ServeState& st,
                   const std::vector<Arrival>& arrivals,
                   std::chrono::milliseconds deadline, ServedPhase* ph) {
  const ServerStats before = server.StatsSnapshot();
  const std::size_t first = ph->handles.size();
  const std::uint64_t t0 = NowNs() + 1'000'000;
  ph->sampler.Start();
  for (const Arrival& a : arrivals) {
    const std::uint64_t due = t0 + static_cast<std::uint64_t>(a.t_s * 1e9);
    if (NowNs() < due) SleepUntilNs(due);
    ph->recs.emplace_back();
    Rec* r = &ph->recs.back();
    r->hw = a.hw;
    r->probe = a.probe;
    r->due = due;
    ph->handles.push_back(SubmitRec(server, st, r, deadline));
    ph->lag_ms.push_back(static_cast<double>(r->submit - due) * 1e-6);
    ph->sampler.Tick();
  }
  ph->sampler.Finish();
  FinishServedWindow(server, ph, t0, before, first);
}

// Phase accounting from the records, reconciled against the server's
// outcome counters and their documented invariants.
Phase AccountServed(const std::string& name, const ServedPhase& ph,
                    bool* reconciled) {
  Phase p;
  p.name = name;
  std::int64_t ok_status = 0;
  for (const Rec& r : ph.recs) {
    ++p.attempted;
    if (r.ok) ++ok_status;
    if (r.ok && !r.mismatch) {
      ++p.succeeded;
    } else {
      ++p.failed;
      if (r.mismatch) ++p.mismatched;
    }
  }
  const ServerStats& d = ph.delta;
  p.detail["submitted"] = d.submitted;
  p.detail["shed"] = d.shed;
  p.detail["expired_in_queue"] = d.expired_in_queue;
  p.detail["cancelled_in_queue"] = d.cancelled_in_queue;
  p.detail["admitted"] = d.admitted;
  p.detail["completed_ok"] = d.completed_ok;
  p.detail["deadline_exceeded"] = d.deadline_exceeded;
  p.detail["cancelled"] = d.cancelled;
  p.detail["server_failed"] = d.failed;
  p.detail["batches"] = d.batches_executed;
  const bool ok = ph.invariants_hold && d.submitted == p.attempted &&
                  d.completed_ok == ok_status;
  p.detail["reconciled"] = ok ? 1 : 0;
  *reconciled = *reconciled && ok;
  return p;
}

// Successful latencies in arrival order; `quiet_only` keeps the requests
// that started in the sampler's kept blocks.
std::vector<double> OkLatencies(const ServedPhase& ph, bool open_loop,
                                bool quiet_only = false) {
  std::vector<double> v;
  for (const Rec& r : ph.recs) {
    if (!r.ok || r.mismatch) continue;
    if (quiet_only && !ph.sampler.Kept(open_loop ? r.due : r.submit)) continue;
    v.push_back(LatencyMs(r, open_loop));
  }
  return v;
}

// ---------------------------------------------------------------------------
// Unserved (ExecutionContext) loops, for edge_latency.
// ---------------------------------------------------------------------------

struct InlinePhase {
  Phase phase;
  std::vector<double> lat_ms;
  std::vector<std::uint64_t> start_ns;  // per lat_ms sample
  PhaseSampler sampler;
  double seconds = 0.0;
  Attribution attr;

  std::vector<double> QuietLatencies() const {
    std::vector<double> v;
    for (std::size_t i = 0; i < lat_ms.size(); ++i) {
      if (sampler.Kept(start_ns[i])) v.push_back(lat_ms[i]);
    }
    return v;
  }
};

// One request on the caller's context; returns false on a failed or wrong
// result. Traced runs record the invoke span and (sampled) node spans.
bool InvokeOnce(ExecutionContext& ctx, const Probes& probes, int hw, int p,
                std::int64_t req, SpanLog* spans, int* node_budget,
                InlinePhase* ph, std::uint64_t due) {
  WriteInput(ctx, probes.in.at(hw)[p]);
  const std::uint64_t t0 = NowNs();
  Status st = ctx.Invoke(nullptr);
  const std::uint64_t t1 = NowNs();
  ++ph->phase.attempted;
  if (!st.ok()) {
    ctx.Reset();
    ++ph->phase.failed;
    ++ph->phase.detail["invoke_failed"];
    return false;
  }
  Tensor out = ctx.output(0);
  if (!SameBits(out.data<float>(), probes.ref.at(hw)[p])) {
    ++ph->phase.failed;
    ++ph->phase.mismatched;
    return false;
  }
  ++ph->phase.succeeded;
  ph->lat_ms.push_back(static_cast<double>(t1 - (due ? due : t0)) * 1e-6);
  ph->start_ns.push_back(due ? due : t0);
  if (!ctx.profile().empty()) {
    ph->attr.Add(ctx.profile(), (t1 - t0) * 1e-9, 1);
  }
  if (spans != nullptr && spans->enabled()) {
    const int tid = Tid();
    spans->Add("ExecutionContext::Invoke", "graph", t0, t1, req, tid);
    if (*node_budget > 0 && !ctx.profile().empty()) {
      --*node_budget;
      std::uint64_t t = t0;
      for (const OpProfile& op : ctx.profile()) {
        const auto d = static_cast<std::uint64_t>(op.seconds * 1e9);
        spans->Add(op.name, GroupName(GroupOf(op.type)), t, t + d, req, tid);
        t += d;
      }
    }
  }
  return true;
}

void InlineClosedLoop(ExecutionContext& ctx, const Probes& probes, int hw,
                      lce::Rng& rng, double seconds, std::int64_t* req,
                      SpanLog* spans, int* node_budget, InlinePhase* ph) {
  const std::uint64_t t0 = NowNs();
  const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  ph->sampler.Start();
  while (NowNs() < end) {
    InvokeOnce(ctx, probes, hw, static_cast<int>(rng.UniformInt(kProbes)),
               ++*req, spans, node_budget, ph, 0);
    ph->sampler.Tick();
  }
  ph->sampler.Finish();
  ph->seconds += SecondsSince(t0);
}

// ---------------------------------------------------------------------------
// max_rate_rps: geometric search over offered Poisson rates.
// ---------------------------------------------------------------------------

struct Trial {
  double rate = 0.0;
  std::int64_t attempted = 0, failed = 0;
  LatencySummary lat;
  bool backlog = false;
  bool pass = false;
  double steal = 0.0;
  bool retried = false;  // too much steal: run again at the same rate
};

// `lat_in_order`: successful latencies in arrival order. A backlog that
// grows over the trial shows as a last-quarter median more than half the
// latency limit above the first quarter's.
Trial Judge(double rate, std::int64_t attempted, std::int64_t failed,
            const std::vector<double>& lat_in_order, double limit_ms) {
  Trial t;
  t.rate = rate;
  t.attempted = attempted;
  t.failed = failed;
  t.lat = Summarize(lat_in_order);
  const std::size_t q = lat_in_order.size() / 4;
  if (q >= 3) {
    const double early = Median(std::vector<double>(
        lat_in_order.begin(), lat_in_order.begin() + static_cast<long>(q)));
    const double late = Median(std::vector<double>(
        lat_in_order.end() - static_cast<long>(q), lat_in_order.end()));
    t.backlog = late - early > 0.5 * limit_ms;
  }
  t.pass = attempted > 0 &&
           static_cast<double>(failed) <= kFailLimit * attempted &&
           t.lat.samples > 0 && t.lat.tail_ms <= limit_ms && !t.backlog;
  return t;
}

// Starts at `start` (from the measured capacity), walks by kLadderStep until
// the pass/fail boundary is bracketed, then bisects geometrically with the
// trials left. Returns the highest passing rate. A trial during which the
// hypervisor stole more than kStealLimit of the CPU is run again (at most
// kLadderRetries times per search).
double MaxRate(double start, int trials,
               const std::function<Trial(double)>& run,
               std::vector<Trial>* log) {
  int retries = 0;
  const auto quiet_run = [&](double rate) {
    for (;;) {
      const CpuTicks before = ReadCpuTicks();
      Trial t = run(rate);
      t.steal = StealFrac(before, ReadCpuTicks());
      t.retried = t.steal > kStealLimit && retries < kLadderRetries;
      log->push_back(t);
      if (!t.retried) return t;
      ++retries;
    }
  };
  double lo = 0.0, hi = 0.0;
  double r = start;
  for (int i = 0; i < trials; ++i) {
    const Trial t = quiet_run(r);
    if (t.pass) {
      lo = std::max(lo, r);
    } else {
      hi = hi == 0.0 ? r : std::min(hi, r);
    }
    if (lo > 0.0 && hi > 0.0) {
      r = std::sqrt(lo * hi);
    } else if (lo > 0.0) {
      r = lo * kLadderStep;
    } else {
      r = hi / (kLadderStep * kLadderStep);
    }
  }
  // Unbracketed after the planned trials: keep climbing while every rate
  // passes, or halve until one does (at most kLadderFallbacks more trials
  // either way; 0 if nothing passes).
  for (int i = 0; i < kLadderFallbacks && hi == 0.0; ++i) {
    r = lo * kLadderStep * kLadderStep;
    if (quiet_run(r).pass) {
      lo = r;
    } else {
      hi = r;
    }
  }
  for (int i = 0; i < kLadderFallbacks && lo == 0.0; ++i, r /= 2.0) {
    if (quiet_run(r).pass) lo = r;
  }
  return lo;
}

std::string TrialsJson(const std::vector<Trial>& trials) {
  std::ostringstream o;
  o << "[";
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const Trial& t = trials[i];
    o << (i ? "," : "") << "{\"rate_rps\":" << Num(t.rate)
      << ",\"attempted\":" << t.attempted << ",\"failed\":" << t.failed
      << ",\"p50_ms\":" << Num(t.lat.p50_ms)
      << ",\"tail_ms\":" << Num(t.lat.tail_ms)
      << ",\"tail_pct\":" << Num(t.lat.tail_pct)
      << ",\"backlog\":" << (t.backlog ? "true" : "false")
      << ",\"pass\":" << (t.pass ? "true" : "false")
      << ",\"steal\":" << Num(t.steal)
      << ",\"retried\":" << (t.retried ? "true" : "false") << "}";
  }
  o << "]";
  return o.str();
}

// ---------------------------------------------------------------------------
// The core layer's own numbers: ThreadPool::ParallelFor on the shared
// 4-thread pool.
// ---------------------------------------------------------------------------

struct CoreStats {
  double parallel_for_us = 0.0;
  double imbalance_pct = 0.0;
};

CoreStats MeasureParallelFor(int reps, SpanLog& spans) {
  std::shared_ptr<lce::ThreadPool> pool = lce::ThreadPool::Shared(4);
  CoreStats cs;
  std::vector<double> empty_us;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = NowNs();
    pool->ParallelFor(4, [](std::int64_t, std::int64_t) {});
    const std::uint64_t t1 = NowNs();
    empty_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    if (i < 50) spans.Add("ThreadPool::ParallelFor", "core", t0, t1, 0, Tid());
  }
  cs.parallel_for_us = Median(empty_us);
  // Equal work per shard; imbalance is the spread of shard finish times
  // relative to the whole call.
  std::vector<double> imbalance;
  for (int i = 0; i < reps / 4; ++i) {
    std::uint64_t finish[4] = {0, 0, 0, 0};
    const std::uint64_t t0 = NowNs();
    pool->ParallelForShard(4, [&finish](int shard, std::int64_t, std::int64_t) {
      volatile double acc = 0.0;
      for (int k = 0; k < 20000; ++k) acc = acc + k * 0.5;
      finish[shard] = NowNs();
    });
    const auto [mn, mx] = std::minmax_element(finish, finish + 4);
    if (*mx > t0) {
      imbalance.push_back(100.0 * static_cast<double>(*mx - *mn) /
                          static_cast<double>(*mx - t0));
    }
  }
  cs.imbalance_pct = Median(imbalance);
  return cs;
}

double CounterValue(const char* name) {
  return static_cast<double>(
      lce::telemetry::MetricsRegistry::Global().Counter(name)->value());
}

double ScratchBytes() {
  double total = 0.0;
  for (const char* n : {"gemm.scratch_bytes.slot0", "gemm.scratch_bytes.slot1",
                        "gemm.scratch_bytes.slot2", "gemm.scratch_bytes.slot3"}) {
    total += static_cast<double>(
        lce::telemetry::MetricsRegistry::Global().Gauge(n)->value());
  }
  return total;
}

// ---------------------------------------------------------------------------
// Metric emission.
// ---------------------------------------------------------------------------

void EmitSetupLayers(Report& rep, const std::vector<SetupTimes>& times,
                     const Deployed& d) {
  auto med = [&times](double SetupTimes::*f) {
    std::vector<double> v;
    for (const SetupTimes& t : times) v.push_back(t.*f);
    return Median(v);
  };
  rep.Metric("converter.convert_s", med(&SetupTimes::convert_s), "s");
  rep.Metric("converter.ptq_s", med(&SetupTimes::ptq_s), "s");
  rep.Metric("converter.serialize_s", med(&SetupTimes::serialize_s), "s");
  rep.Metric("converter.load_s", med(&SetupTimes::load_s), "s");
  rep.Metric("converter.model_bytes", med(&SetupTimes::model_bytes), "bytes");
  rep.Metric("graph.compile_s", med(&SetupTimes::compile_s), "s");
  rep.Metric("graph.variant_compile_s", med(&SetupTimes::variant_s), "s");
  rep.Metric("graph.arena_bytes", static_cast<double>(d.model->arena_bytes()),
             "bytes");
  rep.Metric("graph.packed_weight_bytes",
             static_cast<double>(d.model->packed_weight_bytes()), "bytes");
}

// kernels.*, graph.dispatch_ms / attributed_frac from an attribution of the
// traced requests; `one_thread` (edge_latency only) gives the 1->4 thread
// speedups.
void EmitKernelLayers(Report& rep, const Attribution& a,
                      const Attribution* one_thread,
                      const std::array<double, kNumGroups>& macs) {
  const double reqs = std::max<double>(1.0, static_cast<double>(a.requests));
  const double invokes = std::max<double>(1.0, static_cast<double>(a.invokes));
  rep.Metric("graph.dispatch_ms", (a.wall_s - a.node_s) / invokes * 1e3, "ms");
  rep.Metric("graph.attributed_frac", a.wall_s > 0 ? a.node_s / a.wall_s : 0.0,
             "ratio");
  for (int g = 0; g < kNumGroups; ++g) {
    const std::string n = std::string("kernels.") + GroupName(g);
    const double per_req_s = a.group_s[g] / reqs;
    rep.Metric(n + "_ms", per_req_s * 1e3, "ms");
    rep.Metric(n + "_share", a.node_s > 0 ? a.group_s[g] / a.node_s : 0.0,
               "ratio");
    double speedup = 0.0;
    if (one_thread != nullptr && per_req_s > 0 && one_thread->requests > 0) {
      speedup = one_thread->group_s[g] /
                static_cast<double>(one_thread->requests) / per_req_s;
    }
    rep.Metric(n + "_speedup_4t", speedup, "x");
  }
  auto rate = [&](int g) {
    const double s = a.group_s[g] / reqs;
    return s > 0 ? 2.0 * macs[g] / s * 1e-9 : 0.0;
  };
  rep.Metric("kernels.bconv2d_gops", rate(kBconv2d), "GOP/s");
  rep.Metric("kernels.conv2d_gflops", rate(kConv2d), "GFLOP/s");
  rep.Metric("kernels.conv2d_int8_gops", rate(kConv2dInt8), "GOP/s");
}

void EmitEndToEnd(Report& rep, const std::vector<SetupTimes>& times,
                  const LatencySummary& lat, double throughput,
                  const Phase& measured, const PhaseSampler& sampler) {
  std::vector<double> setup;
  for (const SetupTimes& t : times) setup.push_back(t.total_s);
  rep.Metric("setup_s", Median(setup), "s");
  rep.Metric("latency_p50_ms", lat.p50_ms, "ms");
  rep.Metric("latency_tail_ms", lat.tail_ms, "ms");
  rep.Metric("throughput_rps", throughput, "req/s");
  const double attempted = std::max<double>(1.0, measured.attempted);
  rep.Metric("ok_frac", 1.0 - static_cast<double>(measured.failed) / attempted,
             "ratio");
  rep.Metric("resident_mb", Median(sampler.rss_mib()), "MiB");
  rep.Section("steal", sampler.ToJson());
  std::ostringstream o;
  o << "{\"percentile\":" << Num(lat.tail_pct) << ",\"samples\":" << lat.samples
    << ",\"blocks\":" << lat.blocks
    << ",\"failed_frac\":"
    << Num(static_cast<double>(measured.failed) / attempted) << "}";
  rep.Section("latency_tail", o.str());
}

void EmitServingLayers(Report& rep, const std::vector<const ServedPhase*>& ph,
                       double reused, double created, int depth_peak) {
  std::vector<double> queue_ms, exec_ms;
  double submitted = 0, shed = 0, deadline = 0, admitted = 0, batches = 0;
  for (const ServedPhase* p : ph) {
    for (const Rec& r : p->recs) {
      if (!r.ok) continue;
      queue_ms.push_back(static_cast<double>(r.queue_ns) * 1e-6);
      exec_ms.push_back(static_cast<double>(r.exec_ns) * 1e-6);
    }
    submitted += static_cast<double>(p->delta.submitted);
    shed += static_cast<double>(p->delta.shed);
    deadline += static_cast<double>(p->delta.expired_in_queue +
                                    p->delta.deadline_exceeded);
    admitted += static_cast<double>(p->delta.admitted);
    batches += static_cast<double>(p->delta.batches_executed);
  }
  const LatencySummary q = Summarize(queue_ms);
  rep.Metric("serving.queue_wait_p50_ms", q.p50_ms, "ms");
  rep.Metric("serving.queue_wait_tail_ms", q.tail_ms, "ms");
  rep.Metric("serving.exec_p50_ms", Median(exec_ms), "ms");
  rep.Metric("serving.batch_occupancy_mean",
             batches > 0 ? admitted / batches : 0.0, "lanes");
  rep.Metric("serving.pool_reuse_frac",
             reused + created > 0 ? reused / (reused + created) : 0.0, "ratio");
  rep.Metric("serving.shed_frac", submitted > 0 ? shed / submitted : 0.0,
             "ratio");
  rep.Metric("serving.deadline_frac", submitted > 0 ? deadline / submitted : 0.0,
             "ratio");
  rep.Metric("serving.queue_depth_peak", depth_peak, "count");
}

void EmitServedSpans(SpanLog& spans, const ServedPhase& ph, bool open_loop) {
  if (!spans.enabled()) return;
  for (const Rec& r : ph.recs) {
    const int tid = 100 + static_cast<int>(r.id % 8);  // request tracks
    spans.Add("Server::Submit->done", "serving",
              open_loop ? r.due : r.submit, r.done, r.id, tid);
    if (!r.ok) continue;
    spans.Add("queue+scatter", "serving", r.submit, r.fill, r.id, tid);
    spans.Add("ExecutionContext::Invoke", "graph", r.invoke0, r.invoke1, r.id,
              tid);
    std::uint64_t t = r.invoke0;
    for (const OpProfile& op : r.nodes) {
      const auto d = static_cast<std::uint64_t>(op.seconds * 1e9);
      spans.Add(op.name, GroupName(GroupOf(op.type)), t, t + d, r.id, tid);
      t += d;
    }
  }
}

// ---------------------------------------------------------------------------
// Running a workload.
// ---------------------------------------------------------------------------

struct Context {
  const Args& args;
  const Spec& spec;
  Report& rep;
  SpanLog& spans;
  Probes probes;
  Deployed dep;
  std::vector<SetupTimes> setup_times;
  std::array<double, kNumGroups> macs{};
  bool correct = true;
  bool reconciled = true;
};

// A traced run spends this share of --seconds on its untraced/profiled
// blocks and the rest on the max-rate ladder.
constexpr double kTracedBlockShare = 0.55;
double WarmupSeconds(const Args& a) { return a.smoke ? 0.2 : 0.5; }
int LadderTrials(const Args& a) { return a.smoke ? 2 : kLadderTrials; }
double TrialSeconds(const Args& a) {
  return a.seconds * (1.0 - kTracedBlockShare) / LadderTrials(a);
}

void RecordPhase(Context& c, const Phase& p) {
  c.rep.AddPhase(p);
  if (p.mismatched > 0) c.correct = false;
}

// Books the ladder's phase and trials and reports harness.max_rate_rps.
void EmitLadder(Context& c, const Phase& ladder, const std::vector<Trial>& trials,
                double start, double max_rate) {
  RecordPhase(c, ladder);
  c.rep.Section("ladder", TrialsJson(trials));
  std::ostringstream o;
  o << "{\"start_rps\":" << Num(start) << "}";
  c.rep.Section("ladder_start", o.str());
  c.rep.Metric("harness.max_rate_rps", max_rate, "req/s");
}

bool RunEdge(Context& c) {
  const Args& a = c.args;
  const int hw = c.spec.resolutions.front();
  lce::Rng rng(a.seed * 7 + 3);
  std::int64_t req = 0;
  int no_nodes = 0;
  ExecutionContext& ctx = *c.dep.ctx;
  {
    InlinePhase warm;
    warm.phase.name = "warmup";
    InlineClosedLoop(ctx, c.probes, hw, rng, WarmupSeconds(a), &req, nullptr,
                     &no_nodes, &warm);
    RecordPhase(c, warm.phase);
  }
  if (!a.trace) {
    InlinePhase m;
    m.phase.name = "measured";
    InlineClosedLoop(ctx, c.probes, hw, rng, a.seconds, &req, nullptr,
                     &no_nodes, &m);
    RecordPhase(c, m.phase);
    m.sampler.SelectQuiet();
    const std::vector<double> quiet = m.QuietLatencies();
    const double throughput = static_cast<double>(quiet.size()) /
                              std::max(m.sampler.KeptSeconds(), 1e-9);
    EmitEndToEnd(c.rep, c.setup_times, Summarize(quiet), throughput, m.phase,
                 m.sampler);
    return true;
  }
  // Traced: alternate untraced and profiled blocks on two contexts of the
  // same model, then a 1-thread profiled block for the 4-thread speedups,
  // then the max-rate ladder.
  ExecutionOptions prof;
  prof.enable_profiling = true;
  ExecutionContext traced(c.dep.model, prof);
  const double block = a.seconds * kTracedBlockShare / 5;
  InlinePhase u, t;
  u.phase.name = "measured_untraced";
  t.phase.name = "measured_traced";
  int node_budget = kNodeSpanRequests;
  const double macs0 = CounterValue("bgemm.binary_macs");
  const double pf0 = CounterValue("threadpool.parallel_for_calls");
  for (int i = 0; i < 2; ++i) {
    InlineClosedLoop(ctx, c.probes, hw, rng, block, &req, nullptr, &no_nodes,
                     &u);
    InlineClosedLoop(traced, c.probes, hw, rng, block, &req, &c.spans,
                     &node_budget, &t);
  }
  const double reqs = static_cast<double>(u.phase.attempted + t.phase.attempted);
  const double binary_macs = (CounterValue("bgemm.binary_macs") - macs0) / reqs;
  const double pf_calls =
      (CounterValue("threadpool.parallel_for_calls") - pf0) / reqs;
  RecordPhase(c, u.phase);
  RecordPhase(c, t.phase);
  InlinePhase one;
  one.phase.name = "measured_1thread";
  {
    CompileOptions co;
    co.num_threads = 1;
    std::shared_ptr<const CompiledModel> m1;
    const Status st = CompiledModel::Compile(*c.dep.graph, co, &m1);
    if (!st.ok()) return false;
    ExecutionContext ctx1(m1, prof);
    InlineClosedLoop(ctx1, c.probes, hw, rng, block, &req, nullptr, &no_nodes,
                     &one);
  }
  RecordPhase(c, one.phase);

  // Ladder: the caller is both generator and executor, so the loop stays
  // within caller + 3 pool workers. It starts from the untraced blocks'
  // quiet throughput.
  u.sampler.SelectQuiet();
  const double start = 0.8 * static_cast<double>(u.QuietLatencies().size()) /
                       std::max(u.sampler.KeptSeconds(), 1e-9);
  Phase ladder;
  ladder.name = "ladder";
  std::vector<Trial> trials;
  const double trial_s = TrialSeconds(a);
  const double max_rate = MaxRate(
      start, LadderTrials(a),
      [&](double rate) {
        const std::vector<Arrival> arr = Schedule(rng, rate, trial_s, {hw});
        InlinePhase tp;
        const std::uint64_t t0 = NowNs() + 1'000'000;
        const std::uint64_t cutoff =
            t0 + static_cast<std::uint64_t>((trial_s + 0.5) * 1e9);
        std::int64_t dropped = 0;
        tp.sampler.Start();
        for (const Arrival& x : arr) {
          const std::uint64_t due = t0 + static_cast<std::uint64_t>(x.t_s * 1e9);
          if (NowNs() > cutoff) {
            ++dropped;  // hopelessly behind: counts as failed
            continue;
          }
          if (NowNs() < due) SleepUntilNs(due);
          InvokeOnce(ctx, c.probes, hw, x.probe, ++req, nullptr, &no_nodes,
                     &tp, due);
          tp.sampler.Tick();
        }
        tp.sampler.Finish();
        tp.sampler.SelectQuiet();
        ladder.attempted += tp.phase.attempted + dropped;
        ladder.succeeded += tp.phase.succeeded;
        ladder.failed += tp.phase.failed + dropped;
        ladder.mismatched += tp.phase.mismatched;
        return Judge(rate, tp.phase.attempted + dropped,
                     tp.phase.failed + dropped, tp.QuietLatencies(),
                     static_cast<double>(c.spec.tail_limit.count()));
      },
      &trials);
  EmitLadder(c, ladder, trials, start, max_rate);

  EmitKernelLayers(c.rep, t.attr, &one.attr, c.macs);
  c.rep.Metric("gemm.binary_macs_per_req", binary_macs, "count");
  c.rep.Metric("gemm.scratch_bytes", ScratchBytes(), "bytes");
  const CoreStats cs = MeasureParallelFor(a.smoke ? 200 : 2000, c.spans);
  c.rep.Metric("core.parallel_for_us", cs.parallel_for_us, "us");
  c.rep.Metric("core.parallel_for_calls_per_req", pf_calls, "count");
  c.rep.Metric("core.shard_imbalance_pct", cs.imbalance_pct, "%");
  EmitServingLayers(c.rep, {}, 0, 0, 0);
  const double p50_u = Median(u.lat_ms);
  c.rep.Metric("telemetry.profiling_overhead_frac",
               p50_u > 0 ? Median(t.lat_ms) / p50_u - 1.0 : 0.0, "ratio");
  c.rep.Metric("harness.generator_lag_tail_ms", 0.0, "ms");
  return true;
}

bool RunServed(Context& c) {
  const Args& a = c.args;
  const Spec& s = c.spec;
  const bool open_loop = s.outstanding == 0;
  lce::Rng rng(a.seed * 7 + 3);
  auto run_phase = [&](Server& server, ServeState& st, double seconds,
                       ServedPhase* ph) {
    if (open_loop) {
      ServeOpenLoop(server, st,
                    Schedule(rng, s.open_rate_rps, seconds, s.resolutions),
                    s.deadline, ph);
    } else {
      ServeClosedLoop(server, st, s, rng, seconds, ph);
    }
  };
  {
    ServeState st;
    st.probes = &c.probes;
    ServedPhase warm;
    run_phase(*c.dep.server, st, WarmupSeconds(a), &warm);
    RecordPhase(c, AccountServed("warmup", warm, &c.reconciled));
  }
  if (!a.trace) {
    ServeState st;
    st.probes = &c.probes;
    ServedPhase m;
    run_phase(*c.dep.server, st, a.seconds, &m);
    const Phase measured = AccountServed("measured", m, &c.reconciled);
    RecordPhase(c, measured);
    m.sampler.SelectQuiet();
    const std::vector<double> quiet = OkLatencies(m, open_loop, true);
    // An open loop's offered load is fixed by the schedule, so its
    // throughput is what completed over the whole phase; a closed loop's is
    // measured over its quiet blocks like its latencies.
    const double throughput =
        open_loop ? measured.succeeded / std::max(m.seconds, 1e-9)
                  : static_cast<double>(quiet.size()) /
                        std::max(m.sampler.KeptSeconds(), 1e-9);
    const LatencySummary lag = Summarize(m.lag_ms);
    std::ostringstream g;
    g << "{\"p50_ms\":" << Num(lag.p50_ms) << ",\"tail_ms\":"
      << Num(lag.tail_ms) << ",\"samples\":" << lag.samples << "}";
    c.rep.Section("generator_lag", g.str());
    EmitEndToEnd(c.rep, c.setup_times, Summarize(quiet), throughput, measured,
                 m.sampler);
    return true;
  }
  // Traced: untraced and profiled servers alternate, one alive at a time so
  // the thread count stays at generator + max_inflight executors; then the
  // max-rate ladder on a fresh untraced server.
  const double block = a.seconds * kTracedBlockShare / 4;
  std::deque<ServedPhase> phases;
  std::vector<const ServedPhase*> traced_phases;
  std::vector<double> lat_u, lat_t, lag;
  Attribution attr;
  int node_budget = kNodeSpanRequests;
  int depth_peak = 0;
  const double macs0 = CounterValue("bgemm.binary_macs");
  const double pf0 = CounterValue("threadpool.parallel_for_calls");
  double reused = 0, created = 0;
  double requests = 0;
  // Ladder start: a closed loop's untraced throughput; for the open loop,
  // executors kept busy by the per-lane execution time.
  double busy_s = 0.0, lanes = 0.0, untraced_ok = 0.0, untraced_s = 0.0;
  for (int i = 0; i < 4; ++i) {
    const bool profiled = i % 2 == 1;
    if (i > 0) {
      c.dep.server.reset();
      c.dep.server =
          std::make_unique<Server>(c.dep.model, MakeServerOptions(s, profiled));
    }
    ServeState st;
    st.probes = &c.probes;
    st.profiling = profiled;
    st.node_samples_left = profiled ? node_budget : 0;
    const double r0 = CounterValue("serving.pool.reused_total");
    const double c0 = CounterValue("serving.pool.created_total");
    phases.emplace_back();
    ServedPhase& ph = phases.back();
    run_phase(*c.dep.server, st, block, &ph);
    const Phase p = AccountServed(
        profiled ? "measured_traced" : "measured_untraced", ph, &c.reconciled);
    RecordPhase(c, p);
    requests += static_cast<double>(p.attempted);
    const std::vector<double> lat = OkLatencies(ph, open_loop);
    (profiled ? lat_t : lat_u).insert((profiled ? lat_t : lat_u).end(),
                                      lat.begin(), lat.end());
    lag.insert(lag.end(), ph.lag_ms.begin(), ph.lag_ms.end());
    if (profiled) {
      node_budget = st.node_samples_left;
      attr.Merge(st.attr);
      traced_phases.push_back(&ph);
      reused += CounterValue("serving.pool.reused_total") - r0;
      created += CounterValue("serving.pool.created_total") - c0;
      depth_peak = std::max(depth_peak, ph.queue_depth_peak);
      EmitServedSpans(c.spans, ph, open_loop);
      continue;
    }
    for (const Rec& r : ph.recs) {
      if (!r.ok || r.lanes == 0) continue;
      busy_s += static_cast<double>(r.exec_ns) * 1e-9 / r.lanes;
      lanes += 1.0;
    }
    untraced_ok += static_cast<double>(p.succeeded);
    untraced_s += ph.seconds;
  }
  const double binary_macs = (CounterValue("bgemm.binary_macs") - macs0) / requests;
  const double pf_calls =
      (CounterValue("threadpool.parallel_for_calls") - pf0) / requests;

  c.dep.server.reset();
  c.dep.server = std::make_unique<Server>(c.dep.model, MakeServerOptions(s, false));
  const double start =
      0.8 * (open_loop && busy_s > 0 ? s.max_inflight * lanes / busy_s
                                     : untraced_ok / std::max(untraced_s, 1e-9));
  Phase ladder;
  ladder.name = "ladder";
  std::vector<Trial> trials;
  const double trial_s = TrialSeconds(a);
  const double max_rate = MaxRate(
      start, LadderTrials(a),
      [&](double rate) {
        ServeState tst;
        tst.probes = &c.probes;
        ServedPhase tp;
        ServeOpenLoop(*c.dep.server, tst,
                      Schedule(rng, rate, trial_s, s.resolutions),
                      2 * s.tail_limit, &tp);
        const Phase p = AccountServed("trial", tp, &c.reconciled);
        tp.sampler.SelectQuiet();
        ladder.attempted += p.attempted;
        ladder.succeeded += p.succeeded;
        ladder.failed += p.failed;
        ladder.mismatched += p.mismatched;
        for (const auto& [k, v] : p.detail) {
          if (k != "reconciled") ladder.detail[k] += v;
        }
        return Judge(rate, p.attempted, p.failed, OkLatencies(tp, true, true),
                     static_cast<double>(s.tail_limit.count()));
      },
      &trials);
  c.dep.server.reset();
  EmitLadder(c, ladder, trials, start, max_rate);

  EmitKernelLayers(c.rep, attr, nullptr, c.macs);
  c.rep.Metric("gemm.binary_macs_per_req", binary_macs, "count");
  c.rep.Metric("gemm.scratch_bytes", ScratchBytes(), "bytes");
  const CoreStats cs = MeasureParallelFor(a.smoke ? 200 : 2000, c.spans);
  c.rep.Metric("core.parallel_for_us", cs.parallel_for_us, "us");
  c.rep.Metric("core.parallel_for_calls_per_req", pf_calls, "count");
  c.rep.Metric("core.shard_imbalance_pct", cs.imbalance_pct, "%");
  EmitServingLayers(c.rep, traced_phases, reused, created, depth_peak);
  const double p50_u = Median(lat_u);
  c.rep.Metric("telemetry.profiling_overhead_frac",
               p50_u > 0 ? Median(lat_t) / p50_u - 1.0 : 0.0, "ratio");
  c.rep.Metric("harness.generator_lag_tail_ms", Summarize(lag).tail_ms, "ms");
  return true;
}

}  // namespace

bool RunWorkload(const Args& args, Report& report, SpanLog& spans,
                 bool* correct, std::string* error) {
  const Spec* spec = FindSpec(args.workload);
  if (spec == nullptr) {
    *error = "unknown workload '" + args.workload + "'";
    return false;
  }
  Context c{args, *spec, report, spans, {}, {}, {}, {}, true, true};

  // Input generation (not timed): the seeded training graph and the probe
  // inputs at every resolution.
  auto training = std::make_unique<Graph>(spec->build(spec->resolutions.front()));
  ReseedWeights(*training, args.seed);
  const lce::Value& input = training->value(training->input_ids().front());
  const std::int64_t channels = input.shape.dim(3);
  for (const int hw : spec->resolutions) {
    for (int p = 0; p < kProbes; ++p) {
      c.probes.in[hw].push_back(SeededInput(
          args.seed, static_cast<std::uint64_t>(hw) * 16 + p,
          static_cast<std::size_t>(hw) * hw * channels));
    }
  }

  // Setup, several times; the last deployment is the one measured. Every
  // setup leaves some allocator residue behind, which resident_mb sees, so
  // the count is fixed.
  std::vector<std::vector<float>> first_outs;
  const int reps = args.smoke ? 1 : kSetups;
  for (int r = 0; r < reps; ++r) {
    c.dep.Reset();
    SetupTimes t;
    std::vector<float> out;
    const Status st = Deploy(*spec, *training, args.seed,
                             c.probes.in.at(spec->resolutions.front())[0],
                             spans, &c.dep, &t, &out);
    if (!st.ok()) {
      *error = "setup failed: " + st.ToString();
      return false;
    }
    c.setup_times.push_back(t);
    first_outs.push_back(std::move(out));
  }
  double scalar_diff = 0.0;
  {
    const Status st = BuildReference(*spec, *c.dep.graph, &c.probes, &scalar_diff);
    if (!st.ok()) {
      *error = "reference failed: " + st.ToString();
      return false;
    }
  }
  Phase setup;
  setup.name = "setup";
  for (const auto& out : first_outs) {
    ++setup.attempted;
    if (out == c.probes.ref.at(spec->resolutions.front())[0]) {
      ++setup.succeeded;
    } else {
      ++setup.failed;
      ++setup.mismatched;
    }
  }
  RecordPhase(c, setup);
  const bool scalar_ok = scalar_diff <= kScalarTolerance;
  if (!scalar_ok) c.correct = false;
  c.macs = GroupMacs(*c.dep.graph);
  training.reset();
  // Hand the freed setup memory back to the OS so resident_mb measures what
  // the deployed model holds, not allocator leftovers from setup.
  malloc_trim(0);

  const bool ran = spec->served ? RunServed(c) : RunEdge(c);
  if (!ran) {
    *error = "workload run failed";
    return false;
  }
  if (!c.reconciled) c.correct = false;
  if (args.trace) EmitSetupLayers(report, c.setup_times, c.dep);

  std::ostringstream cfg;
  cfg << "{\"workload\":\"" << spec->name << "\",\"model_threads\":"
      << spec->model_threads << ",\"served\":" << (spec->served ? "true" : "false")
      << ",\"max_inflight\":" << spec->max_inflight
      << ",\"max_batch\":" << spec->max_batch
      << ",\"outstanding\":" << spec->outstanding
      << ",\"open_rate_rps\":" << Num(spec->open_rate_rps)
      << ",\"deadline_ms\":" << spec->deadline.count()
      << ",\"setup_reps\":" << reps << ",\"probes\":" << kProbes
      << ",\"resolutions\":[";
  for (std::size_t i = 0; i < spec->resolutions.size(); ++i) {
    cfg << (i ? "," : "") << spec->resolutions[i];
  }
  cfg << "]}";
  report.Section("config", cfg.str());
  std::ostringstream chk;
  chk << "{\"scalar_max_abs_diff\":" << Num(scalar_diff)
      << ",\"scalar_tolerance\":" << kScalarTolerance
      << ",\"scalar_ok\":" << (scalar_ok ? "true" : "false")
      << ",\"accounting_reconciled\":" << (c.reconciled ? "true" : "false")
      << "}";
  report.Section("output_check", chk.str());
  *correct = c.correct;
  return true;
}

}  // namespace perfbench
