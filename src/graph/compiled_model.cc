#include "graph/compiled_model.h"

#include <algorithm>
#include <new>

#include "core/macros.h"
#include "graph/memory_planner.h"
#include "graph/shape_variant.h"
#include "graph/validator.h"
#include "serving/fault_injection.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace lce {
namespace {

// Bytes of packed binary weights currently resident across all live
// CompiledModels. Unlike the per-model high-water gauges this accumulates,
// so a server can verify weights are shared rather than duplicated per
// stream (bench_serving_throughput checks it stays flat as streams scale).
telemetry::Metric* ResidentPackedBytes() {
  return telemetry::MetricsRegistry::Global().Gauge(
      "weights.resident_packed_bytes");
}

telemetry::Metric* ResidentArenaBytes() {
  return telemetry::MetricsRegistry::Global().Gauge(
      "serving.resident_arena_bytes");
}

telemetry::Metric* LiveExecutionContexts() {
  return telemetry::MetricsRegistry::Global().Gauge(
      "serving.execution_contexts");
}

}  // namespace

CompiledModel::CompiledModel(const Graph& graph) : graph_(graph) {}

CompiledModel::CompiledModel(std::unique_ptr<const Graph> owned_graph,
                             const CompiledModel* root)
    : graph_(*owned_graph), owned_graph_(std::move(owned_graph)), root_(root) {}

CompiledModel::~CompiledModel() {
  ResidentPackedBytes()->Add(-static_cast<std::int64_t>(packed_weight_bytes_));
}

Status CompiledModel::Compile(const Graph& graph, CompileOptions options,
                              std::shared_ptr<const CompiledModel>* out) {
  LCE_CHECK(out != nullptr);
  // Build into a private instance: a failed compile leaves `*out` untouched
  // and the partially-built arena plan / kernel state dies here, so retrying
  // after a failure always starts from a clean slate.
  std::vector<int> resolutions = std::move(options.input_resolutions);
  std::shared_ptr<CompiledModel> model(new CompiledModel(graph));
  LCE_RETURN_IF_ERROR(model->Build(std::move(options), nullptr, nullptr));
  // Eagerly compile the requested resolutions so misconfigured lists fail
  // at startup. Registration goes through the same registry as lazy
  // compilation, so pre-compiled and on-demand variants are
  // indistinguishable afterwards.
  std::shared_ptr<const CompiledModel> root = model;
  for (int hw : resolutions) {
    std::shared_ptr<const CompiledModel> variant;
    LCE_RETURN_IF_ERROR(GetOrCompileVariant(root, {hw, 1}, &variant));
  }
  *out = std::move(root);
  return Status::Ok();
}

int CompiledModel::input_hw() const {
  if (graph_.input_ids().empty()) return 0;
  const Value& v = graph_.value(graph_.input_ids()[0]);
  if (v.shape.rank() != 4) return 0;
  return static_cast<int>(v.shape.dim(1));
}

Status CompiledModel::GetOrCompileVariant(
    const std::shared_ptr<const CompiledModel>& model, VariantKey key,
    std::shared_ptr<const CompiledModel>* out) {
  LCE_CHECK(model != nullptr && out != nullptr);
  const CompiledModel* root = model->Root();
  if (key.input_hw == 0) key.input_hw = root->input_hw();
  if (key.batch < 1) {
    return Status::InvalidArgument("variant batch must be >= 1, got " +
                                   std::to_string(key.batch));
  }
  if (key.batch > kMaxVariantBatch) {
    return Status::ResourceExhausted(
        "variant batch " + std::to_string(key.batch) +
        " exceeds kMaxVariantBatch (" + std::to_string(kMaxVariantBatch) +
        ")");
  }
  if (key.input_hw != root->input_hw()) {
    // Hostile resolutions are refused before the lock and before a byte of
    // the clone exists.
    LCE_RETURN_IF_ERROR(
        ValidateShapeBucketRequest(root->graph_, key.input_hw, root->limits_));
  }
  if (std::shared_ptr<const CompiledModel> found = FindVariant(model, key)) {
    *out = std::move(found);
    return Status::Ok();
  }
  // Compilation happens under the registry lock: concurrent first requests
  // for the same unseen key compile it exactly once, and requests for other
  // keys briefly serialize behind it (variant compiles are O(IR) -- no
  // weight packing -- so the hold is short).
  std::lock_guard<std::mutex> lock(root->bucket_mu_);
  auto it = root->variants_.find(key);
  if (it == root->variants_.end()) {
    const std::vector<int> resolutions = root->ResolutionsLocked();
    if (!std::binary_search(resolutions.begin(), resolutions.end(),
                            key.input_hw) &&
        static_cast<std::int64_t>(resolutions.size()) >=
            root->limits_.max_shape_buckets) {
      return Status::ResourceExhausted(
          "shape bucket count would exceed "
          "ResourceLimits::max_shape_buckets");
    }
    std::unique_ptr<const CompiledModel> variant;
    LCE_RETURN_IF_ERROR(root->BuildVariant(key, &variant));
    it = root->variants_.emplace(key, std::move(variant)).first;
    root->PublishBucketGaugesLocked();
  }
  // Aliasing constructor: the handle points at the variant but shares (and
  // so pins) `model`'s control block, which is the root's.
  *out = std::shared_ptr<const CompiledModel>(model, it->second.get());
  return Status::Ok();
}

std::shared_ptr<const CompiledModel> CompiledModel::FindVariant(
    const std::shared_ptr<const CompiledModel>& model, VariantKey key) {
  LCE_CHECK(model != nullptr);
  const CompiledModel* root = model->Root();
  if (key.input_hw == 0) key.input_hw = root->input_hw();
  if (key.input_hw == root->input_hw() && key.batch == 1) {
    return std::shared_ptr<const CompiledModel>(model, root);
  }
  std::lock_guard<std::mutex> lock(root->bucket_mu_);
  const auto it = root->variants_.find(key);
  if (it == root->variants_.end()) return nullptr;
  return std::shared_ptr<const CompiledModel>(model, it->second.get());
}

Status CompiledModel::BuildVariant(
    VariantKey key, std::unique_ptr<const CompiledModel>* out) const {
  // Graph-input shapes of the variant: dim 0 widened to the batch, dims 1-2
  // resized when the resolution differs (ValidateShapeBucketRequest already
  // guaranteed rank-4 inputs in that case).
  const bool resize = key.input_hw != input_hw();
  std::vector<Shape> input_shapes;
  for (const int vid : graph_.input_ids()) {
    const Value& v = graph_.value(vid);
    if (v.shape.rank() < 1 || v.shape.dim(0) != 1) {
      return Status::InvalidArgument(
          "variants require batch-1 graph inputs; input '" + v.name +
          "' has leading dimension " +
          std::to_string(v.shape.rank() < 1 ? 0 : v.shape.dim(0)));
    }
    Shape s = v.shape;
    s.dim(0) = key.batch;
    if (resize) {
      s.dim(1) = key.input_hw;
      s.dim(2) = key.input_hw;
    }
    input_shapes.push_back(s);
  }
  std::unique_ptr<Graph> clone;
  std::vector<int> node_map;
  LCE_RETURN_IF_ERROR(
      CloneGraphWithInputShapes(graph_, input_shapes, &clone, &node_map));
  if (key.batch > 1) {
    // Lane slicing needs dim 0 == batch on every output; an op that folds
    // or reorders the batch dimension cannot be batched this way.
    for (std::size_t pos = 0; pos < graph_.output_ids().size(); ++pos) {
      const Value& v = graph_.value(graph_.output_ids()[pos]);
      const Value& cloned = clone->value(clone->output_ids()[pos]);
      if (v.shape.rank() < 1 || v.shape.dim(0) != 1 ||
          cloned.shape.rank() < 1 || cloned.shape.dim(0) != key.batch) {
        return Status::InvalidArgument(
            "output '" + v.name +
            "' does not carry the batch dimension; model cannot be batched");
      }
    }
  }
  // Same pool, profile, name, limits and histogram setting as the root: a
  // variant is the same model at another shape, and its per-node histograms
  // intentionally merge with the root's.
  CompileOptions options;
  options.thread_pool = pool_;
  options.kernel_profile = kernel_profile_;
  options.model_name = model_name_;
  options.enable_node_histograms = node_histograms_enabled_;
  options.limits = limits_;
  std::unique_ptr<CompiledModel> variant(
      new CompiledModel(std::move(clone), this));
  variant->batch_ = key.batch;
  LCE_RETURN_IF_ERROR(variant->Build(std::move(options), this, &node_map));
  *out = std::move(variant);
  return Status::Ok();
}

std::vector<int> CompiledModel::ShapeBucketResolutions() const {
  const CompiledModel* root = Root();
  std::lock_guard<std::mutex> lock(root->bucket_mu_);
  return root->ResolutionsLocked();
}

std::vector<int> CompiledModel::ResolutionsLocked() const {
  std::vector<int> out{input_hw()};
  for (const auto& entry : variants_) out.push_back(entry.first.input_hw);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void CompiledModel::PublishBucketGaugesLocked() const {
  // Cross-bucket arena accounting (docs/SERVING.md): the high-water gauge is
  // the honest per-context resident figure when contexts cycle across
  // buckets; the unshared gauge is what pinning every bucket's arena at once
  // would cost. Published on every registration so the bench and the stats
  // page see the current bucket set; a bucket's arena is its batch-1 one.
  std::vector<std::size_t> arenas;
  arenas.push_back(arena_size_);
  for (const auto& entry : variants_) {
    if (entry.first.batch == 1) arenas.push_back(entry.second->arena_size_);
  }
  const CrossBucketArena plan = PlanCrossBucketArena(arenas);
  auto& reg = telemetry::MetricsRegistry::Global();
  reg.Gauge("serving.shape_buckets")
      ->SetMax(static_cast<std::int64_t>(ResolutionsLocked().size()));
  reg.Gauge("planner.bucket_arena_high_water_bytes")
      ->SetMax(static_cast<std::int64_t>(plan.high_water));
  reg.Gauge("planner.bucket_arena_unshared_bytes")
      ->SetMax(static_cast<std::int64_t>(plan.unshared_sum));
}

Status CompiledModel::Build(CompileOptions options,
                            const CompiledModel* weight_source,
                            const std::vector<int>* node_map) {
  if (options.enable_tracing) telemetry::Tracer::Global().Enable();
  LCE_TRACE_SCOPE_CAT("compiled_model/compile", "interpreter");
  kernel_profile_ = options.kernel_profile;
  model_name_ = options.model_name.empty() ? "model" : options.model_name;
  limits_ = options.limits;
  node_histograms_enabled_ = options.enable_node_histograms;
  pool_ = options.thread_pool != nullptr
              ? std::move(options.thread_pool)
              : ThreadPool::Shared(options.num_threads);
  // Full semantic + resource validation up front. Everything after this --
  // memory planning, kernel construction, Invoke -- relies on the graph
  // being legal and within limits, so no further checks on model-derived
  // data are needed (or present) downstream.
  {
    LCE_TRACE_SCOPE_CAT("prepare/validate", "interpreter");
    LCE_RETURN_IF_ERROR(ValidateGraph(graph_, options.limits));
  }
  order_ = graph_.TopologicalOrder();
  if (static_cast<int>(order_.size()) != graph_.LiveNodeCount()) {
    return Status::Internal("graph contains a cycle");
  }
  {
  LCE_TRACE_SCOPE_CAT("prepare/plan", "interpreter");

  // Step index per node.
  std::vector<int> step(graph_.nodes().size(), -1);
  for (int i = 0; i < static_cast<int>(order_.size()); ++i) {
    step[order_[i]] = i;
  }
  const int num_steps = static_cast<int>(order_.size());

  // Lifetimes for every non-constant value touched by the live graph. The
  // validator guarantees alive values have alive producers and that every
  // per-tensor byte size is computable; the running total is still checked
  // here so the planner's offset arithmetic and the arena allocation below
  // stay bounded by the configured limit.
  std::vector<BufferRequest> requests;
  offsets_.assign(graph_.values().size(), 0);
  in_arena_.assign(graph_.values().size(), false);
  std::size_t total_bytes = 0;
  for (const auto& v : graph_.values()) {
    if (!v->alive || v->is_constant) continue;
    int first = v->producer >= 0 ? step[v->producer] : 0;
    if (v->producer >= 0 && step[v->producer] < 0) {
      // A live value whose producer was removed can never be written. It
      // must not be silently skipped: it would get no arena placement, and
      // in release builds (LCE_DCHECK compiled out) ValueTensor would hand
      // out a view at arena offset 0 aliasing whatever lives there. The
      // validator rejects such graphs, so reaching this is a rewrite or
      // validator bug -- refuse to build a plan around it.
      return Status::Internal("live value '" + v->name +
                              "' has a dead producer; refusing to plan "
                              "memory for an unwritable value");
    }
    int last = first;
    for (int c : v->consumers) {
      if (step[c] >= 0) last = std::max(last, step[c]);
    }
    const bool is_graph_output =
        std::find(graph_.output_ids().begin(), graph_.output_ids().end(),
                  v->id) != graph_.output_ids().end();
    const bool is_graph_input =
        std::find(graph_.input_ids().begin(), graph_.input_ids().end(),
                  v->id) != graph_.input_ids().end();
    if (is_graph_input) first = 0;
    // Graph outputs get an *exclusive* arena region (lifetime spanning the
    // whole execution) rather than one starting at their producer's step.
    // This is the serving layer's no-partial-writes guarantee: a request
    // cancelled mid-model can only have written intermediate values, never
    // the bytes a caller reads through output() -- those are touched
    // exclusively by the output's own producer node. Costs a few KiB of
    // arena (logit-sized tensors) in exchange for overload-safe semantics.
    if (is_graph_output) {
      first = 0;
      last = num_steps;
    }
    if (v->consumers.empty() && !is_graph_output) {
      // Value produced but never read; still needs storage for the write.
      last = first;
    }
    std::size_t bytes = 0;
    if (!Tensor::CheckedByteSize(v->dtype, v->shape, &bytes)) {
      return Status::Internal("tensor size overflow slipped past validation");
    }
    std::size_t aligned = 0;
    if (__builtin_add_overflow(bytes, kDefaultAlignment - 1, &aligned)) {
      return Status::ResourceExhausted("arena exceeds the resource limit");
    }
    aligned -= aligned % kDefaultAlignment;
    if (__builtin_add_overflow(total_bytes, aligned, &total_bytes) ||
        total_bytes > options.limits.max_arena_bytes) {
      return Status::ResourceExhausted("arena exceeds the resource limit");
    }
    requests.push_back({v->id, bytes, first, last});
  }
  const auto placements = PlanMemory(std::move(requests), kDefaultAlignment,
                                     &arena_size_);
  LCE_DCHECK(arena_size_ <= total_bytes);
  for (const auto& p : placements) {
    offsets_[p.id] = p.offset;
    in_arena_[p.id] = true;
  }
  // Arena accounting: the planned arena is the high-water mark of the
  // lifetime-shared plan; the unshared sum shows what sharing saved.
  telemetry::MetricsRegistry::Global()
      .Gauge("interpreter.arena_bytes")
      ->SetMax(static_cast<std::int64_t>(arena_size_));
  telemetry::MetricsRegistry::Global()
      .Gauge("planner.unshared_bytes")
      ->SetMax(static_cast<std::int64_t>(total_bytes));
  }  // prepare/plan

  // Prepare kernels. On a variant build (weight_source != null) each
  // node's prepare hook receives the mapped source node's state: the
  // expensive shape-invariant state (packed/bitpacked weights, correction
  // tables, output transforms) is shared by reference and only the
  // geometry-dependent state (indirection tables, tile plans) is rebuilt
  // for the variant's batch and resolution. Batch-agnostic kernels (the
  // fully connected pair, which read the batch from their input tensor at
  // Run) are aliased outright.
  LCE_TRACE_SCOPE_CAT("prepare/pack", "interpreter");
  std::size_t packed_weight_bytes = 0;
  kernels_.clear();
  kernels_.resize(graph_.nodes().size());
  for (int id : order_) {
    const Node& n = graph_.node(id);
    const OpDef& def = GetOpDef(n.type);
    if (def.prepare == nullptr) continue;  // stateless op
    PreparedState root_state;
    if (weight_source != nullptr) {
      LCE_CHECK(node_map != nullptr &&
                id < static_cast<int>(node_map->size()));
      const int src_id = (*node_map)[id];
      LCE_CHECK(src_id >= 0 &&
                src_id < static_cast<int>(weight_source->kernels_.size()));
      root_state = weight_source->kernels_[src_id];
      LCE_CHECK(root_state != nullptr);
    }
    kernels_[id] = def.prepare(graph_, n, root_state, &packed_weight_bytes);
  }
  // Variants report 0 resident weight bytes: everything they hold is an
  // alias of the root's packed weights (asserted flat by the serving
  // bench's across-variant check).
  packed_weight_bytes_ = weight_source == nullptr ? packed_weight_bytes : 0;
  if (options.enable_node_histograms) {
    // One latency histogram per node, namespaced by model: the serving
    // layer's per-model per-node attribution (table 4 / fig. 5 style
    // breakdowns, but live and mergeable across requests). Pointers are
    // registry-owned and process-lifetime stable.
    node_histograms_.assign(graph_.nodes().size(), nullptr);
    for (int id : order_) {
      const Node& n = graph_.node(id);
      node_histograms_[id] = telemetry::MetricsRegistry::Global().Histogram(
          "node." + model_name_ + "." + n.name + "_ns");
    }
  }
  if (packed_weight_bytes > 0) {
    // One bitpacked word (4 bytes) stands in for 32 float weights (128
    // bytes) -- the paper's 32x binary weight compression. The high-water
    // gauges describe one model; the resident gauge sums across models.
    telemetry::MetricsRegistry::Global()
        .Gauge("weights.packed_binary_bytes")
        ->SetMax(static_cast<std::int64_t>(packed_weight_bytes));
    telemetry::MetricsRegistry::Global()
        .Gauge("weights.float_equivalent_bytes")
        ->SetMax(static_cast<std::int64_t>(packed_weight_bytes) * 32);
    ResidentPackedBytes()->Add(static_cast<std::int64_t>(packed_weight_bytes));
  }
  return Status::Ok();
}

ExecutionContext::ExecutionContext(std::shared_ptr<const CompiledModel> model,
                                   ExecutionOptions options)
    : model_(std::move(model)),
      options_(std::move(options)),
      ctx_(model_->thread_pool(), model_->kernel_profile()) {
  // The arena is runtime load, not model structure: allocation failure
  // (memory pressure, or the LCE_FAULT_INJECTION arena fault point) leaves
  // an inert context whose Invoke reports Status::ResourceExhausted instead
  // of aborting the process -- the serving pool sheds the request and
  // retries context creation later (docs/SERVING.md).
  try {
    if (!LCE_FAULT_ARENA_ALLOC_SHOULD_FAIL()) {
      arena_ = AlignedBuffer(model_->arena_bytes());
      arena_ok_ = true;
    }
  } catch (const std::bad_alloc&) {
    arena_ = AlignedBuffer();
  }
  LiveExecutionContexts()->Add(1);
  ResidentArenaBytes()->Add(static_cast<std::int64_t>(arena_.size()));
}

ExecutionContext::~ExecutionContext() {
  LiveExecutionContexts()->Add(-1);
  ResidentArenaBytes()->Add(-static_cast<std::int64_t>(arena_.size()));
}

Tensor ExecutionContext::ValueTensor(int value_id) {
  const Value& v = model_->graph_.value(value_id);
  if (v.is_constant) {
    // Constants are read-only at runtime; the view is never written through.
    return Tensor::View(v.dtype, v.shape,
                        const_cast<void*>(v.constant_data.raw_data()));
  }
  LCE_DCHECK(model_->in_arena_[value_id]);
  return Tensor::View(v.dtype, v.shape,
                      arena_.data() + model_->offsets_[value_id]);
}

namespace {

// Lane i's dim-0 slice of a batched tensor: shape [1, ...rest] at byte
// offset i * bytes([1, ...rest]). Valid for every dtype including
// bitpacked, whose packing along the innermost dimension keeps per-lane
// byte sizes proportional to the leading dimension.
Tensor LaneSlice(Tensor full, int lane) {
  Shape s = full.shape();
  LCE_CHECK(s.rank() >= 1 && lane >= 0 && lane < s.dim(0));
  s.dim(0) = 1;
  std::size_t lane_bytes = 0;
  LCE_CHECK(Tensor::CheckedByteSize(full.dtype(), s, &lane_bytes));
  return Tensor::View(full.dtype(), s,
                      static_cast<std::uint8_t*>(full.raw_data()) +
                          lane_bytes * static_cast<std::size_t>(lane));
}

}  // namespace

Tensor ExecutionContext::input(int i) {
  LCE_CHECK(arena_ok_ && "input() on a context whose arena allocation failed");
  Tensor full = ValueTensor(model_->graph_.input_ids()[i]);
  return io_lane_ < 0 ? full : LaneSlice(std::move(full), io_lane_);
}

Tensor ExecutionContext::output(int i) {
  LCE_CHECK(arena_ok_ &&
            "output() on a context whose arena allocation failed");
  Tensor full = ValueTensor(model_->graph_.output_ids()[i]);
  return io_lane_ < 0 ? full : LaneSlice(std::move(full), io_lane_);
}

void ExecutionContext::set_io_lane(int lane) {
  LCE_CHECK(lane >= -1 && lane < model_->batch_);
  io_lane_ = lane;
}

void ExecutionContext::Reset() {
  arena_.Zero();
  profile_.clear();
  io_lane_ = -1;
}

void ExecutionContext::RunNode(const Node& n, OpProfile* prof) {
  operands_.resize(n.inputs.size());
  for (std::size_t i = 0; i < n.inputs.size(); ++i) {
    operands_[i] = ValueTensor(n.inputs[i]);
  }
  Tensor out = ValueTensor(n.outputs[0]);
  GetOpDef(n.type).run({n, model_->kernels_[n.id].get(), operands_, out, ctx_,
                        prof != nullptr ? &prof->bconv : nullptr});
}

Status ExecutionContext::Invoke(const CancellationToken* cancel) {
  telemetry::TraceScope invoke_scope("interpreter/invoke", "interpreter");
  if (request_id_ != 0) invoke_scope.AddArg("req", request_id_);
  if (!arena_ok_) {
    return Status::ResourceExhausted(
        "execution context arena allocation failed");
  }
  profile_.clear();
  nodes_executed_ = 0;
  // Publish the token to the gemm context so long-running kernels (the
  // ConvPipeline engine) can poll it at row-tile-block boundaries; cleared
  // on every exit path so a pooled context never leaks a dead request's
  // token into the next Invoke.
  ctx_.set_cancellation(cancel);
  struct TokenClearer {
    gemm::Context& ctx;
    ~TokenClearer() { ctx.set_cancellation(nullptr); }
  } token_clearer{ctx_};
  const bool profiling = options_.enable_profiling;
  const bool tracing = telemetry::TracingActive();
  const bool node_hist = !model_->node_histograms_.empty();
  int step = 0;
  for (int id : model_->order_) {
    // Cancellation point: per-node boundary. The post-loop check below
    // covers expiry during the final node (including a pipeline that
    // early-exited mid-kernel, leaving that node's output unspecified).
    if (cancel != nullptr && cancel->Expired()) return cancel->status();
#ifdef LCE_FAULT_INJECTION
    {
      Status injected = serving::fault::FaultInjector::Global().OnNode(step);
      if (!injected.ok()) return injected;
    }
#endif
    const Node& n = model_->graph_.node(id);
    ++nodes_executed_;
    try {
      if (profiling || tracing || node_hist) {
        // One timestamp pair drives the tracer span, the OpProfile record
        // and the per-node latency histogram, so Table 4 / Figure 5
        // aggregation, the Chrome trace and the serving stats are three
        // views of the same measurement.
        OpProfile prof;
        const std::uint64_t t0 = telemetry::NowNanos();
        RunNode(n, profiling ? &prof : nullptr);
        const std::uint64_t t1 = telemetry::NowNanos();
        if (tracing) {
          // The "req" argument joins this node span with its request's
          // queue_wait / execute / invoke spans across Perfetto tracks.
          telemetry::Tracer::Global().RecordCompleteWithArg(
              n.name.c_str(), "node", t0, t1,
              request_id_ != 0 ? "req" : nullptr, request_id_);
        }
        if (node_hist && model_->node_histograms_[id] != nullptr) {
          model_->node_histograms_[id]->Record(
              static_cast<std::int64_t>(t1 - t0));
        }
        if (profiling) {
          prof.node_id = id;
          prof.name = n.name;
          prof.type = n.type;
          prof.is_binary_op =
              GetOpDef(n.type).dialect == OpDialect::kBinary;
          prof.seconds = static_cast<double>(t1 - t0) * 1e-9;
          profile_.push_back(std::move(prof));
        }
      } else {
        RunNode(n, nullptr);
      }
    } catch (const std::bad_alloc&) {
      // Kernel scratch allocation failed (gemm::Context::Scratch). Load
      // shedding, not a programmer error: report and let the caller retry
      // or shed -- the arena and this context remain structurally valid but
      // the run's intermediate state is abandoned.
      return Status::ResourceExhausted("kernel scratch allocation failed at '" +
                                       n.name + "'");
    }
    if (options_.observer) {
      options_.observer(n, ValueTensor(n.outputs[0]));
    }
    ++step;
  }
  if (cancel != nullptr && cancel->Expired()) return cancel->status();
  return Status::Ok();
}

void ExecutionContext::Invoke() {
  const Status s = Invoke(nullptr);
  LCE_CHECK(s.ok() &&
            "ExecutionContext::Invoke failed; serving callers must use the "
            "Status-returning overload");
}

}  // namespace lce
