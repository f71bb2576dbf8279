#include "serving/context_pool.h"

#include <string>
#include <utility>

#include "core/macros.h"
#include "telemetry/metrics.h"

namespace lce::serving {
namespace {

telemetry::Metric* ReusedTotal() {
  static telemetry::Metric* m =
      telemetry::MetricsRegistry::Global().Counter("serving.pool.reused_total");
  return m;
}

telemetry::Metric* CreatedTotal() {
  static telemetry::Metric* m = telemetry::MetricsRegistry::Global().Counter(
      "serving.pool.created_total");
  return m;
}

telemetry::Metric* QuarantinedTotal() {
  static telemetry::Metric* m = telemetry::MetricsRegistry::Global().Counter(
      "serving.pool.quarantined_total");
  return m;
}

telemetry::Metric* EvictedTotal() {
  static telemetry::Metric* m = telemetry::MetricsRegistry::Global().Counter(
      "serving.pool.evicted_total");
  return m;
}

}  // namespace

ContextPool::ContextPool(std::shared_ptr<const CompiledModel> root,
                         int capacity, ExecutionOptions options)
    : root_(std::move(root)),
      capacity_(capacity),
      options_(std::move(options)) {
  LCE_CHECK(root_ != nullptr && "ContextPool requires a compiled model");
  LCE_CHECK_GT(capacity_, 0);
}

Status ContextPool::Acquire(std::unique_ptr<ExecutionContext>* out) {
  return Acquire(root_->input_hw(), root_->batch(), out);
}

Status ContextPool::Acquire(int shape_hw, int batch,
                            std::unique_ptr<ExecutionContext>* out) {
  LCE_CHECK(out != nullptr);
  if (shape_hw == 0) shape_hw = root_->input_hw();
  const VariantKey key{shape_hw, batch};
  std::shared_ptr<const CompiledModel> model;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      // A miss is an InvalidArgument, never a fallback to a "close" variant:
      // handing out a context whose arena was planned for another
      // resolution or lane count would read/write through the wrong offsets.
      std::shared_ptr<const CompiledModel> variant =
          CompiledModel::FindVariant(root_, key);
      if (variant == nullptr) {
        return Status::InvalidArgument(
            "no compiled variant for shape bucket " +
            std::to_string(shape_hw) + ", batch " + std::to_string(batch));
      }
      it = slots_.emplace(key, Slot{std::move(variant), {}}).first;
    }
    auto& free_list = it->second.free;
    if (!free_list.empty()) {
      *out = std::move(free_list.back());
      free_list.pop_back();
      ++outstanding_;
      ReusedTotal()->Add(1);
      return Status::Ok();
    }
    if (outstanding_ >= capacity_) {
      return Status::ResourceExhausted("context pool exhausted (" +
                                       std::to_string(capacity_) +
                                       " contexts checked out)");
    }
    // The capacity bound covers parked contexts too (resident arenas ==
    // outstanding + pooled <= capacity). When every idle slot is parked
    // under a different variant, evict one: the arena mix follows the
    // (resolution, batch) keys actually being requested, which is what
    // keeps resident arena bytes at the cross-bucket high-water mark
    // instead of the per-bucket sum.
    int resident = outstanding_;
    for (const auto& [k, slot] : slots_) {
      resident += static_cast<int>(slot.free.size());
    }
    if (resident >= capacity_) {
      for (auto& [k, slot] : slots_) {
        if (!slot.free.empty()) {
          slot.free.pop_back();  // destroys the context (unique_ptr)
          ++evicted_;
          EvictedTotal()->Add(1);
          break;
        }
      }
    }
    ++outstanding_;  // reserve the slot while constructing outside the lock
    model = it->second.model;
  }
  // Construction (one arena allocation) happens outside the pool lock so a
  // slow or failing allocation never blocks concurrent Release/Acquire.
  auto ctx = std::make_unique<ExecutionContext>(std::move(model), options_);
  if (!ctx->allocation_ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    --outstanding_;
    return Status::ResourceExhausted(
        "execution context arena allocation failed");
  }
  CreatedTotal()->Add(1);
  *out = std::move(ctx);
  return Status::Ok();
}

void ContextPool::Release(std::unique_ptr<ExecutionContext> ctx,
                          const Status& invoke_status) {
  LCE_CHECK(ctx != nullptr);
  bool quarantine = false;
  if (!invoke_status.ok()) {
    // Poisoned run: the arena (and possibly the gemm scratch) holds the
    // partial state of an aborted execution. Never reuse it -- destroy the
    // context; a later Acquire builds a replacement from scratch.
    QuarantinedTotal()->Add(1);
    quarantine = true;
  } else {
    // Reset-on-return: zeroed arena + cleared profile makes the pooled
    // context bit-identical (as observable state) to a fresh one.
    ctx->Reset();
  }
  std::lock_guard<std::mutex> lock(mu_);
  const CompiledModel& model = ctx->model();
  const auto it = slots_.find(VariantKey{model.input_hw(), model.batch()});
  LCE_CHECK(it != slots_.end() && it->second.model.get() == &model &&
            "released context does not belong to this pool");
  --outstanding_;
  LCE_CHECK_GE(outstanding_, 0);
  if (quarantine) {
    ++quarantined_;
    ctx.reset();
  } else {
    it->second.free.push_back(std::move(ctx));
  }
}

std::int64_t ContextPool::quarantined() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_;
}

std::int64_t ContextPool::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

int ContextPool::outstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outstanding_;
}

int ContextPool::pooled() const {
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (const auto& [k, slot] : slots_) n += static_cast<int>(slot.free.size());
  return n;
}

}  // namespace lce::serving
