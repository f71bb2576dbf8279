#include "graph/validator.h"

#include <cstdint>
#include <string>

#include "core/tensor.h"
#include "core/types.h"
#include "graph/op_registry.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

// Every enum-valued attribute must hold a defined enumerator, whether or not
// this op reads it: the serializer stores the full attribute struct per node,
// so any field can carry bytes straight from the file.
Status CheckEnums(const Node& n) {
  const OpAttrs& a = n.attrs;
  if (!IsValidPadding(static_cast<std::uint8_t>(a.conv.padding)) ||
      !IsValidPadding(static_cast<std::uint8_t>(a.pool.padding))) {
    return InvalidNode(n, "invalid padding");
  }
  if (!IsValidActivation(static_cast<std::uint8_t>(a.activation)) ||
      !IsValidActivation(static_cast<std::uint8_t>(a.pre_activation))) {
    return InvalidNode(n, "invalid activation");
  }
  if (!IsValidGraphBConvOutputType(
          static_cast<std::uint8_t>(a.bconv_output))) {
    return InvalidNode(n, "invalid bconv output type");
  }
  return Status::Ok();
}

// Per-node resource checks (separate from semantics so ValidateNode stays
// limit-free for callers that only care about legality).
Status ValidateNodeResources(const Node& n, const ResourceLimits& limits) {
  if (static_cast<std::int64_t>(n.inputs.size()) > limits.max_node_inputs) {
    return Status::ResourceExhausted(DescribeNode(n) + ": too many operands");
  }
  const OpDef& def = GetOpDef(n.type);
  return def.resources != nullptr ? def.resources(n, limits) : Status::Ok();
}

}  // namespace

Status ValidateNode(const Graph& g, const Node& n) {
  if (!IsValidOpType(static_cast<std::uint8_t>(n.type))) {
    return Status::InvalidArgument("node '" + n.name + "' has invalid op type");
  }
  const OpDef& def = GetOpDef(n.type);
  if (!ArityMatches(def, n.inputs.size())) {
    return InvalidNode(n, "wrong operand count (" +
                              std::to_string(n.inputs.size()) + ")");
  }
  if (n.outputs.size() != 1) {
    return InvalidNode(n, "must have exactly one output");
  }
  LCE_RETURN_IF_ERROR(CheckEnums(n));
  std::vector<const Value*> operands;
  operands.reserve(n.inputs.size());
  for (int id : n.inputs) operands.push_back(&g.value(id));
  const std::string dtype_error = OperandDTypeError(def, operands);
  if (!dtype_error.empty()) return InvalidNode(n, dtype_error);
  return def.validate(g, n);
}

namespace {

Status ValidateGraphImpl(const Graph& g, const ResourceLimits& limits) {
  if (static_cast<std::int64_t>(g.nodes().size()) > limits.max_nodes) {
    return Status::ResourceExhausted("graph exceeds the node-count limit");
  }
  if (static_cast<std::int64_t>(g.values().size()) > limits.max_values) {
    return Status::ResourceExhausted("graph exceeds the value-count limit");
  }

  // Per-value legality and resource accounting.
  std::size_t constant_bytes = 0;
  for (const auto& v : g.values()) {
    if (!v->alive) continue;
    if (!IsValidDType(static_cast<std::uint8_t>(v->dtype))) {
      return Status::InvalidArgument("value '" + v->name +
                                     "' has invalid dtype");
    }
    for (int d = 0; d < v->shape.rank(); ++d) {
      if (v->shape.dim(d) < 1) {
        return Status::InvalidArgument("value '" + v->name +
                                       "' has a non-positive dimension");
      }
    }
    if (v->dtype == DataType::kBitpacked && v->shape.rank() < 1) {
      return Status::InvalidArgument(
          "value '" + v->name +
          "' is bitpacked but has no channel dimension to pack");
    }
    std::size_t bytes = 0;
    if (!Tensor::CheckedByteSize(v->dtype, v->shape, &bytes)) {
      return Status::InvalidArgument("value '" + v->name +
                                     "' size overflows");
    }
    if (bytes > limits.max_tensor_bytes) {
      return Status::ResourceExhausted("value '" + v->name +
                                       "' exceeds the tensor byte limit");
    }
    std::int64_t elements = 0;
    if (!v->shape.checked_num_elements(&elements) ||
        elements > limits.max_tensor_elements) {
      return Status::ResourceExhausted("value '" + v->name +
                                       "' exceeds the element limit");
    }
    if (v->is_constant) {
      if (!v->constant_data.allocated() ||
          v->constant_data.dtype() != v->dtype ||
          v->constant_data.shape() != v->shape) {
        return Status::InvalidArgument("constant '" + v->name +
                                       "' storage mismatch");
      }
      if (__builtin_add_overflow(constant_bytes, bytes, &constant_bytes) ||
          constant_bytes > limits.max_model_bytes) {
        return Status::ResourceExhausted(
            "total constant bytes exceed the model limit");
      }
    }
    // Alive-producer invariant: an alive value's producer must be alive too
    // (Prepare relies on this when assigning lifetimes).
    if (v->producer >= 0) {
      if (v->producer >= static_cast<int>(g.nodes().size()) ||
          !g.node(v->producer).alive) {
        return Status::InvalidArgument("value '" + v->name +
                                       "' is produced by a removed node");
      }
    }
  }

  // Graph inputs must be live, non-constant values (the interpreter hands
  // out writable arena views for them).
  for (int id : g.input_ids()) {
    if (id < 0 || id >= static_cast<int>(g.values().size()) ||
        !g.value(id).alive || g.value(id).is_constant) {
      return Status::InvalidArgument("invalid graph input");
    }
  }
  for (int id : g.output_ids()) {
    if (id < 0 || id >= static_cast<int>(g.values().size()) ||
        !g.value(id).alive) {
      return Status::InvalidArgument("invalid graph output");
    }
  }

  // Per-node semantics and resources.
  std::int64_t live_nodes = 0;
  for (const auto& n : g.nodes()) {
    if (!n->alive) continue;
    ++live_nodes;
    for (int id : n->inputs) {
      if (id < 0 || id >= static_cast<int>(g.values().size()) ||
          !g.value(id).alive) {
        return Status::InvalidArgument("node '" + n->name +
                                       "' has an invalid operand");
      }
    }
    for (int id : n->outputs) {
      if (id < 0 || id >= static_cast<int>(g.values().size())) {
        return Status::InvalidArgument("node '" + n->name +
                                       "' has an invalid output");
      }
    }
    LCE_RETURN_IF_ERROR(ValidateNode(g, *n));
    LCE_RETURN_IF_ERROR(ValidateNodeResources(*n, limits));
  }

  // Structural re-inference: stored output shapes/dtypes must match what the
  // ops produce, and producer back-links must hold.
  LCE_RETURN_IF_ERROR(g.Validate());

  // Acyclicity: every live node must be reachable in a topological sweep.
  if (static_cast<std::int64_t>(g.TopologicalOrder().size()) != live_nodes) {
    return Status::InvalidArgument("graph contains a cycle");
  }
  return Status::Ok();
}

}  // namespace

Status ValidateGraph(const Graph& g, const ResourceLimits& limits) {
  Status st = ValidateGraphImpl(g, limits);
  if (!st.ok()) {
    // Exposed alongside the robustness work: a rising reject count in a
    // deployment's metrics dump means someone is feeding it bad models.
    static telemetry::Metric* rejects =
        telemetry::MetricsRegistry::Global().Counter("validator.rejects");
    rejects->Add(1);
  }
  return st;
}

Status ValidateShapeBucketRequest(const Graph& g, int input_hw,
                                  const ResourceLimits& limits) {
  // The resolution itself: zero/negative is nonsense, and anything past
  // the cap is refused before a single byte of the clone exists. The
  // square is overflow-checked so a hostile resolution near INT_MAX cannot
  // wrap the per-tensor element math downstream (which is itself checked,
  // but this surface should reject with a shape-specific diagnostic).
  if (input_hw < 1) {
    return Status::InvalidArgument(
        "shape bucket resolution must be >= 1, got " +
        std::to_string(input_hw));
  }
  if (static_cast<std::int64_t>(input_hw) > limits.max_input_hw) {
    return Status::ResourceExhausted(
        "shape bucket resolution " + std::to_string(input_hw) +
        " exceeds the max_input_hw limit (" +
        std::to_string(limits.max_input_hw) + ")");
  }
  std::int64_t spatial = 0;
  if (__builtin_mul_overflow(static_cast<std::int64_t>(input_hw),
                             static_cast<std::int64_t>(input_hw), &spatial)) {
    return Status::InvalidArgument("shape bucket resolution overflows");
  }
  // The graph side: bucketing replaces the H/W of every graph input, which
  // is only meaningful for image-shaped batch-1 inputs. Per-tensor element
  // and byte caps on the resized inputs are pre-checked here; the full
  // validator re-checks every intermediate tensor when the variant graph
  // is compiled.
  for (const int vid : g.input_ids()) {
    const Value& v = g.value(vid);
    if (v.shape.rank() != 4 || v.shape.dim(0) != 1) {
      return Status::InvalidArgument(
          "shape buckets require rank-4 batch-1 [1, H, W, C] graph inputs; "
          "input '" + v.name + "' has rank " +
          std::to_string(v.shape.rank()));
    }
    const std::int64_t channels = v.shape.dim(3);
    std::int64_t elements = 0;
    if (__builtin_mul_overflow(spatial, channels, &elements) ||
        elements > limits.max_tensor_elements) {
      return Status::ResourceExhausted(
          "shape bucket input '" + v.name +
          "' exceeds the per-tensor element limit at resolution " +
          std::to_string(input_hw));
    }
  }
  return Status::Ok();
}

}  // namespace lce
