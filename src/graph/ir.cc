#include "graph/ir.h"

#include <algorithm>
#include <queue>
#include <set>

#include "core/macros.h"
#include "graph/op_registry.h"

namespace lce {

int Graph::NewValue(std::string name, DataType dtype, Shape shape) {
  auto v = std::make_unique<Value>();
  v->id = static_cast<int>(values_.size());
  v->name = std::move(name);
  v->dtype = dtype;
  v->shape = shape;
  values_.push_back(std::move(v));
  return values_.back()->id;
}

int Graph::AddInput(std::string name, DataType dtype, Shape shape) {
  const int id = NewValue(std::move(name), dtype, shape);
  input_ids_.push_back(id);
  return id;
}

int Graph::AddConstant(std::string name, Tensor data) {
  const int id = NewValue(std::move(name), data.dtype(), data.shape());
  values_[id]->is_constant = true;
  values_[id]->constant_data = std::move(data);
  return id;
}

namespace {

// Range-checks the type and the operand count before any op hook reads
// inputs[0]/inputs[1] (node records in a model file can claim any type
// byte and operand count), then applies the operand dtype rule of int8 and
// binary ops.
Status CheckOperands(OpType type, const std::vector<const Value*>& inputs) {
  if (!IsValidOpType(static_cast<std::uint8_t>(type))) {
    return Status::InvalidArgument("invalid op type");
  }
  const OpDef& def = GetOpDef(type);
  if (!ArityMatches(def, inputs.size())) {
    return Status::InvalidArgument("wrong operand count for " +
                                   std::string(def.name));
  }
  if (def.dialect != OpDialect::kFloat) {
    const std::string error = OperandDTypeError(def, inputs);
    if (!error.empty()) {
      return Status::InvalidArgument(std::string(def.name) + " " + error);
    }
  }
  return Status::Ok();
}

}  // namespace

Status Graph::InferOutput(OpType type, const OpAttrs& attrs,
                          const std::vector<const Value*>& inputs,
                          DataType* dtype, Shape* shape) {
  LCE_RETURN_IF_ERROR(CheckOperands(type, inputs));
  return GetOpDef(type).infer(attrs, inputs, dtype, shape);
}

int Graph::AddNode(OpType type, std::string name, std::vector<int> inputs,
                   OpAttrs attrs) {
  int out = -1;
  const Status s =
      TryAddNode(type, std::move(name), std::move(inputs), std::move(attrs),
                 &out);
  LCE_CHECK(s.ok());
  return out;
}

Status Graph::TryAddNode(OpType type, std::string name,
                         std::vector<int> inputs, OpAttrs attrs,
                         int* out_value) {
  std::vector<const Value*> in_vals;
  in_vals.reserve(inputs.size());
  for (int id : inputs) {
    if (id < 0 || id >= static_cast<int>(values_.size())) {
      return Status::InvalidArgument("node input id out of range");
    }
    in_vals.push_back(values_[id].get());
  }

  LCE_RETURN_IF_ERROR(CheckOperands(type, in_vals));
  const OpDef& def = GetOpDef(type);
  if (def.resolve != nullptr) LCE_RETURN_IF_ERROR(def.resolve(attrs, in_vals));

  DataType dtype;
  Shape shape;
  LCE_RETURN_IF_ERROR(def.infer(attrs, in_vals, &dtype, &shape));

  auto n = std::make_unique<Node>();
  n->id = static_cast<int>(nodes_.size());
  n->name = std::move(name);
  n->type = type;
  n->inputs = std::move(inputs);
  n->attrs = std::move(attrs);
  const int out = NewValue(n->name + ":out", dtype, shape);
  values_[out]->producer = n->id;
  n->outputs.push_back(out);
  for (int id : n->inputs) values_[id]->consumers.push_back(n->id);
  nodes_.push_back(std::move(n));
  *out_value = out;
  return Status::Ok();
}

std::vector<int> Graph::TopologicalOrder() const {
  // Kahn's algorithm over live nodes; ties broken by node id so the order is
  // deterministic and respects construction order where possible.
  std::vector<int> pending_inputs(nodes_.size(), 0);
  for (const auto& n : nodes_) {
    if (!n->alive) continue;
    int deps = 0;
    for (int v : n->inputs) {
      const int p = values_[v]->producer;
      if (p >= 0 && nodes_[p]->alive) ++deps;
    }
    pending_inputs[n->id] = deps;
  }
  std::priority_queue<int, std::vector<int>, std::greater<>> ready;
  for (const auto& n : nodes_) {
    if (n->alive && pending_inputs[n->id] == 0) ready.push(n->id);
  }
  std::vector<int> order;
  while (!ready.empty()) {
    const int id = ready.top();
    ready.pop();
    order.push_back(id);
    for (int out : nodes_[id]->outputs) {
      for (int c : values_[out]->consumers) {
        if (!nodes_[c]->alive) continue;
        if (--pending_inputs[c] == 0) ready.push(c);
      }
    }
  }
  return order;
}

int Graph::LiveNodeCount() const {
  int n = 0;
  for (const auto& node : nodes_) n += node->alive ? 1 : 0;
  return n;
}

int Graph::CountOps(OpType t) const {
  int n = 0;
  for (const auto& node : nodes_) n += (node->alive && node->type == t) ? 1 : 0;
  return n;
}

void Graph::ReplaceAllUses(int from_value, int to_value) {
  if (from_value == to_value) return;
  Value& from = *values_[from_value];
  for (int c : from.consumers) {
    Node& n = *nodes_[c];
    for (int& in : n.inputs) {
      if (in == from_value) {
        in = to_value;
        values_[to_value]->consumers.push_back(c);
      }
    }
  }
  from.consumers.clear();
  for (int& out : output_ids_) {
    if (out == from_value) out = to_value;
  }
}

void Graph::RemoveNode(int node_id) {
  Node& n = *nodes_[node_id];
  if (!n.alive) return;
  n.alive = false;
  for (int in : n.inputs) {
    auto& cons = values_[in]->consumers;
    cons.erase(std::remove(cons.begin(), cons.end(), node_id), cons.end());
  }
  for (int out : n.outputs) values_[out]->alive = false;
}

void Graph::ReplaceInput(int node_id, int old_v, int new_v) {
  Node& n = *nodes_[node_id];
  bool replaced = false;
  for (int& in : n.inputs) {
    if (in == old_v && !replaced) {
      in = new_v;
      replaced = true;
    }
  }
  LCE_CHECK(replaced);
  auto& cons = values_[old_v]->consumers;
  auto it = std::find(cons.begin(), cons.end(), node_id);
  if (it != cons.end()) cons.erase(it);
  values_[new_v]->consumers.push_back(node_id);
}

void Graph::SetValueType(int value_id, DataType dtype) {
  values_[value_id]->dtype = dtype;
}

Status Graph::Validate() const {
  for (const auto& n : nodes_) {
    if (!n->alive) continue;
    std::vector<const Value*> in_vals;
    for (int id : n->inputs) {
      const Value& v = *values_[id];
      if (!v.alive) {
        return Status::Internal("node " + n->name + " uses dead value " +
                                v.name);
      }
      in_vals.push_back(&v);
    }
    DataType dtype;
    Shape shape;
    LCE_RETURN_IF_ERROR(Graph::InferOutput(n->type, n->attrs, in_vals, &dtype,
                                           &shape));
    const Value& out = *values_[n->outputs[0]];
    if (out.dtype != dtype || out.shape != shape) {
      return Status::Internal("node " + n->name +
                              " output mismatch: stored " + out.shape.ToString() +
                              " inferred " + shape.ToString());
    }
    if (out.producer != n->id) {
      return Status::Internal("producer back-link broken at " + n->name);
    }
  }
  // All graph outputs must be alive.
  for (int out : output_ids_) {
    if (!values_[out]->alive) return Status::Internal("dead graph output");
  }
  return Status::Ok();
}

std::size_t Graph::ConstantBytes() const {
  // Count only constants consumed by live nodes.
  std::size_t bytes = 0;
  for (const auto& v : values_) {
    if (!v->is_constant) continue;
    bool used = false;
    for (int c : v->consumers) {
      if (nodes_[c]->alive) {
        used = true;
        break;
      }
    }
    if (used) bytes += v->constant_data.byte_size();
  }
  return bytes;
}

}  // namespace lce
