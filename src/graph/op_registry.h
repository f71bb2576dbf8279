// The op registry: one OpDef row per OpType, the single place an op is
// declared (docs/KERNELS.md, "Declaring an op").
//
// Modeled on TFLite kernel registration, where an op is a Prepare/Eval
// pair over opaque per-node user data. Every pass that needs to know what
// an op does looks its row up here instead of switching on the type:
// shape inference (Graph::TryAddNode / InferOutput), semantic validation
// and resource bounds (validator), kernel preparation and execution
// (CompiledModel::Build / ExecutionContext), and MAC accounting (printer,
// ComputeModelStats).
#ifndef LCE_GRAPH_OP_REGISTRY_H_
#define LCE_GRAPH_OP_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/resource_limits.h"
#include "core/status.h"
#include "core/tensor.h"
#include "gemm/context.h"
#include "graph/ir.h"

namespace lce {

// The dialect an op belongs to (graph/ir.h). Operand dtypes of int8 and
// binary ops are checked when the node is constructed; float ops accept
// any operand dtype at construction and are dtype-checked by the
// validator only.
enum class OpDialect : std::uint8_t { kFloat, kInt8, kBinary };

// A set of accepted operand dtypes, one bit per DataType.
using DTypeMask = std::uint8_t;
constexpr DTypeMask DTypeBit(DataType t) {
  return static_cast<DTypeMask>(1u << static_cast<unsigned>(t));
}

// MACs one node executes. `binary` marks XNOR-popcount MACs: the LCE
// binary ops and the training dialect's emulated binarized conv / FC.
struct MacCount {
  std::int64_t macs = 0;
  bool binary = false;
};

// What a prepare hook builds once per node at compile time and every
// execution context then shares read-only (TFLite's user data). Opaque
// here; the op's run hook knows the concrete kernel type.
using PreparedState = std::shared_ptr<const void>;

// Everything a run hook sees for one execution of one node.
struct OpRunArgs {
  const Node& node;
  const void* state;                  // the node's PreparedState, or null
  const std::vector<Tensor>& inputs;  // one view per node.inputs entry
  Tensor& output;
  gemm::Context& ctx;                 // scratch, thread pool, cancellation
  BConvStageTimes* bconv_times;       // non-null only while profiling
};

struct OpDef {
  OpType type;
  std::string_view name;
  // Exact operand count; -1 means variadic with at least two operands.
  int arity = 0;
  OpDialect dialect = OpDialect::kFloat;
  // Accepted dtypes of operand 0 and of every later operand.
  DTypeMask operand_dtypes[2] = {};

  // Fills the attrs derivable from operand shapes (conv/pool geometry, FC
  // features) and range-checks the builder-supplied ones. Runs after the
  // arity check; null when the op has no such attrs.
  Status (*resolve)(OpAttrs& attrs,
                    const std::vector<const Value*>& inputs) = nullptr;
  // Output dtype and shape from resolved attrs.
  Status (*infer)(const OpAttrs& attrs, const std::vector<const Value*>& inputs,
                  DataType* dtype, Shape* shape) = nullptr;
  // Semantics beyond what the validator checks for every op (arity, enum
  // attrs, operand dtypes) and what re-inference checks (shapes).
  Status (*validate)(const Graph& g, const Node& n) = nullptr;
  // Bound on scratch the node allocates outside the arena at run time;
  // null when it allocates none.
  Status (*resources)(const Node& n, const ResourceLimits& limits) = nullptr;
  // Null for ops that execute no MACs.
  MacCount (*macs)(const Graph& g, const Node& n) = nullptr;
  // Builds the node's kernel; null for stateless ops. `root` is null on a
  // root compile. On a variant compile it is the state the mapped root
  // node prepared, and the hook returns a sibling that shares its packed
  // weights and rebuilds only geometry-dependent state -- or `root` itself
  // when the kernel is batch-agnostic. Adds the bytes of packed binary
  // weights it allocates to *packed_bytes.
  PreparedState (*prepare)(const Graph& g, const Node& n,
                           const PreparedState& root,
                           std::size_t* packed_bytes) = nullptr;
  void (*run)(const OpRunArgs& args) = nullptr;
};

// The row for `t`, which must be a valid enumerator: check IsValidOpType
// before casting an untrusted byte to OpType.
const OpDef& GetOpDef(OpType t);

// True when `num_inputs` operands satisfy the op's arity.
bool ArityMatches(const OpDef& def, std::size_t num_inputs);

// The op's operand dtype rule applied to `inputs`: empty when every
// operand is accepted, else the first violation ("operand 'x' must be
// bitpacked, got float32").
std::string OperandDTypeError(const OpDef& def,
                              const std::vector<const Value*>& inputs);

// MACs of one node (zero for ops without a macs hook).
MacCount CountMacs(const Graph& g, const Node& n);

// "<OpName> node '<name>'", the prefix of every per-node diagnostic.
std::string DescribeNode(const Node& n);
// InvalidArgument("<DescribeNode(n)>: <what>").
Status InvalidNode(const Node& n, const std::string& what);

}  // namespace lce

#endif  // LCE_GRAPH_OP_REGISTRY_H_
