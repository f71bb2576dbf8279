// Validator tests: the semantic trust boundary for untrusted models.
//
// Every legitimate graph (training dialect, converted inference dialect,
// post-training-quantized) must pass; every hand-corrupted graph must be
// rejected with the documented StatusCode -- kInvalidArgument for semantic
// defects, kResourceExhausted for limit violations -- and never an abort.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "converter/convert.h"
#include "converter/ptq.h"
#include "graph/interpreter.h"
#include "graph/validator.h"
#include "models/builder.h"
#include "models/zoo.h"

namespace lce {
namespace {

Graph SmallModel() {
  Graph g;
  ModelBuilder b(g, 31);
  int x = b.Input(16, 16, 3);
  x = b.Conv(x, 16, 3, 2, Padding::kSameZero);
  x = b.BatchNorm(x);
  x = b.Relu(x);
  x = b.BinaryConv(x, 16, 3, 1, Padding::kSameOne);
  x = b.BatchNorm(x);
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 10);
  x = b.Softmax(x);
  g.MarkOutput(x);
  return g;
}

Graph FloatModel() {
  Graph g;
  ModelBuilder b(g, 7);
  int x = b.Input(8, 8, 3);
  x = b.Conv(x, 8, 3, 1, Padding::kSameZero);
  x = b.Relu(x);
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 4);
  g.MarkOutput(x);
  return g;
}

// The first live node of the given type; the tests corrupt it in place.
Node& FindNode(Graph& g, OpType t) {
  for (const auto& n : g.nodes()) {
    if (n->alive && n->type == t) return *n;
  }
  ADD_FAILURE() << "no node of type " << OpTypeName(t);
  return g.node(0);
}

// ---- Legitimate graphs pass -------------------------------------------------

TEST(Validator, AcceptsTrainingGraph) {
  Graph g = SmallModel();
  const Status s = ValidateGraph(g);
  EXPECT_TRUE(s.ok()) << s.message();
}

TEST(Validator, AcceptsConvertedGraph) {
  Graph g = SmallModel();
  ASSERT_TRUE(Convert(g).ok());
  const Status s = ValidateGraph(g);
  EXPECT_TRUE(s.ok()) << s.message();
}

TEST(Validator, AcceptsPtqGraph) {
  Graph g = FloatModel();
  ASSERT_TRUE(QuantizeModelInt8(g).ok());
  const Status s = ValidateGraph(g);
  EXPECT_TRUE(s.ok()) << s.message();
}

TEST(Validator, AcceptsConvertedZooModels) {
  for (const char* name : {"QuickNetSmall", "BiRealNet"}) {
    for (const ZooModel& m : AllZooModels()) {
      if (m.name != name) continue;
      Graph g = m.build(32);
      ASSERT_TRUE(Convert(g).ok()) << m.name;
      const Status s = ValidateGraph(g);
      EXPECT_TRUE(s.ok()) << m.name << ": " << s.message();
    }
  }
}

// ---- TryAddNode rejects structurally broken node records --------------------

TEST(Validator, TryAddNodeRejectsWrongArity) {
  Graph g;
  int out = -1;
  // Zero-operand conv: must not read inputs[0]/inputs[1] out of bounds.
  EXPECT_FALSE(g.TryAddNode(OpType::kConv2D, "c", {}, OpAttrs{}, &out).ok());
  // Zero-operand unary op.
  EXPECT_FALSE(g.TryAddNode(OpType::kRelu, "r", {}, OpAttrs{}, &out).ok());
}

TEST(Validator, TryAddNodeRejectsBadFcRank) {
  Graph g;
  const int x = g.AddInput("x", DataType::kFloat32, Shape{1, 2, 3});
  Tensor w(DataType::kFloat32, Shape{4, 6});
  const int wid = g.AddConstant("w", std::move(w));
  int out = -1;
  const Status s =
      g.TryAddNode(OpType::kFullyConnected, "fc", {x, wid}, OpAttrs{}, &out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(Validator, TryAddNodeRejectsExtremeStride) {
  Graph g;
  const int x = g.AddInput("x", DataType::kFloat32, Shape{1, 8, 8, 3});
  Tensor w(DataType::kFloat32, Shape{4, 3, 3, 3});
  const int wid = g.AddConstant("w", std::move(w));
  for (int stride : {0, -1, std::numeric_limits<int>::max()}) {
    OpAttrs a;
    a.conv.stride_h = stride;
    a.conv.stride_w = 1;
    a.conv.padding = Padding::kSameZero;
    int out = -1;
    const Status s = g.TryAddNode(OpType::kConv2D, "c", {x, wid}, a, &out);
    EXPECT_FALSE(s.ok()) << "stride " << stride;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
}

TEST(Validator, TryAddNodeRejectsEmptyConvOutput) {
  Graph g;
  const int x = g.AddInput("x", DataType::kFloat32, Shape{1, 4, 4, 3});
  Tensor w(DataType::kFloat32, Shape{4, 9, 9, 3});  // filter > input, valid pad
  const int wid = g.AddConstant("w", std::move(w));
  OpAttrs a;
  a.conv.stride_h = a.conv.stride_w = 1;
  a.conv.padding = Padding::kValid;
  int out = -1;
  EXPECT_FALSE(g.TryAddNode(OpType::kConv2D, "c", {x, wid}, a, &out).ok());
}

// ---- ValidateGraph rejects corrupted-but-parseable graphs -------------------

// Each case corrupts one aspect of a freshly built valid graph and names the
// exact status code the validator must return.
struct CorruptionCase {
  const char* name;
  bool convert;  // corrupt the inference dialect instead of training
  void (*corrupt)(Graph&);
  StatusCode want;
};

void NonConstantConvWeights(Graph& g) {
  Node& n = FindNode(g, OpType::kConv2D);
  g.value(n.inputs[1]).is_constant = false;
}
void BadActivationEnum(Graph& g) {
  FindNode(g, OpType::kConv2D).attrs.activation = static_cast<Activation>(250);
}
void BadPaddingEnum(Graph& g) {
  FindNode(g, OpType::kConv2D).attrs.conv.padding = static_cast<Padding>(9);
}
void WrongBiasSize(Graph& g) {
  Node& n = FindNode(g, OpType::kConv2D);
  n.attrs.bias.assign(n.attrs.conv.out_c + 3, 0.0f);
}
void GeometryMismatch(Graph& g) {
  FindNode(g, OpType::kConv2D).attrs.conv.in_h += 1;
}
void WrongMultiplierSize(Graph& g) {
  Node& n = FindNode(g, OpType::kLceBConv2d);
  n.attrs.multiplier.assign(n.attrs.conv.out_c + 1, 1.0f);
}
void WrongBnScaleSize(Graph& g) {
  FindNode(g, OpType::kBatchNorm).attrs.bn_scale.clear();
}

TEST(Validator, RejectsCorruptedGraphs) {
  const CorruptionCase kCases[] = {
      {"NonConstantConvWeights", false, NonConstantConvWeights,
       StatusCode::kInvalidArgument},
      {"BadActivationEnum", false, BadActivationEnum,
       StatusCode::kInvalidArgument},
      {"BadPaddingEnum", false, BadPaddingEnum, StatusCode::kInvalidArgument},
      {"WrongBiasSize", false, WrongBiasSize, StatusCode::kInvalidArgument},
      {"GeometryMismatch", false, GeometryMismatch,
       StatusCode::kInvalidArgument},
      {"WrongMultiplierSize", true, WrongMultiplierSize,
       StatusCode::kInvalidArgument},
      {"WrongBnScaleSize", false, WrongBnScaleSize,
       StatusCode::kInvalidArgument},
  };
  for (const auto& c : kCases) {
    Graph g = SmallModel();
    if (c.convert) {
      ASSERT_TRUE(Convert(g).ok()) << c.name;
    }
    c.corrupt(g);
    const Status s = ValidateGraph(g);
    EXPECT_FALSE(s.ok()) << c.name;
    EXPECT_EQ(s.code(), c.want) << c.name << ": " << s.message();
  }
}

TEST(Validator, RejectsAddOnBitpackedOperands) {
  // InferOutput accepts any equal-shaped operands for kAdd, but AddFloat
  // reads float storage; bitpacked values store fewer words than logical
  // elements, so this dtype confusion would read out of bounds.
  Graph g;
  const int a = g.AddInput("a", DataType::kBitpacked, Shape{1, 64});
  const int b = g.AddInput("b", DataType::kBitpacked, Shape{1, 64});
  int out = -1;
  ASSERT_TRUE(g.TryAddNode(OpType::kAdd, "add", {a, b}, OpAttrs{}, &out).ok());
  g.MarkOutput(out);
  const Status s = ValidateGraph(g);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(Validator, RejectsNonFiniteQuantScale) {
  for (float scale : {0.0f, -1.0f, std::numeric_limits<float>::infinity(),
                      std::numeric_limits<float>::quiet_NaN()}) {
    Graph g;
    const int x = g.AddInput("x", DataType::kFloat32, Shape{1, 8});
    OpAttrs a;
    a.output_quant = {scale, 0};
    int out = -1;
    ASSERT_TRUE(
        g.TryAddNode(OpType::kQuantizeInt8, "q", {x}, a, &out).ok());
    g.MarkOutput(out);
    const Status s = ValidateGraph(g);
    EXPECT_FALSE(s.ok()) << "scale " << scale;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
}

TEST(Validator, RejectsZeroPointOutOfInt8Range) {
  Graph g;
  const int x = g.AddInput("x", DataType::kFloat32, Shape{1, 8});
  OpAttrs a;
  // DequantizeValue computes int32(v) - zero_point; an extreme zero point
  // would overflow that subtraction.
  a.output_quant = {0.5f, std::numeric_limits<std::int32_t>::min()};
  int out = -1;
  ASSERT_TRUE(g.TryAddNode(OpType::kQuantizeInt8, "q", {x}, a, &out).ok());
  g.MarkOutput(out);
  const Status s = ValidateGraph(g);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(Validator, RejectsDeadGraphOutput) {
  Graph g = SmallModel();
  // Kill the output's producer; the declared graph output is now dead.
  g.RemoveNode(g.value(g.output_ids()[0]).producer);
  const Status s = ValidateGraph(g);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// ---- Resource limits --------------------------------------------------------

TEST(Validator, EnforcesNodeAndValueCounts) {
  Graph g = SmallModel();
  ResourceLimits limits;
  limits.max_nodes = 1;
  EXPECT_EQ(ValidateGraph(g, limits).code(), StatusCode::kResourceExhausted);
  limits = ResourceLimits{};
  limits.max_values = 2;
  EXPECT_EQ(ValidateGraph(g, limits).code(), StatusCode::kResourceExhausted);
}

TEST(Validator, EnforcesTensorElementLimit) {
  Graph g = SmallModel();
  ResourceLimits limits;
  limits.max_tensor_elements = 16;  // input alone is 16*16*3
  EXPECT_EQ(ValidateGraph(g, limits).code(), StatusCode::kResourceExhausted);
}

TEST(Validator, EnforcesModelByteLimit) {
  Graph g = SmallModel();
  ResourceLimits limits;
  limits.max_model_bytes = 64;  // far below the conv weights
  EXPECT_EQ(ValidateGraph(g, limits).code(), StatusCode::kResourceExhausted);
}

TEST(Validator, EnforcesIm2ColLimit) {
  Graph g = SmallModel();
  ResourceLimits limits;
  limits.max_im2col_bytes = 64;
  EXPECT_EQ(ValidateGraph(g, limits).code(), StatusCode::kResourceExhausted);
}

TEST(Validator, UnlimitedAcceptsLargeGraphs) {
  Graph g = SmallModel();
  const Status s = ValidateGraph(g, ResourceLimits::Unlimited());
  EXPECT_TRUE(s.ok()) << s.message();
}

// ---- Interpreter integration ------------------------------------------------

TEST(Validator, PrepareReturnsStatusOnCorruptGraph) {
  Graph g = SmallModel();
  NonConstantConvWeights(g);
  Interpreter interp(g);
  const Status s = interp.Prepare();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(Validator, PrepareEnforcesArenaLimit) {
  Graph g = SmallModel();
  InterpreterOptions opts;
  opts.limits.max_arena_bytes = 1;
  Interpreter interp(g, opts);
  const Status s = interp.Prepare();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

// ---- Shape-bucket request validation ---------------------------------------
// The shape-bucket surface is client-reachable (a shaped Submit names an
// arbitrary resolution), so it gets the same hostile-fixture treatment as
// the untrusted-model path: nonsense shapes -> kInvalidArgument, over-limit
// ones -> kResourceExhausted, never an abort or a wrapped size.

TEST(Validator, ShapeBucketAcceptsLegitimateResolutions) {
  const Graph g = SmallModel();
  for (const int hw : {1, 8, 96, 224, 320, 4096}) {
    const Status s = ValidateShapeBucketRequest(g, hw);
    EXPECT_TRUE(s.ok()) << "hw=" << hw << ": " << s.message();
  }
}

TEST(Validator, ShapeBucketRejectsZeroAndNegativeResolutions) {
  const Graph g = SmallModel();
  for (const int hw : {0, -1, -224, std::numeric_limits<int>::min()}) {
    EXPECT_EQ(ValidateShapeBucketRequest(g, hw).code(),
              StatusCode::kInvalidArgument)
        << "hw=" << hw;
  }
}

TEST(Validator, ShapeBucketRejectsOverLimitResolutions) {
  const Graph g = SmallModel();
  // Past max_input_hw (default 4096) and at int max, where hw*hw would
  // overflow 32-bit math: both must be clean kResourceExhausted (the cap
  // fires before the overflow check can matter).
  for (const int hw : {4097, 1 << 20, std::numeric_limits<int>::max()}) {
    EXPECT_EQ(ValidateShapeBucketRequest(g, hw).code(),
              StatusCode::kResourceExhausted)
        << "hw=" << hw;
  }
  // With the resolution cap lifted, the per-tensor element cap still
  // bounds the resized input tensor.
  ResourceLimits generous = ResourceLimits::Unlimited();
  generous.max_tensor_elements = 1 << 20;
  EXPECT_EQ(ValidateShapeBucketRequest(g, 1 << 15, generous).code(),
            StatusCode::kResourceExhausted)
      << "3 * (32768^2) elements must trip the tensor cap";
  // And a resolution whose square overflows int64 is rejected (not UB)
  // even with every limit at int64 max.
  EXPECT_FALSE(ValidateShapeBucketRequest(g, std::numeric_limits<int>::max(),
                                          ResourceLimits::Unlimited())
                   .ok());
}

TEST(Validator, ShapeBucketRequiresImageShapedBatch1Inputs) {
  Graph vec;
  const int x = vec.AddInput("x", DataType::kFloat32, Shape{1, 10});
  vec.MarkOutput(x);
  EXPECT_EQ(ValidateShapeBucketRequest(vec, 32).code(),
            StatusCode::kInvalidArgument);

  Graph batched;
  const int y =
      batched.AddInput("y", DataType::kFloat32, Shape{2, 16, 16, 3});
  batched.MarkOutput(y);
  EXPECT_EQ(ValidateShapeBucketRequest(batched, 32).code(),
            StatusCode::kInvalidArgument)
      << "a root graph is batch-1; batch-N is its own registry key, "
         "GetOrCompileVariant(root, {hw, N})";
}

TEST(Validator, ShapeBucketAbsurdBucketCountIsCappedByTheRegistry) {
  // The validator checks one request; the bucket-count cap lives in
  // CompiledModel's registry. An absurd max_shape_buckets setting must
  // still leave per-request validation intact.
  const Graph g = SmallModel();
  ResourceLimits limits;
  limits.max_shape_buckets = std::numeric_limits<std::int64_t>::max();
  EXPECT_TRUE(ValidateShapeBucketRequest(g, 64, limits).ok());
  limits.max_shape_buckets = 0;
  EXPECT_TRUE(ValidateShapeBucketRequest(g, 64, limits).ok())
      << "the per-request check is count-independent by design";
}

}  // namespace
}  // namespace lce
