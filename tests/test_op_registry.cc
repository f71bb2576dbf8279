// Op registry tests: the table holds one complete row per OpType.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "graph/op_registry.h"

namespace lce {
namespace {

TEST(OpRegistry, EveryOpTypeHasACompleteRow) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < kNumOpTypes; ++i) {
    ASSERT_TRUE(IsValidOpType(static_cast<std::uint8_t>(i)));
    const OpType t = static_cast<OpType>(i);
    const OpDef& def = GetOpDef(t);
    EXPECT_EQ(def.type, t) << i;
    EXPECT_FALSE(def.name.empty()) << i;
    EXPECT_EQ(def.name, OpTypeName(t));
    EXPECT_TRUE(names.insert(std::string(def.name)).second)
        << "duplicate name " << def.name;
    EXPECT_TRUE(def.arity == -1 || def.arity >= 1) << def.name;
    EXPECT_NE(def.operand_dtypes[0], 0) << def.name;
    EXPECT_NE(def.infer, nullptr) << def.name;
    EXPECT_NE(def.validate, nullptr) << def.name;
    EXPECT_NE(def.run, nullptr) << def.name;
  }
  EXPECT_EQ(names.size(), kNumOpTypes);
  EXPECT_EQ(kNumOpTypes,
            static_cast<std::size_t>(OpType::kLceBFullyConnected) + 1);
  EXPECT_FALSE(IsValidOpType(static_cast<std::uint8_t>(kNumOpTypes)));
}

TEST(OpRegistry, OperandDTypeRuleNamesTheOffendingOperand) {
  Value x;
  x.name = "x";
  x.dtype = DataType::kFloat32;
  const OpDef& bconv = GetOpDef(OpType::kLceBConv2d);
  EXPECT_EQ(OperandDTypeError(bconv, {&x}),
            "operand 'x' must be bitpacked, got float32");
  Value w;
  w.name = "w";
  w.dtype = DataType::kInt8;
  x.dtype = DataType::kBitpacked;
  EXPECT_EQ(OperandDTypeError(bconv, {&x, &w}),
            "operand 'w' must be float32 or bitpacked, got int8");
  w.dtype = DataType::kBitpacked;
  EXPECT_EQ(OperandDTypeError(bconv, {&x, &w}), "");
}

TEST(OpRegistry, ConstructionChecksDTypesOnlyOutsideTheFloatDialect) {
  Graph g;
  const int packed = g.AddInput("p", DataType::kBitpacked, Shape{1, 64});
  int out = -1;
  // Float-dialect ops defer dtype checks to the validator.
  EXPECT_TRUE(g.TryAddNode(OpType::kRelu, "relu", {packed}, {}, &out).ok());
  // Int8 and binary ops reject a wrong operand dtype at construction.
  EXPECT_FALSE(
      g.TryAddNode(OpType::kDequantizeInt8, "dq", {packed}, {}, &out).ok());
  const int x = g.AddInput("x", DataType::kFloat32, Shape{1, 64});
  EXPECT_FALSE(
      g.TryAddNode(OpType::kLceDequantize, "ldq", {x}, {}, &out).ok());
}

}  // namespace
}  // namespace lce
