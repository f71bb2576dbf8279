#include "graph/op_registry.h"

#include <cmath>
#include <cstring>
#include <iterator>

#include "core/bitpack.h"
#include "gemm/int8_isa.h"
#include "kernels/bconv2d.h"
#include "kernels/bfully_connected.h"
#include "kernels/bmaxpool.h"
#include "kernels/conv2d_float.h"
#include "kernels/conv2d_int8.h"
#include "kernels/depthwise_conv.h"
#include "kernels/elementwise.h"
#include "kernels/fully_connected.h"
#include "kernels/pooling.h"
#include "kernels/quantize_ops.h"

namespace lce {
namespace {

constexpr DTypeMask kF = DTypeBit(DataType::kFloat32);
constexpr DTypeMask kI8 = DTypeBit(DataType::kInt8);
constexpr DTypeMask kBP = DTypeBit(DataType::kBitpacked);

// Spatial / filter / stride bound for convolution and pooling geometry.
// Keeps all downstream `int` arithmetic (output sizes, padding amounts,
// im2col indexing) far from overflow while being orders of magnitude above
// any real model. Matches the bound the deserializer places on tensor
// dimensions.
constexpr std::int64_t kMaxConvDim = std::int64_t{1} << 24;

using Inputs = std::vector<const Value*>;

// ---- Shared shape inference -------------------------------------------------

// Conv family (Conv2D, DepthwiseConv2D, Conv2DInt8, LceBConv2d): x is NHWC,
// w is OHWI, or [fh, fw, c] for depthwise.
template <bool kDepthwise>
Status ResolveConv(OpAttrs& attrs, const Inputs& inputs) {
  Conv2DGeometry& g = attrs.conv;
  if (g.stride_h <= 0 || g.stride_w <= 0 || g.stride_h > kMaxConvDim ||
      g.stride_w > kMaxConvDim) {
    return Status::InvalidArgument("conv stride out of range");
  }
  const Shape& x = inputs[0]->shape;
  const Shape& w = inputs[1]->shape;
  if (x.rank() != 4 || w.rank() != (kDepthwise ? 3 : 4)) {
    return Status::InvalidArgument("conv operand ranks");
  }
  if (w.dim(kDepthwise ? 2 : 3) != x.dim(3)) {
    return Status::InvalidArgument("conv channel mismatch");
  }
  g.batch = static_cast<int>(x.dim(0));
  g.in_h = static_cast<int>(x.dim(1));
  g.in_w = static_cast<int>(x.dim(2));
  g.in_c = static_cast<int>(x.dim(3));
  g.out_c = kDepthwise ? g.in_c : static_cast<int>(w.dim(0));
  g.filter_h = static_cast<int>(w.dim(kDepthwise ? 0 : 1));
  g.filter_w = static_cast<int>(w.dim(kDepthwise ? 1 : 2));
  if (g.out_h() < 1 || g.out_w() < 1) {
    return Status::InvalidArgument(
        "conv output would be empty (filter larger than input?)");
  }
  return Status::Ok();
}

template <DataType kOut>
Status InferConv(const OpAttrs& attrs, const Inputs&, DataType* dtype,
                 Shape* shape) {
  const Conv2DGeometry& g = attrs.conv;
  *dtype = kOut;
  *shape = Shape{g.batch, g.out_h(), g.out_w(), g.out_c};
  return Status::Ok();
}

Status InferBConv(const OpAttrs& attrs, const Inputs& inputs, DataType* dtype,
                  Shape* shape) {
  LCE_RETURN_IF_ERROR(
      InferConv<DataType::kFloat32>(attrs, inputs, dtype, shape));
  if (attrs.bconv_output == BConvOutputType::kBitpacked) {
    *dtype = DataType::kBitpacked;
  }
  return Status::Ok();
}

// Pool family (MaxPool2D, AvgPool2D, LceBMaxPool2d).
Status ResolvePool(OpAttrs& attrs, const Inputs& inputs) {
  Pool2DGeometry& g = attrs.pool;
  if (g.stride_h <= 0 || g.stride_w <= 0 || g.filter_h <= 0 ||
      g.filter_w <= 0 || g.stride_h > kMaxConvDim ||
      g.stride_w > kMaxConvDim || g.filter_h > kMaxConvDim ||
      g.filter_w > kMaxConvDim) {
    return Status::InvalidArgument("pool geometry out of range");
  }
  const Shape& x = inputs[0]->shape;
  if (x.rank() != 4) return Status::InvalidArgument("pool rank");
  g.batch = static_cast<int>(x.dim(0));
  g.in_h = static_cast<int>(x.dim(1));
  g.in_w = static_cast<int>(x.dim(2));
  g.channels = static_cast<int>(x.dim(3));
  if (g.out_h() < 1 || g.out_w() < 1) {
    return Status::InvalidArgument("pool output would be empty");
  }
  return Status::Ok();
}

template <DataType kOut>
Status InferPool(const OpAttrs& attrs, const Inputs&, DataType* dtype,
                 Shape* shape) {
  const Pool2DGeometry& g = attrs.pool;
  *dtype = kOut;
  *shape = Shape{g.batch, g.out_h(), g.out_w(), g.channels};
  return Status::Ok();
}

// FC family (FullyConnected, LceBFullyConnected): x [batch, in], w
// [out, in].
Status ResolveFc(OpAttrs& attrs, const Inputs& inputs) {
  if (inputs[0]->shape.rank() != 2 || inputs[1]->shape.rank() != 2) {
    return Status::InvalidArgument("fc operands must be rank 2");
  }
  attrs.fc_out_features = static_cast<int>(inputs[1]->shape.dim(0));
  attrs.fc_in_features = static_cast<int>(inputs[1]->shape.dim(1));
  if (inputs[0]->shape.dim(1) != attrs.fc_in_features) {
    return Status::InvalidArgument("fc feature mismatch");
  }
  return Status::Ok();
}

Status InferFc(const OpAttrs& attrs, const Inputs& inputs, DataType* dtype,
               Shape* shape) {
  *dtype = DataType::kFloat32;
  *shape = Shape{inputs[0]->shape.dim(0), attrs.fc_out_features};
  return Status::Ok();
}

// Elementwise ops: the output has operand 0's shape.
template <DataType kOut>
Status InferSameShape(const OpAttrs&, const Inputs& inputs, DataType* dtype,
                      Shape* shape) {
  *dtype = kOut;
  *shape = inputs[0]->shape;
  return Status::Ok();
}

Status InferGlobalAvgPool(const OpAttrs&, const Inputs& inputs,
                          DataType* dtype, Shape* shape) {
  const Shape& x = inputs[0]->shape;
  if (x.rank() != 4) return Status::InvalidArgument("gap rank");
  *dtype = DataType::kFloat32;
  *shape = Shape{x.dim(0), x.dim(3)};
  return Status::Ok();
}

Status InferAdd(const OpAttrs& attrs, const Inputs& inputs, DataType* dtype,
                Shape* shape) {
  if (inputs[0]->shape != inputs[1]->shape) {
    return Status::InvalidArgument("add operands must match");
  }
  return InferSameShape<DataType::kFloat32>(attrs, inputs, dtype, shape);
}

Status InferConcat(const OpAttrs&, const Inputs& inputs, DataType* dtype,
                   Shape* shape) {
  const Shape& first = inputs[0]->shape;
  if (first.rank() != 4) return Status::InvalidArgument("concat rank");
  std::int64_t channels = 0;
  for (const Value* v : inputs) {
    if (v->shape.rank() != 4 || v->shape.dim(0) != first.dim(0) ||
        v->shape.dim(1) != first.dim(1) || v->shape.dim(2) != first.dim(2)) {
      return Status::InvalidArgument("concat spatial mismatch");
    }
    channels += v->shape.dim(3);
  }
  *dtype = DataType::kFloat32;
  *shape = Shape{first.dim(0), first.dim(1), first.dim(2), channels};
  return Status::Ok();
}

Status InferMulChannel(const OpAttrs& attrs, const Inputs& inputs,
                       DataType* dtype, Shape* shape) {
  const Shape& x = inputs[0]->shape;
  const Shape& gate = inputs[1]->shape;
  if (x.rank() != 4 || gate.rank() != 2 || gate.dim(0) != x.dim(0) ||
      gate.dim(1) != x.dim(3)) {
    return Status::InvalidArgument("mulch shape mismatch");
  }
  return InferSameShape<DataType::kFloat32>(attrs, inputs, dtype, shape);
}

Status InferSlice(const OpAttrs& attrs, const Inputs& inputs, DataType* dtype,
                  Shape* shape) {
  const Shape& x = inputs[0]->shape;
  if (x.rank() != 4) return Status::InvalidArgument("slice rank");
  if (attrs.slice_begin < 0 || attrs.slice_count <= 0 ||
      std::int64_t{attrs.slice_begin} + attrs.slice_count > x.dim(3)) {
    return Status::InvalidArgument("slice range out of bounds");
  }
  *dtype = DataType::kFloat32;
  *shape = Shape{x.dim(0), x.dim(1), x.dim(2), attrs.slice_count};
  return Status::Ok();
}

// ---- Shared validation ------------------------------------------------------

bool PositiveFinite(float v) { return std::isfinite(v) && v > 0.0f; }

// Activation-side quantization parameters: kernels divide by the scale and
// add/subtract the zero point in int32 arithmetic, so both must be in sane
// ranges before a kernel ever sees them.
Status CheckQuant(const Node& n, const char* which, const QuantParams& q) {
  if (!PositiveFinite(q.scale)) {
    return InvalidNode(
        n, std::string(which) + " quant scale must be finite and > 0");
  }
  if (q.zero_point < -128 || q.zero_point > 127) {
    return InvalidNode(
        n, std::string(which) + " quant zero point out of int8 range");
  }
  return Status::Ok();
}

Status CheckRank(const Node& n, const Value& v, int rank) {
  if (v.shape.rank() != rank) {
    return InvalidNode(n, "operand '" + v.name + "' must have rank " +
                              std::to_string(rank) + ", got " +
                              std::to_string(v.shape.rank()));
  }
  return Status::Ok();
}

Status CheckMinRank1(const Graph& g, const Node& n) {
  const Value& x = g.value(n.inputs[0]);
  if (x.shape.rank() < 1) {
    return InvalidNode(n, "operand '" + x.name + "' must have rank >= 1");
  }
  return Status::Ok();
}

// Weight operands must be constants with backing storage: prepare hands the
// raw weight pointer to kernel constructors, so a non-constant (or
// storage-less) weight would dereference null before Invoke even runs.
Status CheckConstWeight(const Graph& g, const Node& n) {
  const Value& w = g.value(n.inputs[1]);
  if (!w.is_constant || !w.constant_data.allocated()) {
    return InvalidNode(n, "weight operand '" + w.name + "' must be a constant");
  }
  return Status::Ok();
}

// Optional per-channel attribute vectors must be empty or exactly
// channel-sized; kernels index them with channel subscripts.
Status CheckPerChannel(const Node& n, const char* name, std::size_t got,
                       std::int64_t channels) {
  if (got == 0) return Status::Ok();
  if (static_cast<std::int64_t>(got) != channels) {
    return InvalidNode(n, std::string(name) + " must be empty or have " +
                              std::to_string(channels) + " entries, got " +
                              std::to_string(got));
  }
  return Status::Ok();
}

// Re-derives convolution geometry from the operand shapes (the rules
// ResolveConv applies at construction) and cross-checks the stored
// attrs, so kernels can trust attrs.conv at run time even if a rewrite
// desynchronized it. Compares in int64 so an oversized dimension cannot
// alias a corrupted attr through narrowing.
Status CheckConvOperands(const Graph& graph, const Node& n, bool depthwise) {
  LCE_RETURN_IF_ERROR(CheckConstWeight(graph, n));
  const Value& x = graph.value(n.inputs[0]);
  const Value& w = graph.value(n.inputs[1]);
  const Conv2DGeometry& g = n.attrs.conv;
  LCE_RETURN_IF_ERROR(CheckRank(n, x, 4));
  LCE_RETURN_IF_ERROR(CheckRank(n, w, depthwise ? 3 : 4));
  const std::int64_t in_c = x.shape.dim(3);
  const std::int64_t out_c = depthwise ? in_c : w.shape.dim(0);
  const std::int64_t fh = w.shape.dim(depthwise ? 0 : 1);
  const std::int64_t fw = w.shape.dim(depthwise ? 1 : 2);
  if (w.shape.dim(depthwise ? 2 : 3) != in_c) {
    return InvalidNode(n, "weight/input channel mismatch");
  }
  if (g.batch != x.shape.dim(0) || g.in_h != x.shape.dim(1) ||
      g.in_w != x.shape.dim(2) || g.in_c != in_c || g.out_c != out_c ||
      g.filter_h != fh || g.filter_w != fw) {
    return InvalidNode(n, "conv geometry does not match operand shapes");
  }
  if (g.in_h > kMaxConvDim || g.in_w > kMaxConvDim ||
      g.filter_h > kMaxConvDim || g.filter_w > kMaxConvDim ||
      g.stride_h < 1 || g.stride_w < 1 || g.stride_h > kMaxConvDim ||
      g.stride_w > kMaxConvDim) {
    return InvalidNode(n, "conv geometry out of supported range");
  }
  // Safe to evaluate only after the range checks above.
  if (g.out_h() < 1 || g.out_w() < 1) {
    return InvalidNode(n, "conv output would be empty");
  }
  return Status::Ok();
}

Status ValidatePool(const Graph& graph, const Node& n) {
  const Value& x = graph.value(n.inputs[0]);
  const Pool2DGeometry& g = n.attrs.pool;
  LCE_RETURN_IF_ERROR(CheckRank(n, x, 4));
  if (g.batch != x.shape.dim(0) || g.in_h != x.shape.dim(1) ||
      g.in_w != x.shape.dim(2) || g.channels != x.shape.dim(3)) {
    return InvalidNode(n, "pool geometry does not match input shape");
  }
  if (g.filter_h < 1 || g.filter_w < 1 || g.stride_h < 1 || g.stride_w < 1 ||
      g.filter_h > kMaxConvDim || g.filter_w > kMaxConvDim ||
      g.stride_h > kMaxConvDim || g.stride_w > kMaxConvDim ||
      g.in_h > kMaxConvDim || g.in_w > kMaxConvDim) {
    return InvalidNode(n, "pool geometry out of supported range");
  }
  if (g.out_h() < 1 || g.out_w() < 1) {
    return InvalidNode(n, "pool output would be empty");
  }
  return Status::Ok();
}

// FC family: constant weights whose shape matches the feature attrs.
Status CheckFcOperands(const Graph& g, const Node& n) {
  LCE_RETURN_IF_ERROR(CheckConstWeight(g, n));
  const Value& x = g.value(n.inputs[0]);
  const Value& w = g.value(n.inputs[1]);
  LCE_RETURN_IF_ERROR(CheckRank(n, x, 2));
  LCE_RETURN_IF_ERROR(CheckRank(n, w, 2));
  if (n.attrs.fc_out_features != w.shape.dim(0) ||
      n.attrs.fc_in_features != w.shape.dim(1)) {
    return InvalidNode(n, "fc features do not match weight shape");
  }
  if (x.shape.dim(1) != n.attrs.fc_in_features) {
    return InvalidNode(n, "fc input feature mismatch");
  }
  return Status::Ok();
}

Status ValidateFc(const Graph& g, const Node& n) {
  LCE_RETURN_IF_ERROR(CheckFcOperands(g, n));
  return CheckPerChannel(n, "bias", n.attrs.bias.size(),
                         n.attrs.fc_out_features);
}

Status ValidateBFc(const Graph& g, const Node& n) {
  const OpAttrs& a = n.attrs;
  LCE_RETURN_IF_ERROR(CheckFcOperands(g, n));
  LCE_RETURN_IF_ERROR(CheckPerChannel(n, "multiplier", a.multiplier.size(),
                                      a.fc_out_features));
  return CheckPerChannel(n, "bias", a.bias.size(), a.fc_out_features);
}

Status ValidateConv2D(const Graph& g, const Node& n) {
  LCE_RETURN_IF_ERROR(CheckConvOperands(g, n, /*depthwise=*/false));
  return CheckPerChannel(n, "bias", n.attrs.bias.size(), n.attrs.conv.out_c);
}

Status ValidateDepthwise(const Graph& g, const Node& n) {
  LCE_RETURN_IF_ERROR(CheckConvOperands(g, n, /*depthwise=*/true));
  if (n.attrs.conv.padding == Padding::kSameOne) {
    return InvalidNode(n, "one-padding is not supported for depthwise conv");
  }
  return CheckPerChannel(n, "bias", n.attrs.bias.size(), n.attrs.conv.in_c);
}

Status ValidateConv2DInt8(const Graph& g, const Node& n) {
  const OpAttrs& a = n.attrs;
  LCE_RETURN_IF_ERROR(CheckConvOperands(g, n, /*depthwise=*/false));
  if (a.conv.padding == Padding::kSameOne) {
    return InvalidNode(n, "one-padding is not supported for int8 conv");
  }
  LCE_RETURN_IF_ERROR(CheckQuant(n, "input", a.input_quant));
  LCE_RETURN_IF_ERROR(CheckQuant(n, "output", a.output_quant));
  if (!PositiveFinite(a.weight_quant.scale)) {
    return InvalidNode(n, "weight quant scale must be finite and > 0");
  }
  if (a.weight_quant.zero_point != 0) {
    return InvalidNode(n,
                       "weight quantization must be symmetric (zero point 0)");
  }
  for (float s : a.weight_scales) {
    if (!PositiveFinite(s)) {
      return InvalidNode(n, "weight scales must be finite and > 0");
    }
  }
  LCE_RETURN_IF_ERROR(CheckPerChannel(n, "weight_scales",
                                      a.weight_scales.size(), a.conv.out_c));
  return CheckPerChannel(n, "bias_int32", a.bias_int32.size(), a.conv.out_c);
}

Status ValidateBConv(const Graph& g, const Node& n) {
  const OpAttrs& a = n.attrs;
  LCE_RETURN_IF_ERROR(CheckConvOperands(g, n, /*depthwise=*/false));
  LCE_RETURN_IF_ERROR(
      CheckPerChannel(n, "multiplier", a.multiplier.size(), a.conv.out_c));
  return CheckPerChannel(n, "bias", a.bias.size(), a.conv.out_c);
}

// BatchNorm and PRelu: one per-channel vector entry per innermost channel.
Status CheckChannelVectors(const Graph& g, const Node& n, const char* what,
                           std::initializer_list<std::size_t> sizes) {
  LCE_RETURN_IF_ERROR(CheckMinRank1(g, n));
  const Shape& x = g.value(n.inputs[0]).shape;
  const std::int64_t c = x.dim(x.rank() - 1);
  for (std::size_t size : sizes) {
    if (static_cast<std::int64_t>(size) != c) {
      return InvalidNode(n, std::string(what) +
                                " must have one entry per channel");
    }
  }
  return Status::Ok();
}

Status NoOpSpecificChecks(const Graph&, const Node&) { return Status::Ok(); }

// ---- Resource bounds --------------------------------------------------------

// Bounds a convolution's im2col patch-matrix footprint (rows x depth
// elements). The kernels gather per row tile instead of materializing that
// matrix, but its size bounds the work and the run-time state (indirection
// tables, scratch) a hostile geometry could demand outside the planned
// arena, which the arena cap does not cover. `kBitpacked` depth is counted
// in packed words.
template <DataType kElem>
Status Im2ColResources(const Node& n, const ResourceLimits& limits) {
  const Conv2DGeometry& g = n.attrs.conv;
  const std::int64_t channels =
      kElem == DataType::kBitpacked ? BitpackedWords(g.in_c) : g.in_c;
  const std::int64_t depth =
      static_cast<std::int64_t>(g.filter_h) * g.filter_w * channels;
  std::int64_t rows = g.batch;
  std::int64_t bytes = 0;
  if (__builtin_mul_overflow(rows, g.out_h(), &rows) ||
      __builtin_mul_overflow(rows, g.out_w(), &rows) ||
      __builtin_mul_overflow(rows, depth, &bytes) ||
      __builtin_mul_overflow(
          bytes, static_cast<std::int64_t>(DataTypeByteSize(kElem)), &bytes) ||
      static_cast<std::uint64_t>(bytes) > limits.max_im2col_bytes) {
    return Status::ResourceExhausted(
        DescribeNode(n) + ": im2col scratch would exceed the resource limit");
  }
  return Status::Ok();
}

// ---- MACs -------------------------------------------------------------------

std::int64_t FcMacs(const Graph& g, const Node& n) {
  return g.value(n.inputs[0]).shape.dim(0) * n.attrs.fc_in_features *
         static_cast<std::int64_t>(n.attrs.fc_out_features);
}

MacCount DepthwiseMacs(const Graph&, const Node& n) {
  const Conv2DGeometry& c = n.attrs.conv;
  return {static_cast<std::int64_t>(c.batch) * c.out_h() * c.out_w() *
              c.filter_h * c.filter_w * c.in_c,
          false};
}

// ---- Prepare ----------------------------------------------------------------

// A variant's weight-sharing sibling of the root node's kernel.
template <typename Kernel, typename Attrs>
PreparedState Sibling(const PreparedState& root, Attrs attrs) {
  return std::make_shared<const Kernel>(
      *static_cast<const Kernel*>(root.get()), std::move(attrs));
}

// Weights as the float conv / FC kernels consume them. The training
// dialect's emulated binarized ops (binarize_weights) apply sign() to their
// latent float weights; `storage` holds that signed copy.
const float* FloatKernelWeights(const Graph& g, const Node& n,
                                std::vector<float>& storage) {
  const Tensor& w = g.value(n.inputs[1]).constant_data;
  if (!n.attrs.binarize_weights) return w.data<float>();
  storage.resize(static_cast<std::size_t>(w.num_elements()));
  for (std::size_t i = 0; i < storage.size(); ++i) {
    storage[i] = SignValue(w.data<float>()[i]);
  }
  return storage.data();
}

// Binary kernels take float (+/-1) or already-bitpacked weights.
template <typename Kernel, typename Attrs>
std::shared_ptr<const Kernel> MakeBinaryKernel(const Graph& g, const Node& n,
                                               Attrs attrs,
                                               std::size_t* packed_bytes) {
  const Tensor& w = g.value(n.inputs[1]).constant_data;
  auto kernel = w.dtype() == DataType::kBitpacked
                    ? std::make_shared<const Kernel>(w.data<TBitpacked>(),
                                                     std::move(attrs))
                    : std::make_shared<const Kernel>(w.data<float>(),
                                                     std::move(attrs));
  *packed_bytes += kernel->packed_weights_bytes();
  return kernel;
}

PreparedState PrepareConv2D(const Graph& g, const Node& n,
                            const PreparedState& root, std::size_t*) {
  Conv2DFloatAttrs attrs;
  attrs.geo = n.attrs.conv;
  attrs.activation = n.attrs.activation;
  attrs.bias = n.attrs.bias;
  if (root) return Sibling<Conv2DFloat>(root, std::move(attrs));
  std::vector<float> signed_w;
  return std::make_shared<const Conv2DFloat>(
      FloatKernelWeights(g, n, signed_w), std::move(attrs));
}

PreparedState PrepareDepthwise(const Graph& g, const Node& n,
                               const PreparedState& root, std::size_t*) {
  DepthwiseConv2DAttrs attrs;
  attrs.geo = n.attrs.conv;
  attrs.activation = n.attrs.activation;
  attrs.bias = n.attrs.bias;
  if (root) return Sibling<DepthwiseConv2DFloat>(root, std::move(attrs));
  return std::make_shared<const DepthwiseConv2DFloat>(
      g.value(n.inputs[1]).constant_data.data<float>(), std::move(attrs));
}

PreparedState PrepareConv2DInt8(const Graph& g, const Node& n,
                                const PreparedState& root, std::size_t*) {
  Conv2DInt8Attrs attrs;
  attrs.geo = n.attrs.conv;
  attrs.activation = n.attrs.activation;
  attrs.input_quant = n.attrs.input_quant;
  attrs.weight_quant = n.attrs.weight_quant;
  attrs.output_quant = n.attrs.output_quant;
  attrs.bias = n.attrs.bias_int32;
  attrs.weight_scales = n.attrs.weight_scales;
  if (root) return Sibling<Conv2DInt8>(root, std::move(attrs));
  return std::make_shared<const Conv2DInt8>(
      g.value(n.inputs[1]).constant_data.data<std::int8_t>(),
      std::move(attrs));
}

PreparedState PrepareBConv(const Graph& g, const Node& n,
                           const PreparedState& root,
                           std::size_t* packed_bytes) {
  BConv2DAttrs attrs;
  attrs.geo = n.attrs.conv;
  attrs.output_type = n.attrs.bconv_output;
  attrs.pre_activation = n.attrs.pre_activation;
  attrs.multiplier = n.attrs.multiplier;
  attrs.bias = n.attrs.bias;
  if (root) return Sibling<BConv2D>(root, std::move(attrs));
  return MakeBinaryKernel<BConv2D>(g, n, std::move(attrs), packed_bytes);
}

// The FC kernels read the batch from their input tensor at run time, so a
// variant aliases the root's kernel outright.
PreparedState PrepareFc(const Graph& g, const Node& n,
                        const PreparedState& root, std::size_t*) {
  if (root) return root;
  FullyConnectedAttrs attrs;
  attrs.in_features = n.attrs.fc_in_features;
  attrs.out_features = n.attrs.fc_out_features;
  attrs.activation = n.attrs.activation;
  attrs.bias = n.attrs.bias;
  std::vector<float> signed_w;
  return std::make_shared<const FullyConnectedFloat>(
      FloatKernelWeights(g, n, signed_w), std::move(attrs));
}

PreparedState PrepareBFc(const Graph& g, const Node& n,
                         const PreparedState& root,
                         std::size_t* packed_bytes) {
  if (root) return root;
  BFullyConnectedAttrs attrs;
  attrs.in_features = n.attrs.fc_in_features;
  attrs.out_features = n.attrs.fc_out_features;
  attrs.pre_activation = n.attrs.pre_activation;
  attrs.multiplier = n.attrs.multiplier;
  attrs.bias = n.attrs.bias;
  return MakeBinaryKernel<BFullyConnected>(g, n, std::move(attrs),
                                           packed_bytes);
}

// ---- Run --------------------------------------------------------------------

// The kernel a prepare hook built for this node.
template <typename Kernel>
const Kernel& KernelOf(const OpRunArgs& a) {
  return *static_cast<const Kernel*>(a.state);
}

void RunPRelu(const OpRunArgs& a) {
  const Tensor& in = a.inputs[0];
  const int c = static_cast<int>(in.shape().dim(in.shape().rank() - 1));
  const std::int64_t outer = in.num_elements() / c;
  const float* src = in.data<float>();
  float* dst = a.output.data<float>();
  const float* slope = a.node.attrs.prelu_slope.data();
  for (std::int64_t r = 0; r < outer; ++r) {
    for (int j = 0; j < c; ++j) {
      const float v = src[r * c + j];
      dst[r * c + j] = v > 0.0f ? v : v * slope[j];
    }
  }
}

// Channel-axis concat: interleave per spatial position.
void RunConcat(const OpRunArgs& a) {
  const Shape& os = a.output.shape();
  const std::int64_t outer = os.dim(0) * os.dim(1) * os.dim(2);
  const int out_c = static_cast<int>(os.dim(3));
  float* dst = a.output.data<float>();
  int offset = 0;
  for (const Tensor& in : a.inputs) {
    const int c = static_cast<int>(in.shape().dim(3));
    const float* src = in.data<float>();
    for (std::int64_t r = 0; r < outer; ++r) {
      std::memcpy(dst + r * out_c + offset, src + r * c,
                  static_cast<std::size_t>(c) * sizeof(float));
    }
    offset += c;
  }
}

void RunSlice(const OpRunArgs& a) {
  const Tensor& in = a.inputs[0];
  const int c = static_cast<int>(in.shape().dim(3));
  const std::int64_t outer = in.num_elements() / c;
  const float* src = in.data<float>();
  float* dst = a.output.data<float>();
  const int begin = a.node.attrs.slice_begin;
  const int count = a.node.attrs.slice_count;
  for (std::int64_t r = 0; r < outer; ++r) {
    std::memcpy(dst + r * count, src + r * c + begin,
                static_cast<std::size_t>(count) * sizeof(float));
  }
}

void RunMulChannel(const OpRunArgs& a) {
  const Shape& xs = a.inputs[0].shape();
  const int batch = static_cast<int>(xs.dim(0));
  const std::int64_t hw = xs.dim(1) * xs.dim(2);
  const int c = static_cast<int>(xs.dim(3));
  const float* px = a.inputs[0].data<float>();
  const float* pg = a.inputs[1].data<float>();
  float* po = a.output.data<float>();
  for (int b = 0; b < batch; ++b) {
    const float* gb = pg + static_cast<std::int64_t>(b) * c;
    for (std::int64_t p = 0; p < hw; ++p) {
      const std::int64_t base = (b * hw + p) * c;
      for (int i = 0; i < c; ++i) po[base + i] = px[base + i] * gb[i];
    }
  }
}

// Elementwise float -> float map.
template <float (*kFn)(float)>
void RunMap(const OpRunArgs& a) {
  const float* src = a.inputs[0].data<float>();
  float* dst = a.output.data<float>();
  const std::int64_t count = a.inputs[0].num_elements();
  for (std::int64_t i = 0; i < count; ++i) dst[i] = kFn(src[i]);
}

void RunQuantizeInt8(const OpRunArgs& a) {
  // Scalar-profile contexts and LCE_FORCE_ISA=scalar keep the whole int8
  // path, this op included, on its portable loops.
  const bool simd = a.ctx.profile() == gemm::KernelProfile::kSimd &&
                    gemm::SelectInt8Tier() != gemm::Int8Tier::kScalar;
  QuantizeInt8(a.inputs[0].data<float>(), a.inputs[0].num_elements(),
               a.node.attrs.output_quant, simd, a.output.data<std::int8_t>());
}

void RunDequantizeInt8(const OpRunArgs& a) {
  const std::int8_t* src = a.inputs[0].data<std::int8_t>();
  float* dst = a.output.data<float>();
  const QuantParams& q = a.node.attrs.input_quant;
  const std::int64_t count = a.inputs[0].num_elements();
  for (std::int64_t i = 0; i < count; ++i) dst[i] = DequantizeValue(src[i], q);
}

// ---- The table --------------------------------------------------------------

constexpr auto kInferFloat = InferSameShape<DataType::kFloat32>;

// One row per OpType enumerator, in enumerator order.
constexpr OpDef kOpDefs[] = {
    {.type = OpType::kConv2D, .name = "Conv2D", .arity = 2,
     .operand_dtypes = {kF, kF}, .resolve = ResolveConv<false>,
     .infer = InferConv<DataType::kFloat32>, .validate = ValidateConv2D,
     .resources = Im2ColResources<DataType::kFloat32>,
     .macs = [](const Graph&, const Node& n) {
       return MacCount{n.attrs.conv.macs(), n.attrs.binarize_weights};
     },
     .prepare = PrepareConv2D,
     .run = [](const OpRunArgs& a) {
       KernelOf<Conv2DFloat>(a).Run(a.inputs[0], a.output, a.ctx);
     }},
    {.type = OpType::kDepthwiseConv2D, .name = "DepthwiseConv2D", .arity = 2,
     .operand_dtypes = {kF, kF}, .resolve = ResolveConv<true>,
     .infer = InferConv<DataType::kFloat32>, .validate = ValidateDepthwise,
     .macs = DepthwiseMacs, .prepare = PrepareDepthwise,
     .run = [](const OpRunArgs& a) {
       KernelOf<DepthwiseConv2DFloat>(a).Run(a.inputs[0], a.output,
                                             &a.ctx.pool());
     }},
    {.type = OpType::kFakeSign, .name = "FakeSign", .arity = 1,
     .operand_dtypes = {kF}, .infer = kInferFloat,
     .validate = NoOpSpecificChecks, .run = RunMap<SignValue>},
    {.type = OpType::kBatchNorm, .name = "BatchNorm", .arity = 1,
     .operand_dtypes = {kF}, .infer = kInferFloat,
     .validate = [](const Graph& g, const Node& n) {
       return CheckChannelVectors(
           g, n, "bn_scale/bn_offset",
           {n.attrs.bn_scale.size(), n.attrs.bn_offset.size()});
     },
     .run = [](const OpRunArgs& a) {
       BatchNormFloat(a.inputs[0], a.node.attrs.bn_scale,
                      a.node.attrs.bn_offset, a.output);
     }},
    {.type = OpType::kRelu, .name = "Relu", .arity = 1,
     .operand_dtypes = {kF}, .infer = kInferFloat,
     .validate = NoOpSpecificChecks,
     .run = [](const OpRunArgs& a) { ReluFloat(a.inputs[0], a.output); }},
    {.type = OpType::kPRelu, .name = "PRelu", .arity = 1,
     .operand_dtypes = {kF}, .infer = kInferFloat,
     .validate = [](const Graph& g, const Node& n) {
       return CheckChannelVectors(g, n, "prelu_slope",
                                  {n.attrs.prelu_slope.size()});
     },
     .run = RunPRelu},
    {.type = OpType::kMaxPool2D, .name = "MaxPool2D", .arity = 1,
     .operand_dtypes = {kF}, .resolve = ResolvePool,
     .infer = InferPool<DataType::kFloat32>, .validate = ValidatePool,
     .run = [](const OpRunArgs& a) {
       MaxPool2DFloat(a.inputs[0], a.node.attrs.pool, a.output,
                      &a.ctx.pool());
     }},
    {.type = OpType::kAvgPool2D, .name = "AvgPool2D", .arity = 1,
     .operand_dtypes = {kF}, .resolve = ResolvePool,
     .infer = InferPool<DataType::kFloat32>, .validate = ValidatePool,
     .run = [](const OpRunArgs& a) {
       AvgPool2DFloat(a.inputs[0], a.node.attrs.pool, a.output);
     }},
    {.type = OpType::kGlobalAvgPool, .name = "GlobalAvgPool", .arity = 1,
     .operand_dtypes = {kF}, .infer = InferGlobalAvgPool,
     .validate = NoOpSpecificChecks,
     .run = [](const OpRunArgs& a) {
       GlobalAvgPoolFloat(a.inputs[0], a.output);
     }},
    {.type = OpType::kAdd, .name = "Add", .arity = 2,
     .operand_dtypes = {kF, kF}, .infer = InferAdd,
     .validate = NoOpSpecificChecks,
     .run = [](const OpRunArgs& a) {
       AddFloat(a.inputs[0], a.inputs[1], a.node.attrs.activation, a.output,
                &a.ctx.pool());
     }},
    {.type = OpType::kConcat, .name = "Concat", .arity = -1,
     .operand_dtypes = {kF, kF}, .infer = InferConcat,
     .validate = NoOpSpecificChecks, .run = RunConcat},
    {.type = OpType::kMulChannel, .name = "MulChannel", .arity = 2,
     .operand_dtypes = {kF, kF}, .infer = InferMulChannel,
     .validate = NoOpSpecificChecks, .run = RunMulChannel},
    {.type = OpType::kSlice, .name = "Slice", .arity = 1,
     .operand_dtypes = {kF}, .infer = InferSlice,
     .validate = NoOpSpecificChecks, .run = RunSlice},
    {.type = OpType::kFullyConnected, .name = "FullyConnected", .arity = 2,
     .operand_dtypes = {kF, kF}, .resolve = ResolveFc, .infer = InferFc,
     .validate = ValidateFc,
     .macs = [](const Graph& g, const Node& n) {
       return MacCount{FcMacs(g, n), n.attrs.binarize_weights};
     },
     .prepare = PrepareFc,
     .run = [](const OpRunArgs& a) {
       KernelOf<FullyConnectedFloat>(a).Run(a.inputs[0], a.output, a.ctx);
     }},
    {.type = OpType::kSoftmax, .name = "Softmax", .arity = 1,
     .operand_dtypes = {kF}, .infer = kInferFloat, .validate = CheckMinRank1,
     .run = [](const OpRunArgs& a) { SoftmaxFloat(a.inputs[0], a.output); }},
    {.type = OpType::kQuantizeInt8, .name = "QuantizeInt8", .arity = 1,
     .dialect = OpDialect::kInt8, .operand_dtypes = {kF},
     .infer = InferSameShape<DataType::kInt8>,
     .validate = [](const Graph&, const Node& n) {
       return CheckQuant(n, "output", n.attrs.output_quant);
     },
     .run = RunQuantizeInt8},
    {.type = OpType::kDequantizeInt8, .name = "DequantizeInt8", .arity = 1,
     .dialect = OpDialect::kInt8, .operand_dtypes = {kI8},
     .infer = kInferFloat,
     .validate = [](const Graph&, const Node& n) {
       return CheckQuant(n, "input", n.attrs.input_quant);
     },
     .run = RunDequantizeInt8},
    {.type = OpType::kConv2DInt8, .name = "Conv2DInt8", .arity = 2,
     .dialect = OpDialect::kInt8, .operand_dtypes = {kI8, kI8},
     .resolve = ResolveConv<false>, .infer = InferConv<DataType::kInt8>,
     .validate = ValidateConv2DInt8,
     .resources = Im2ColResources<DataType::kInt8>,
     .macs = [](const Graph&, const Node& n) {
       return MacCount{n.attrs.conv.macs(), false};
     },
     .prepare = PrepareConv2DInt8,
     .run = [](const OpRunArgs& a) {
       KernelOf<Conv2DInt8>(a).Run(a.inputs[0], a.output, a.ctx);
     }},
    {.type = OpType::kLceQuantize, .name = "LceQuantize", .arity = 1,
     .dialect = OpDialect::kBinary, .operand_dtypes = {kF},
     .infer = InferSameShape<DataType::kBitpacked>, .validate = CheckMinRank1,
     .run = [](const OpRunArgs& a) {
       LceQuantize(a.inputs[0], a.output, &a.ctx.pool());
     }},
    {.type = OpType::kLceDequantize, .name = "LceDequantize", .arity = 1,
     .dialect = OpDialect::kBinary, .operand_dtypes = {kBP},
     .infer = kInferFloat, .validate = NoOpSpecificChecks,
     .run = [](const OpRunArgs& a) { LceDequantize(a.inputs[0], a.output); }},
    {.type = OpType::kLceBConv2d, .name = "LceBConv2d", .arity = 2,
     .dialect = OpDialect::kBinary, .operand_dtypes = {kBP, kF | kBP},
     .resolve = ResolveConv<false>, .infer = InferBConv,
     .validate = ValidateBConv,
     .resources = Im2ColResources<DataType::kBitpacked>,
     .macs = [](const Graph&, const Node& n) {
       return MacCount{n.attrs.conv.macs(), true};
     },
     .prepare = PrepareBConv,
     .run = [](const OpRunArgs& a) {
       KernelOf<BConv2D>(a).Run(a.inputs[0], a.output, a.ctx, a.bconv_times);
     }},
    {.type = OpType::kLceBMaxPool2d, .name = "LceBMaxPool2d", .arity = 1,
     .dialect = OpDialect::kBinary, .operand_dtypes = {kBP},
     .resolve = ResolvePool, .infer = InferPool<DataType::kBitpacked>,
     .validate = ValidatePool,
     .run = [](const OpRunArgs& a) {
       LceBMaxPool2d(a.inputs[0], a.node.attrs.pool, a.output);
     }},
    {.type = OpType::kLceBFullyConnected, .name = "LceBFullyConnected",
     .arity = 2, .dialect = OpDialect::kBinary,
     .operand_dtypes = {kBP, kF | kBP}, .resolve = ResolveFc,
     .infer = InferFc, .validate = ValidateBFc,
     .macs = [](const Graph& g, const Node& n) {
       return MacCount{FcMacs(g, n), true};
     },
     .prepare = PrepareBFc,
     .run = [](const OpRunArgs& a) {
       KernelOf<BFullyConnected>(a).Run(a.inputs[0], a.output, a.ctx);
     }},
};

constexpr bool RowsMatchEnumerators() {
  for (std::size_t i = 0; i < std::size(kOpDefs); ++i) {
    if (static_cast<std::size_t>(kOpDefs[i].type) != i) return false;
  }
  return true;
}
static_assert(std::size(kOpDefs) == kNumOpTypes,
              "one OpDef row per OpType enumerator");
static_assert(RowsMatchEnumerators(), "OpDef rows out of enumerator order");

}  // namespace

const OpDef& GetOpDef(OpType t) {
  LCE_DCHECK(IsValidOpType(static_cast<std::uint8_t>(t)));
  return kOpDefs[static_cast<std::size_t>(t)];
}

std::string_view OpTypeName(OpType t) {
  return IsValidOpType(static_cast<std::uint8_t>(t)) ? GetOpDef(t).name
                                                     : "unknown";
}

bool ArityMatches(const OpDef& def, std::size_t num_inputs) {
  return def.arity >= 0 ? num_inputs == static_cast<std::size_t>(def.arity)
                        : num_inputs >= 2;
}

std::string OperandDTypeError(const OpDef& def,
                              const std::vector<const Value*>& inputs) {
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const DTypeMask accepted = def.operand_dtypes[i == 0 ? 0 : 1];
    const Value& v = *inputs[i];
    if ((accepted & DTypeBit(v.dtype)) != 0) continue;
    std::string want;
    for (DataType t : {DataType::kFloat32, DataType::kInt8, DataType::kInt32,
                       DataType::kBitpacked}) {
      if ((accepted & DTypeBit(t)) == 0) continue;
      if (!want.empty()) want += " or ";
      want += DataTypeName(t);
    }
    return "operand '" + v.name + "' must be " + want + ", got " +
           std::string(DataTypeName(v.dtype));
  }
  return {};
}

MacCount CountMacs(const Graph& g, const Node& n) {
  const OpDef& def = GetOpDef(n.type);
  return def.macs != nullptr ? def.macs(g, n) : MacCount{};
}

std::string DescribeNode(const Node& n) {
  return std::string(OpTypeName(n.type)) + " node '" + n.name + "'";
}

Status InvalidNode(const Node& n, const std::string& what) {
  return Status::InvalidArgument(DescribeNode(n) + ": " + what);
}

}  // namespace lce
