#include "kernels/depthwise_conv.h"

#include "core/macros.h"

namespace lce {

DepthwiseConv2DFloat::DepthwiseConv2DFloat(const float* weights,
                                           DepthwiseConv2DAttrs attrs)
    : attrs_(std::move(attrs)) {
  const Conv2DGeometry& g = attrs_.geo;
  LCE_CHECK_EQ(g.in_c, g.out_c);
  LCE_CHECK(g.padding != Padding::kSameOne);
  weights_ = std::make_shared<std::vector<float>>(
      weights,
      weights + static_cast<std::size_t>(g.filter_h) * g.filter_w * g.in_c);
  if (!attrs_.bias.empty()) {
    LCE_CHECK_EQ(static_cast<int>(attrs_.bias.size()), g.in_c);
  }
}

DepthwiseConv2DFloat::DepthwiseConv2DFloat(const DepthwiseConv2DFloat& base,
                                           DepthwiseConv2DAttrs attrs)
    : attrs_(std::move(attrs)), weights_(base.weights_) {
  // The shared weight vector depends only on channels and filter size, so a
  // sibling may differ in batch and spatial input size (shape buckets); Run
  // walks the spatial extent from attrs_ directly.
  const Conv2DGeometry& g = attrs_.geo;
  const Conv2DGeometry& bg = base.attrs_.geo;
  LCE_CHECK(g.in_c == bg.in_c && g.out_c == bg.out_c &&
            g.filter_h == bg.filter_h && g.filter_w == bg.filter_w &&
            g.stride_h == bg.stride_h && g.stride_w == bg.stride_w &&
            g.padding == bg.padding);
}

void DepthwiseConv2DFloat::Run(const Tensor& input, Tensor& output,
                               ThreadPool* pool) const {
  const Conv2DGeometry& g = attrs_.geo;
  LCE_CHECK(input.dtype() == DataType::kFloat32);
  const int out_h = g.out_h(), out_w = g.out_w();
  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  const float* in = input.data<float>();
  float* out = output.data<float>();
  const float* bias = attrs_.bias.empty() ? nullptr : attrs_.bias.data();
  const float* weights = weights_->data();

  // Output rows [row_begin, row_end) of the flattened (batch, out_y) space.
  const auto conv_rows = [&](std::int64_t row_begin, std::int64_t row_end) {
    for (std::int64_t row = row_begin; row < row_end; ++row) {
      const int b = static_cast<int>(row / out_h);
      const int oy = static_cast<int>(row % out_h);
      for (int ox = 0; ox < out_w; ++ox) {
        float* o = out + (row * out_w + ox) * g.in_c;
        for (int c = 0; c < g.in_c; ++c) o[c] = 0.0f;
        for (int ky = 0; ky < g.filter_h; ++ky) {
          const int iy = oy * g.stride_h - pad_h + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int kx = 0; kx < g.filter_w; ++kx) {
            const int ix = ox * g.stride_w - pad_w + kx;
            if (ix < 0 || ix >= g.in_w) continue;
            const float* src =
                in + ((static_cast<std::int64_t>(b) * g.in_h + iy) * g.in_w +
                      ix) *
                         g.in_c;
            const float* w =
                weights + (static_cast<std::int64_t>(ky) * g.filter_w + kx) *
                              g.in_c;
            for (int c = 0; c < g.in_c; ++c) o[c] += src[c] * w[c];
          }
        }
        for (int c = 0; c < g.in_c; ++c) {
          float v = o[c];
          if (bias != nullptr) v += bias[c];
          o[c] = ApplyActivation(v, attrs_.activation);
        }
      }
    }
  };
  const std::int64_t rows = static_cast<std::int64_t>(g.batch) * out_h;
  if (pool == nullptr) {
    conv_rows(0, rows);
  } else {
    pool->ParallelFor(rows, conv_rows);
  }
}

std::vector<float> MakeBlurKernel3x3(int channels) {
  static constexpr float kBinomial[9] = {1, 2, 1, 2, 4, 2, 1, 2, 1};
  std::vector<float> w(static_cast<std::size_t>(9) * channels);
  for (int p = 0; p < 9; ++p) {
    for (int c = 0; c < channels; ++c) {
      w[static_cast<std::size_t>(p) * channels + c] = kBinomial[p] / 16.0f;
    }
  }
  return w;
}

}  // namespace lce
