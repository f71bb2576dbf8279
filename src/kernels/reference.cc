#include "kernels/reference.h"

#include <cstring>
#include <limits>
#include <vector>

#include "gemm/float_gemm.h"

namespace lce {

void RefConv2DFloat(const float* input, const float* weights,
                    const Conv2DGeometry& g, float pad_value,
                    const float* multiplier, const float* bias,
                    Activation act, float* output) {
  const int out_h = g.out_h(), out_w = g.out_w();
  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  std::int64_t o = 0;
  for (int b = 0; b < g.batch; ++b) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        for (int n = 0; n < g.out_c; ++n) {
          double acc = 0.0;
          for (int ky = 0; ky < g.filter_h; ++ky) {
            const int iy = oy * g.stride_h - pad_h + ky;
            for (int kx = 0; kx < g.filter_w; ++kx) {
              const int ix = ox * g.stride_w - pad_w + kx;
              for (int c = 0; c < g.in_c; ++c) {
                const float w =
                    weights[((static_cast<std::int64_t>(n) * g.filter_h + ky) *
                                 g.filter_w +
                             kx) *
                                g.in_c +
                            c];
                float v;
                if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) {
                  v = pad_value;
                } else {
                  v = input[((static_cast<std::int64_t>(b) * g.in_h + iy) *
                                 g.in_w +
                             ix) *
                                g.in_c +
                            c];
                }
                acc += static_cast<double>(v) * w;
              }
            }
          }
          float y = static_cast<float>(acc);
          if (multiplier != nullptr) y *= multiplier[n];
          if (bias != nullptr) y += bias[n];
          output[o++] = ApplyActivation(y, act);
        }
      }
    }
  }
}

void Im2ColFloat(const float* input, const Conv2DGeometry& g, float pad_value,
                 float* output) {
  const int out_h = g.out_h(), out_w = g.out_w();
  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  const int c = g.in_c;
  float* dst = output;
  for (int b = 0; b < g.batch; ++b) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        for (int ky = 0; ky < g.filter_h; ++ky) {
          const int iy = oy * g.stride_h - pad_h + ky;
          for (int kx = 0; kx < g.filter_w; ++kx, dst += c) {
            const int ix = ox * g.stride_w - pad_w + kx;
            if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) {
              for (int i = 0; i < c; ++i) dst[i] = pad_value;
            } else {
              std::memcpy(dst,
                          input + ((static_cast<std::int64_t>(b) * g.in_h + iy) *
                                       g.in_w +
                                   ix) *
                                      c,
                          static_cast<std::size_t>(c) * sizeof(float));
            }
          }
        }
      }
    }
  }
}

void RefConv2DFloatIm2ColGemm(const float* input, const float* weights_ohwi,
                              const Conv2DGeometry& g, const float* bias,
                              Activation act, gemm::Context& ctx,
                              float* output) {
  const std::int64_t rows = static_cast<std::int64_t>(g.batch) * g.out_h() *
                            g.out_w();
  const int depth = g.filter_h * g.filter_w * g.in_c;
  std::vector<float> patches(static_cast<std::size_t>(rows) * depth);
  Im2ColFloat(input, g, g.padding == Padding::kSameOne ? 1.0f : 0.0f,
              patches.data());
  const gemm::PackedFloatMatrix packed(weights_ohwi, g.out_c, depth);
  gemm::FloatGemm(patches.data(), static_cast<int>(rows), packed, output,
                  g.out_c, ctx);
  if (bias == nullptr && act == Activation::kNone) return;
  for (std::int64_t r = 0; r < rows; ++r) {
    float* o = output + r * g.out_c;
    for (int n = 0; n < g.out_c; ++n) {
      float v = o[n];
      if (bias != nullptr) v += bias[n];
      o[n] = ApplyActivation(v, act);
    }
  }
}

void RefDepthwiseConv2DFloat(const float* input, const float* weights,
                             const Conv2DGeometry& g, const float* bias,
                             Activation act, float* output) {
  const int out_h = g.out_h(), out_w = g.out_w();
  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  std::int64_t o = 0;
  for (int b = 0; b < g.batch; ++b) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        for (int c = 0; c < g.in_c; ++c) {
          double acc = 0.0;
          for (int ky = 0; ky < g.filter_h; ++ky) {
            const int iy = oy * g.stride_h - pad_h + ky;
            if (iy < 0 || iy >= g.in_h) continue;
            for (int kx = 0; kx < g.filter_w; ++kx) {
              const int ix = ox * g.stride_w - pad_w + kx;
              if (ix < 0 || ix >= g.in_w) continue;
              acc += static_cast<double>(
                         input[((static_cast<std::int64_t>(b) * g.in_h + iy) *
                                    g.in_w +
                                ix) *
                                   g.in_c +
                               c]) *
                     weights[(static_cast<std::int64_t>(ky) * g.filter_w + kx) *
                                 g.in_c +
                             c];
            }
          }
          float y = static_cast<float>(acc);
          if (bias != nullptr) y += bias[c];
          output[o++] = ApplyActivation(y, act);
        }
      }
    }
  }
}

void RefMaxPool2DFloat(const float* input, const Pool2DGeometry& g,
                       float* output) {
  const int out_h = g.out_h(), out_w = g.out_w();
  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  std::int64_t o = 0;
  for (int b = 0; b < g.batch; ++b) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        for (int c = 0; c < g.channels; ++c) {
          float m = -std::numeric_limits<float>::infinity();
          for (int ky = 0; ky < g.filter_h; ++ky) {
            const int iy = oy * g.stride_h - pad_h + ky;
            if (iy < 0 || iy >= g.in_h) continue;
            for (int kx = 0; kx < g.filter_w; ++kx) {
              const int ix = ox * g.stride_w - pad_w + kx;
              if (ix < 0 || ix >= g.in_w) continue;
              const float v =
                  input[((static_cast<std::int64_t>(b) * g.in_h + iy) * g.in_w +
                         ix) *
                            g.channels +
                        c];
              if (v > m) m = v;
            }
          }
          output[o++] = m;
        }
      }
    }
  }
}

}  // namespace lce
