#include "kernels/reference.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "core/bitpack.h"
#include "gemm/float_gemm.h"
#include "kernels/im2col.h"

namespace lce {
namespace {

// Shared loop of the int8 and bitpacked im2col: `copy_px(src, dst)` copies
// one (kh, kw) tap pixel's channel vector, `pad_px(dst)` fills it with the
// padding value. Offsets are in channel-vector units: src indexes NHWC
// input pixels, dst the [rows][taps] patch entries. Forced inline: as an
// out-of-line call the per-pixel copy runs measurably slower, which would
// skew the ablation benches that time these oracles.
template <typename CopyFn, typename PadFn>
[[gnu::always_inline]] inline void ForEachPatchElement(const Conv2DGeometry& g, CopyFn copy_px,
                         PadFn pad_px) {
  const int out_h = g.out_h(), out_w = g.out_w();
  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  std::int64_t dst = 0;
  for (int b = 0; b < g.batch; ++b) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        const int iy0 = oy * g.stride_h - pad_h;
        const int ix0 = ox * g.stride_w - pad_w;
        for (int ky = 0; ky < g.filter_h; ++ky) {
          const int iy = iy0 + ky;
          for (int kx = 0; kx < g.filter_w; ++kx) {
            const int ix = ix0 + kx;
            if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) {
              pad_px(dst);
            } else {
              copy_px((static_cast<std::int64_t>(b) * g.in_h + iy) * g.in_w +
                          ix,
                      dst);
            }
            ++dst;
          }
        }
      }
    }
  }
}

}  // namespace

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

void Im2ColInt8(const std::int8_t* input, const Conv2DGeometry& g,
                std::int8_t pad_value, std::int8_t* output) {
  const int c = g.in_c;
  ForEachPatchElement(
      g,
      [&](std::int64_t src, std::int64_t dst) {
        std::memcpy(output + dst * c, input + src * c, c);
      },
      [&](std::int64_t dst) { std::memset(output + dst * c, pad_value, c); });
}

void Im2ColBitpacked(const TBitpacked* input, const Conv2DGeometry& g,
                     TBitpacked* output) {
  const int words = BitpackedWords(g.in_c);
  Im2ColBitpackedGroup(input, g, words, 0, words, output);
}

void Im2ColBitpackedGroup(const TBitpacked* input, const Conv2DGeometry& g,
                          int total_words, int word_begin, int word_count,
                          TBitpacked* output) {
  const std::size_t bytes =
      static_cast<std::size_t>(word_count) * sizeof(TBitpacked);
  ForEachPatchElement(
      g,
      [&](std::int64_t src, std::int64_t dst) {
        std::memcpy(output + dst * word_count,
                    input + src * total_words + word_begin, bytes);
      },
      [&](std::int64_t dst) {
        std::memset(output + dst * word_count, 0, bytes);
      });
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

RefBConv2DIm2ColBGemm::RefBConv2DIm2ColBGemm(const float* weights_ohwi,
                                             BConv2DAttrs attrs)
    : attrs_(std::move(attrs)) {
  const Conv2DGeometry& g = attrs_.geo;
  const int groups = std::max(1, attrs_.groups);
  const int in_c_pg = g.in_c / groups;
  const int out_c_pg = g.out_c / groups;
  const int taps = g.filter_h * g.filter_w;
  const int words = BitpackedWords(in_c_pg);
  k_bits_ = taps * in_c_pg;
  // [out_c][taps][words]: every (channel, tap) weight vector bitpacked.
  std::vector<TBitpacked> rows(static_cast<std::size_t>(g.out_c) * taps *
                               words);
  BitpackMatrix(weights_ohwi, static_cast<std::int64_t>(g.out_c) * taps,
                in_c_pg, rows.data());
  for (int grp = 0; grp < groups; ++grp) {
    groups_.emplace_back(
        rows.data() + static_cast<std::int64_t>(grp) * out_c_pg * taps * words,
        out_c_pg, taps * words);
  }
  if (g.padding == Padding::kSameZero) {
    // A 1 bit encodes -1, so a tap's weight sum is in_c_pg - 2 * popcount.
    tap_weight_sums_.assign(static_cast<std::size_t>(taps) * g.out_c, 0);
    for (int n = 0; n < g.out_c; ++n) {
      for (int t = 0; t < taps; ++t) {
        const TBitpacked* w =
            rows.data() + (static_cast<std::int64_t>(n) * taps + t) * words;
        std::int32_t neg = 0;
        for (int i = 0; i < words; ++i) neg += std::popcount(w[i]);
        tap_weight_sums_[static_cast<std::size_t>(t) * g.out_c + n] =
            in_c_pg - 2 * neg;
      }
    }
  }
  transform_ = MakeBConvOutputTransform(attrs_, k_bits_);
}

void RefBConv2DIm2ColBGemm::Run(const Tensor& input, Tensor& output,
                                gemm::Context& ctx) const {
  const Conv2DGeometry& g = attrs_.geo;
  const int groups = static_cast<int>(groups_.size());
  const int out_c_pg = g.out_c / groups;
  const int group_words = BitpackedWords(g.in_c / groups);
  const std::int64_t rows = Im2ColRows(g);
  const TBitpacked* in = input.data<TBitpacked>();
  auto* acc = reinterpret_cast<std::int32_t*>(ctx.Scratch(
      2, static_cast<std::size_t>(rows) * g.out_c * sizeof(std::int32_t)));
  if (groups == 1 && g.filter_h == 1 && g.filter_w == 1 && g.stride_h == 1 &&
      g.stride_w == 1) {
    gemm::BGemm(in, static_cast<int>(rows), groups_[0], k_bits_, acc,
                g.out_c, ctx);
  } else {
    auto* patches = reinterpret_cast<TBitpacked*>(
        ctx.Scratch(1, static_cast<std::size_t>(rows) * groups_[0].kw() *
                           sizeof(TBitpacked)));
    for (int grp = 0; grp < groups; ++grp) {
      Im2ColBitpackedGroup(in, g, groups * group_words, grp * group_words,
                           group_words, patches);
      gemm::BGemm(patches, static_cast<int>(rows), groups_[grp], k_bits_,
                  acc + static_cast<std::int64_t>(grp) * out_c_pg, g.out_c,
                  ctx);
    }
  }

  if (!tap_weight_sums_.empty()) {
    // Padded taps read one-padding (+1) but should contribute 0: subtract
    // each such tap's weight sum, per channel.
    const int out_h = g.out_h(), out_w = g.out_w();
    for (std::int64_t r = 0; r < rows; ++r) {
      const int iy0 = static_cast<int>((r / out_w) % out_h) * g.stride_h -
                      g.pad_h_begin();
      const int ix0 = static_cast<int>(r % out_w) * g.stride_w -
                      g.pad_w_begin();
      std::int32_t* a = acc + r * g.out_c;
      for (int ky = 0; ky < g.filter_h; ++ky) {
        for (int kx = 0; kx < g.filter_w; ++kx) {
          const int iy = iy0 + ky, ix = ix0 + kx;
          if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w) continue;
          const std::int32_t* wsum =
              tap_weight_sums_.data() +
              static_cast<std::size_t>(ky * g.filter_w + kx) * g.out_c;
          for (int n = 0; n < g.out_c; ++n) a[n] -= wsum[n];
        }
      }
    }
  }
  transform_->Apply(acc, 0, rows, output.raw_data());
}

RefBDepthwiseConv2D::RefBDepthwiseConv2D(const float* weights,
                                         BDepthwiseConv2DAttrs attrs)
    : attrs_(std::move(attrs)) {
  const Conv2DGeometry& g = attrs_.geo;
  const std::int64_t taps = static_cast<std::int64_t>(g.filter_h) * g.filter_w;
  packed_weights_.resize(static_cast<std::size_t>(taps) *
                         BitpackedWords(g.in_c));
  BitpackMatrix(weights, taps, g.in_c, packed_weights_.data());
}

void RefBDepthwiseConv2D::Run(const Tensor& input, Tensor& output) const {
  const Conv2DGeometry& g = attrs_.geo;
  const int words = BitpackedWords(g.in_c);
  const int out_h = g.out_h(), out_w = g.out_w();
  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  const int taps = g.filter_h * g.filter_w;
  const TBitpacked* in = input.data<TBitpacked>();
  float* out = output.data<float>();
  const bool has_mult = !attrs_.multiplier.empty();
  const bool has_bias = !attrs_.bias.empty();

  for (int b = 0; b < g.batch; ++b) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        float* o =
            out + ((static_cast<std::int64_t>(b) * out_h + oy) * out_w + ox) *
                      g.in_c;
        for (int w = 0; w < words; ++w) {
          BitSlicedCounter counter;
          for (int ky = 0; ky < g.filter_h; ++ky) {
            const int iy = oy * g.stride_h - pad_h + ky;
            for (int kx = 0; kx < g.filter_w; ++kx) {
              const int ix = ox * g.stride_w - pad_w + kx;
              const TBitpacked wv =
                  packed_weights_[static_cast<std::size_t>(
                                      ky * g.filter_w + kx) *
                                      words +
                                  w];
              TBitpacked av = 0;  // one-padding: +1.0 = 0 bits
              if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w) {
                av = in[((static_cast<std::int64_t>(b) * g.in_h + iy) *
                             g.in_w +
                         ix) *
                            words +
                        w];
              }
              counter.Add(av ^ wv);
            }
          }
          const int base = w * kBitpackWordSize;
          const int valid = std::min(kBitpackWordSize, g.in_c - base);
          for (int bit = 0; bit < valid; ++bit) {
            const int c = base + bit;
            float v = static_cast<float>(taps - 2 * counter.Count(bit));
            if (has_mult) v *= attrs_.multiplier[c];
            if (has_bias) v += attrs_.bias[c];
            o[c] = v;
          }
        }
      }
    }
  }
}

RefConv2DInt8Im2ColGemm::RefConv2DInt8Im2ColGemm(
    const std::int8_t* weights_ohwi, Conv2DInt8Attrs attrs)
    : attrs_(std::move(attrs)),
      panels_(weights_ohwi, attrs_.geo.out_c, Im2ColDepthFloat(attrs_.geo)),
      transform_(MakeInt8RequantTransform(attrs_, panels_.row_sums().data())) {}

void RefConv2DInt8Im2ColGemm::Run(const Tensor& input, Tensor& output,
                                  gemm::Context& ctx) const {
  const Conv2DGeometry& g = attrs_.geo;
  const std::int64_t rows = Im2ColRows(g);
  const int k = Im2ColDepthFloat(g);
  const int lda = panels_.k_groups() * gemm::kInt8DotKg;
  auto* patches = reinterpret_cast<std::int8_t*>(
      ctx.Scratch(1, static_cast<std::size_t>(rows) * k));
  Im2ColInt8(input.data<std::int8_t>(), g,
             static_cast<std::int8_t>(
                 std::clamp(attrs_.input_quant.zero_point, -128, 127)),
             patches);
  const gemm::Int8Tier tier = ctx.profile() == gemm::KernelProfile::kScalar
                                  ? gemm::Int8Tier::kScalar
                                  : gemm::SelectInt8Tier();
  const bool biased = gemm::Int8DotRowsBiased(tier);
  std::int8_t* arows = patches;
  if (biased || lda != k) {
    // Stage the rows as the gather does for this tier, in one pass: at the
    // panels' K-group stride (the dot kernels read whole 4-byte groups;
    // K-padding zeroed), XORed with 0x80 when the tier reads biased rows.
    arows = reinterpret_cast<std::int8_t*>(
        ctx.Scratch(0, static_cast<std::size_t>(rows) * lda));
    const std::int8_t mask = biased ? static_cast<std::int8_t>(0x80) : 0;
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int8_t* s = patches + r * k;
      std::int8_t* d = arows + r * lda;
      for (int kk = 0; kk < k; ++kk) {
        d[kk] = static_cast<std::int8_t>(s[kk] ^ mask);
      }
      std::memset(d + k, 0, static_cast<std::size_t>(lda - k));
    }
  }
  auto* acc = reinterpret_cast<std::int32_t*>(ctx.Scratch(
      2, static_cast<std::size_t>(rows) * g.out_c * sizeof(std::int32_t)));
  ctx.pool().ParallelFor(rows, [&](std::int64_t begin, std::int64_t end) {
    gemm::Int8DotComputeStagedBlock(arows + begin * lda, lda, panels_, tier,
                                    static_cast<int>(end - begin),
                                    acc + begin * g.out_c, g.out_c);
  });
  transform_->Apply(acc, 0, rows, output.raw_data());
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
