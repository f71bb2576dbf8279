#include "kernels/quantize_ops.h"

#include "core/bitpack.h"
#include "core/macros.h"

namespace lce {

void LceQuantize(const Tensor& input, Tensor& output, ThreadPool* pool) {
  if (pool == nullptr) {
    BitpackTensor(input, output);
    return;
  }
  LCE_CHECK(input.dtype() == DataType::kFloat32);
  LCE_CHECK(output.dtype() == DataType::kBitpacked);
  LCE_CHECK(input.shape() == output.shape());
  const int channels =
      static_cast<int>(input.shape().dim(input.shape().rank() - 1));
  const int words = BitpackedWords(channels);
  const float* src = input.data<float>();
  TBitpacked* dst = output.data<TBitpacked>();
  pool->ParallelFor(input.num_elements() / channels,
                    [&](std::int64_t begin, std::int64_t end) {
                      BitpackMatrix(src + begin * channels, end - begin,
                                    channels, dst + begin * words);
                    });
}

void LceDequantize(const Tensor& input, Tensor& output) {
  UnpackTensor(input, output);
}

}  // namespace lce
