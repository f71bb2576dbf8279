// MAC / parameter / model-size accounting for graphs (Figures 3, 10 and
// Table 3 report these quantities).
#ifndef LCE_MODELS_MACS_H_
#define LCE_MODELS_MACS_H_

#include <cstdint>

#include "graph/ir.h"

namespace lce {

struct ModelStats {
  std::int64_t binary_macs = 0;   // MACs executed by binarized convolutions
  std::int64_t float_macs = 0;    // non-binary (float and int8) MACs
  std::int64_t params = 0;        // weight + bias + norm parameters
  std::size_t model_bytes = 0;    // serialized constant storage

  // The paper's eMAC metric: binary MACs discounted by `binary_speedup`
  // (Figure 10 uses 15, the appendix Figure 15 uses 17).
  double emacs(double binary_speedup) const {
    return static_cast<double>(float_macs) +
           static_cast<double>(binary_macs) / binary_speedup;
  }
};

// Works on every dialect: emulated binarized conv / FC (training graphs)
// and LceBConv2d / LceBFullyConnected (inference graphs) count as binary
// MACs. Per-node counts come from the op registry (CountMacs).
ModelStats ComputeModelStats(const Graph& g);

}  // namespace lce

#endif  // LCE_MODELS_MACS_H_
