#include "models/macs.h"

#include "graph/op_registry.h"

namespace lce {

ModelStats ComputeModelStats(const Graph& g) {
  ModelStats stats;
  for (const auto& n : g.nodes()) {
    if (!n->alive) continue;
    const MacCount mc = CountMacs(g, *n);
    (mc.binary ? stats.binary_macs : stats.float_macs) += mc.macs;
    // Attribute-side parameters (biases, batch-norm affine, fused
    // multipliers).
    stats.params += static_cast<std::int64_t>(n->attrs.bias.size()) +
                    n->attrs.bn_scale.size() + n->attrs.bn_offset.size() +
                    n->attrs.multiplier.size();
  }
  // Constant-side parameters (weights).
  for (const auto& v : g.values()) {
    if (!v->is_constant) continue;
    bool used = false;
    for (int c : v->consumers) used |= g.node(c).alive;
    if (used) stats.params += v->constant_data.num_elements();
  }
  stats.model_bytes = g.ConstantBytes();
  return stats;
}

}  // namespace lce
