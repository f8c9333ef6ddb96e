#include "core/cost_transform.h"

namespace xsum::core {

std::vector<double> WeightsToCosts(const std::vector<double>& weights,
                                   CostMode mode) {
  std::vector<double> costs;
  WeightsToCostsInto(weights, mode, &costs);
  return costs;
}

void WeightsToCostsInto(const std::vector<double>& weights, CostMode mode,
                        std::vector<double>* out) {
  if (mode == CostMode::kUnit) {
    out->assign(weights.size(), 1.0);
    return;
  }
  if (weights.empty()) {
    out->clear();
    return;
  }
  const auto [min_it, max_it] =
      std::minmax_element(weights.begin(), weights.end());
  const double w_min = ScaleWeight(*min_it, mode);
  const double w_max = ScaleWeight(*max_it, mode);
  const double span = w_max - w_min;
  out->assign(weights.size(), 1.0);
  if (span <= 0.0) return;  // all weights equal -> unit costs
  for (size_t e = 0; e < weights.size(); ++e) {
    (*out)[e] = ScaledWeightToCost(ScaleWeight(weights[e], mode), w_max, span);
  }
}

}  // namespace xsum::core
