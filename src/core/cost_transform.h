/// \file cost_transform.h
/// \brief Maps the paper's bi-criteria objective (maximize Σ w(e) while
/// minimizing |E_S|, §III) onto the Steiner Tree's single minimization
/// objective.
///
/// The paper proposes "multiplying all edge weights by −1"; literally
/// negating weights produces negative costs, which breaks Dijkstra (the
/// inner loop of Algorithm 1) and makes "shortest" trees unbounded on
/// cyclic graphs. We instead use the order-preserving affine transform
///
///   cost(e) = 1 + (w_max − w(e)) / (w_max − w_min)        ∈ [1, 2]
///
/// Every edge costs at least 1, so minimizing total cost minimizes the
/// edge count first (the |E_S| objective); within equal edge counts the
/// tree with the greater total weight wins (the Σ w(e) objective). This is
/// exactly the paper's stated balance and keeps all costs non-negative.
/// See DESIGN.md §1.4(3); `bench_ablation_cost_transform` compares against
/// unit costs.

#ifndef XSUM_CORE_COST_TRANSFORM_H_
#define XSUM_CORE_COST_TRANSFORM_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace xsum::core {

/// \brief How edge weights map to Steiner costs.
enum class CostMode : uint8_t {
  /// Log-scale variant of the transform (default):
  ///   cost(e) = 1 + (log(1+w_max) − log(1+w(e))) / (log(1+w_max) − log(1+w_min))
  /// Still order-preserving and in [1, 2], but robust when Eq. (1) with a
  /// large λ inflates path-edge weights by orders of magnitude: a linear
  /// map would compress all non-path weights into one indistinguishable
  /// point, erasing the rating signal the paper's Relevance metric relies
  /// on (§V-B-6: "ST's relevance improves as λ increases").
  kWeightAwareLog = 0,
  /// The plain linear transform described above.
  kWeightAware = 1,
  /// cost(e) = 1 for every edge: pure hop minimization. This is what the
  /// paper's PCST configuration uses ("we opted to ignore the edge
  /// weights", §V-A).
  kUnit = 2,
};

/// The order-preserving image a weight-aware \p mode takes of a weight
/// before the affine map: log1p(max(w, 0)) under kWeightAwareLog, w itself
/// under kWeightAware.
inline double ScaleWeight(double w, CostMode mode) {
  if (mode == CostMode::kWeightAwareLog) return std::log1p(std::max(w, 0.0));
  return w;
}

/// The affine map of a scaled weight \p s to its cost, given the largest
/// scaled weight \p w_max and the scaled range \p span > 0. Every writer
/// of weight-aware costs goes through this one expression, which is what
/// keeps their outputs bit-identical.
inline double ScaledWeightToCost(double s, double w_max, double span) {
  return 1.0 + (w_max - s) / span;
}

/// Converts weights to non-negative Steiner costs under \p mode.
/// With the weight-aware modes, degenerate inputs (all weights equal)
/// yield unit costs. Negative weights are clamped to 0 in log mode.
std::vector<double> WeightsToCosts(
    const std::vector<double>& weights,
    CostMode mode = CostMode::kWeightAwareLog);

/// Allocation-free variant for the batch engine: writes the costs into
/// \p out (resized to `weights.size()`), producing the same values as
/// `WeightsToCosts`.
void WeightsToCostsInto(const std::vector<double>& weights, CostMode mode,
                        std::vector<double>* out);

}  // namespace xsum::core

#endif  // XSUM_CORE_COST_TRANSFORM_H_
