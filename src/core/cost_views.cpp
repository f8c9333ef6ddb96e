#include "core/cost_views.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace xsum::core {

const graph::CostView& SharedCostViews::ForMode(CostMode mode) const {
  const size_t idx = static_cast<size_t>(mode);
  assert(idx < kNumModes);
  std::call_once(built_[idx], [&] {
    const graph::KnowledgeGraph& g = rec_graph_->graph();
    if (mode == CostMode::kUnit) {
      views_[idx].AssignUnit(g);
      return;
    }
    const std::vector<double>& base = rec_graph_->base_weights();
    assert(g.adjacency().size() <= std::numeric_limits<uint32_t>::max());
    ScaledBase& scaled = scaled_[idx];
    scaled.by_edge.resize(base.size());
    for (size_t e = 0; e < base.size(); ++e) {
      scaled.by_edge[e] = ScaleWeight(base[e], mode);
    }
    scaled.by_slot.resize(g.adjacency().size());
    scaled.edge_slots.resize(2 * base.size());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      const size_t begin = g.adjacency_offset(v);
      const std::span<const graph::AdjEntry> nbrs = g.Neighbors(v);
      for (size_t k = 0; k < nbrs.size(); ++k) {
        const graph::EdgeId e = nbrs[k].edge;
        scaled.by_slot[begin + k] = scaled.by_edge[e];
        // Nodes lay their slots out in id order, so an edge's slot at its
        // smaller endpoint comes first.
        scaled.edge_slots[2 * size_t{e} + (nbrs[k].neighbor < v ? 1 : 0)] =
            static_cast<uint32_t>(begin + k);
      }
    }
    if (!base.empty()) {
      const auto [min_it, max_it] =
          std::minmax_element(base.begin(), base.end());
      scaled.raw_min = *min_it;
      scaled.raw_max = *max_it;
      scaled.num_at_min = std::count(base.begin(), base.end(), *min_it);
      scaled.num_at_max = std::count(base.begin(), base.end(), *max_it);
    }
    Write(mode, scaled, scaled.raw_min, scaled.raw_max, {}, base,
          &views_[idx]);
  });
  built_mask_.fetch_or(uint32_t{1} << idx, std::memory_order_release);
  return views_[idx];
}

void SharedCostViews::WriteOverlay(CostMode mode,
                                   const std::vector<double>& adjusted,
                                   std::span<const graph::EdgeId> touched,
                                   graph::CostView* out) const {
  assert(mode != CostMode::kUnit);
  ForMode(mode);  // builds the scaled base
  const ScaledBase& scaled = scaled_[static_cast<size_t>(mode)];
  const std::vector<double>& base = rec_graph_->base_weights();
  // The task's raw extremes are the base extremes widened by the touched
  // edges' new values — unless every edge at a base extreme was touched,
  // which leaves the untouched extreme unknown and takes a rescan.
  double raw_min = scaled.raw_min;
  double raw_max = scaled.raw_max;
  size_t min_hits = 0;
  size_t max_hits = 0;
  for (const graph::EdgeId e : touched) {
    min_hits += base[e] == scaled.raw_min;
    max_hits += base[e] == scaled.raw_max;
    raw_min = std::min(raw_min, adjusted[e]);
    raw_max = std::max(raw_max, adjusted[e]);
  }
  if (!touched.empty() &&
      (min_hits == scaled.num_at_min || max_hits == scaled.num_at_max)) {
    const auto [min_it, max_it] =
        std::minmax_element(adjusted.begin(), adjusted.end());
    raw_min = *min_it;
    raw_max = *max_it;
  }
  Write(mode, scaled, raw_min, raw_max, touched, adjusted, out);
}

void SharedCostViews::Write(CostMode mode, const ScaledBase& scaled,
                            double raw_min, double raw_max,
                            std::span<const graph::EdgeId> touched,
                            const std::vector<double>& weights,
                            graph::CostView* out) const {
  const graph::KnowledgeGraph& g = rec_graph_->graph();
  const std::span<const graph::AdjEntry> adj = g.adjacency();
  const graph::CostView::WriteBuffers buf = out->StartWrite(g);
  if (buf.edge_costs.empty()) {
    out->CommitWritten(std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity());
    return;
  }
  // Same reduction as WeightsToCostsInto: ScaleWeight is non-decreasing,
  // so the scaled extremes are the images of the raw ones.
  const double w_max = ScaleWeight(raw_max, mode);
  const double span = w_max - ScaleWeight(raw_min, mode);
  if (span <= 0.0) {  // all weights equal -> unit costs
    std::fill(buf.edge_costs.begin(), buf.edge_costs.end(), 1.0);
    for (size_t i = 0; i < adj.size(); ++i) {
      buf.slots[i] = graph::CostSlot{adj[i].neighbor, adj[i].edge, 1.0};
    }
    out->CommitWritten(1.0, 1.0);
    return;
  }
  for (size_t e = 0; e < buf.edge_costs.size(); ++e) {
    buf.edge_costs[e] = ScaledWeightToCost(scaled.by_edge[e], w_max, span);
  }
  for (size_t i = 0; i < adj.size(); ++i) {
    buf.slots[i] = graph::CostSlot{
        adj[i].neighbor, adj[i].edge,
        ScaledWeightToCost(scaled.by_slot[i], w_max, span)};
  }
  for (const graph::EdgeId e : touched) {
    const double cost =
        ScaledWeightToCost(ScaleWeight(weights[e], mode), w_max, span);
    buf.edge_costs[e] = cost;
    buf.slots[scaled.edge_slots[2 * size_t{e}]].cost = cost;
    buf.slots[scaled.edge_slots[2 * size_t{e} + 1]].cost = cost;
  }
  // An edge at the raw maximum costs exactly 1 and one at the raw minimum
  // 1 + span / span = 2; every other cost lies between. That fails only
  // when a weight overflows (a huge request λ boosts one to +inf) and the
  // costs turn NaN; then the range is scanned as Commit would.
  double min_cost = 1.0;
  double max_cost = 2.0;
  if (!std::isfinite(span)) {
    min_cost = std::numeric_limits<double>::infinity();
    max_cost = -std::numeric_limits<double>::infinity();
    for (const double c : buf.edge_costs) {
      min_cost = std::min(min_cost, c);
      max_cost = std::max(max_cost, c);
    }
  }
  out->CommitWritten(min_cost, max_cost);
}

size_t SharedCostViews::MemoryFootprintBytes() const {
  const uint32_t mask = built_mask_.load(std::memory_order_acquire);
  size_t bytes = 0;
  for (size_t idx = 0; idx < kNumModes; ++idx) {
    if (mask & (uint32_t{1} << idx)) {
      const ScaledBase& scaled = scaled_[idx];
      bytes += views_[idx].MemoryFootprintBytes() +
               (scaled.by_edge.capacity() + scaled.by_slot.capacity()) *
                   sizeof(double) +
               scaled.edge_slots.capacity() * sizeof(uint32_t);
    }
  }
  return bytes;
}

}  // namespace xsum::core
