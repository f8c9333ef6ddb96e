/// \file cost_views.h
/// \brief `SharedCostViews` — the prebuilt per-mode base `CostView`s of one
/// graph, shared by every consumer that serves repeated queries over it,
/// and the one writer of every weight-aware cost view (DESIGN.md §4).
///
/// For a task with no Eq. (1) overlay (no input paths touch an edge) the
/// Steiner costs depend only on (graph, cost mode), and PCST's default
/// costs are the all-ones view regardless of the task. Those views are
/// worth building exactly once per graph: the batch engine reuses them
/// across its task stream, and `GraphSnapshotRegistry` snapshots carry
/// them so the service and the panel runner never rebuild costs per
/// request. Views are built lazily (first task of a given mode) and
/// thread-safely.
///
/// A task whose overlay does move weights gets its own view from
/// `WriteOverlay`, which starts from the scaled base weights kept next to
/// the base view: one sequential pass writes every edge cost and slot, a
/// patch rewrites the touched edges. The base view goes through the same
/// writer, and the writer evaluates the same expression as
/// `WeightsToCostsInto`, so every view is bit-identical to the per-task
/// transform of its weights — what keeps cached-vs-fresh summaries
/// bit-identical.

#ifndef XSUM_CORE_COST_VIEWS_H_
#define XSUM_CORE_COST_VIEWS_H_

#include <atomic>
#include <mutex>
#include <span>
#include <vector>

#include "core/cost_transform.h"
#include "data/kg_builder.h"
#include "graph/cost_view.h"

namespace xsum::core {

/// \brief Lazily built, immutable-once-built base cost views of one
/// `RecGraph`. Thread-safe; share via `shared_ptr<const SharedCostViews>`.
/// The referenced graph must outlive this object (snapshots guarantee it
/// by carrying both).
class SharedCostViews {
 public:
  explicit SharedCostViews(const data::RecGraph& rec_graph)
      : rec_graph_(&rec_graph) {}

  SharedCostViews(const SharedCostViews&) = delete;
  SharedCostViews& operator=(const SharedCostViews&) = delete;

  /// The base-weight cost view for \p mode (kUnit is the all-ones view).
  const graph::CostView& ForMode(CostMode mode) const;

  /// The all-ones view (PCST's default costs).
  const graph::CostView& unit() const { return ForMode(CostMode::kUnit); }

  /// Writes into \p out the cost view of one task's Eq. (1) overlay under
  /// a weight-aware \p mode: bit-identical (slots, edge costs, range) to
  /// assigning `WeightsToCostsInto(adjusted, mode)`. \p adjusted and
  /// \p touched are `AdjustWeightsInto`'s outputs — every edge outside
  /// \p touched must carry its base weight, and \p touched must not
  /// repeat an edge.
  void WriteOverlay(CostMode mode, const std::vector<double>& adjusted,
                    std::span<const graph::EdgeId> touched,
                    graph::CostView* out) const;

  /// True iff these views were built over \p rec_graph.
  bool Matches(const data::RecGraph& rec_graph) const {
    return rec_graph_ == &rec_graph;
  }

  /// Resident bytes of the views and scaled base weights built so far (a
  /// completed build becomes visible to this reader via `built_mask_`; one
  /// mid-build is skipped).
  size_t MemoryFootprintBytes() const;

 private:
  static constexpr size_t kNumModes = 3;

  /// What the writer of a weight-aware mode starts from, built with that
  /// mode's base view.
  struct ScaledBase {
    std::vector<double> by_edge;  ///< ScaleWeight(base weight), EdgeId order
    std::vector<double> by_slot;  ///< the same, in adjacency-slot order
    /// The two adjacency slots of edge e, at [2e] and [2e + 1].
    std::vector<uint32_t> edge_slots;
    /// Raw base weight extremes and how many edges attain each.
    double raw_min = 0.0;
    double raw_max = 0.0;
    size_t num_at_min = 0;
    size_t num_at_max = 0;
  };

  /// The one writer: costs of \p weights (equal to the scaled base outside
  /// \p touched) under the raw extremes \p raw_min / \p raw_max.
  void Write(CostMode mode, const ScaledBase& scaled, double raw_min,
             double raw_max, std::span<const graph::EdgeId> touched,
             const std::vector<double>& weights, graph::CostView* out) const;

  const data::RecGraph* rec_graph_;
  mutable std::once_flag built_[kNumModes];
  /// Bit per mode, set (release) after that view's build completes —
  /// lets readers other than `ForMode` (which synchronizes via call_once)
  /// observe finished views without racing an in-flight build.
  mutable std::atomic<uint32_t> built_mask_{0};
  mutable graph::CostView views_[kNumModes];
  mutable ScaledBase scaled_[kNumModes];  // unused for kUnit
};

}  // namespace xsum::core

#endif  // XSUM_CORE_COST_VIEWS_H_
