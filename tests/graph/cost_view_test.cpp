/// Unit tests of `graph::CostView`: interleaved slots mirror the adjacency,
/// EdgeId-indexed costs and the cost range are exact, every commit stamps a
/// fresh globally unique version, and in-place rebuilds leave no stale
/// state behind.

#include "graph/cost_view.h"

#include <vector>

#include <gtest/gtest.h>

#include "graph/knowledge_graph.h"
#include "util/rng.h"

namespace xsum::graph {
namespace {

KnowledgeGraph SmallGraph(size_t n, size_t extra_edges, uint64_t seed,
                          std::vector<double>* costs) {
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, n);
  Rng rng(seed);
  costs->clear();
  auto add = [&](NodeId a, NodeId b) {
    if (a == b) return;
    auto result = builder.AddEdge(a, b, Relation::kRelatedTo, 1.0);
    if (result.ok()) costs->push_back(1.0 + 0.125 * rng.Uniform(8));
  };
  for (NodeId v = 1; v < n; ++v) {
    add(static_cast<NodeId>(rng.Uniform(v)), v);
  }
  for (size_t e = 0; e < extra_edges; ++e) {
    add(static_cast<NodeId>(rng.Uniform(n)),
        static_cast<NodeId>(rng.Uniform(n)));
  }
  return std::move(builder).Finalize();
}

TEST(CostViewTest, SlotsMirrorAdjacencyWithInterleavedCosts) {
  std::vector<double> costs;
  const KnowledgeGraph g = SmallGraph(60, 120, 5, &costs);
  CostView view;
  view.Assign(g, costs);

  ASSERT_TRUE(view.valid());
  EXPECT_EQ(&view.graph(), &g);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(view.cost(e), costs[e]);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto adj = g.Neighbors(v);
    const auto slots = view.Neighbors(v);
    ASSERT_EQ(adj.size(), slots.size());
    for (size_t k = 0; k < adj.size(); ++k) {
      EXPECT_EQ(slots[k].neighbor, adj[k].neighbor);
      EXPECT_EQ(slots[k].edge, adj[k].edge);
      EXPECT_EQ(slots[k].cost, costs[adj[k].edge]);
    }
  }
  const auto [min_it, max_it] = std::minmax_element(costs.begin(), costs.end());
  EXPECT_EQ(view.min_cost(), *min_it);
  EXPECT_EQ(view.max_cost(), *max_it);
}

TEST(CostViewTest, VersionsAreUniqueAndRebuildLeavesNoStaleState) {
  std::vector<double> costs_a;
  const KnowledgeGraph a = SmallGraph(40, 60, 6, &costs_a);
  std::vector<double> costs_b;
  const KnowledgeGraph b = SmallGraph(90, 200, 7, &costs_b);

  CostView view;
  view.Assign(a, costs_a);
  const uint64_t v1 = view.version();
  EXPECT_GT(v1, 0u);

  // Rebuild in place for a different (larger) graph: slots, costs, range,
  // and graph binding all switch over; the version moves strictly forward.
  view.Assign(b, costs_b);
  EXPECT_GT(view.version(), v1);
  EXPECT_EQ(&view.graph(), &b);
  ASSERT_EQ(view.edge_costs().size(), b.num_edges());
  for (NodeId v = 0; v < b.num_nodes(); ++v) {
    const auto adj = b.Neighbors(v);
    const auto slots = view.Neighbors(v);
    ASSERT_EQ(adj.size(), slots.size());
    for (size_t k = 0; k < adj.size(); ++k) {
      EXPECT_EQ(slots[k].edge, adj[k].edge);
      EXPECT_EQ(slots[k].cost, costs_b[adj[k].edge]);
    }
  }

  // Two distinct views never share a version either.
  CostView other;
  other.Assign(a, costs_a);
  EXPECT_NE(other.version(), view.version());
}

TEST(CostViewTest, UnitViewAndInPlaceProtocol) {
  std::vector<double> costs;
  const KnowledgeGraph g = SmallGraph(30, 40, 8, &costs);

  CostView unit;
  unit.AssignUnit(g);
  EXPECT_EQ(unit.min_cost(), 1.0);
  EXPECT_EQ(unit.max_cost(), 1.0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) EXPECT_EQ(unit.cost(e), 1.0);

  // StartAssign/Commit: write per-edge costs straight into the view.
  CostView staged;
  std::vector<double>& out = staged.StartAssign(g);
  ASSERT_EQ(out.size(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) out[e] = costs[e];
  staged.Commit();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(staged.cost(e), costs[e]);
  }
  EXPECT_GE(staged.MemoryFootprintBytes(), CostView::RequiredBytes(g));
}

}  // namespace
}  // namespace xsum::graph
