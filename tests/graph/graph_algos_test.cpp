/// Tests for union-find, BFS, and Kruskal MST.

#include <gtest/gtest.h>

#include "graph/bfs.h"
#include "graph/knowledge_graph.h"
#include "graph/mst.h"
#include "graph/union_find.h"
#include "util/rng.h"

namespace xsum::graph {
namespace {

// --- UnionFind ---------------------------------------------------------------

TEST(UnionFindTest, StartsAsSingletons) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  EXPECT_EQ(uf.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(uf.Find(i), i);
}

TEST(UnionFindTest, UnionMergesAndReports) {
  UnionFind uf(4);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));  // already merged
  EXPECT_TRUE(uf.Connected(0, 1));
  EXPECT_FALSE(uf.Connected(0, 2));
  EXPECT_EQ(uf.num_sets(), 3u);
}

TEST(UnionFindTest, TransitiveMerging) {
  UnionFind uf(6);
  uf.Union(0, 1);
  uf.Union(2, 3);
  uf.Union(1, 2);
  EXPECT_TRUE(uf.Connected(0, 3));
  EXPECT_EQ(uf.num_sets(), 3u);  // {0,1,2,3}, {4}, {5}
}

TEST(UnionFindTest, LargeChain) {
  const size_t n = 10000;
  UnionFind uf(n);
  for (size_t i = 0; i + 1 < n; ++i) uf.Union(i, i + 1);
  EXPECT_EQ(uf.num_sets(), 1u);
  EXPECT_TRUE(uf.Connected(0, n - 1));
}

// --- BFS -----------------------------------------------------------------------

KnowledgeGraph MakeStar(size_t leaves) {
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, leaves + 1);
  for (size_t i = 1; i <= leaves; ++i) {
    EXPECT_TRUE(
        builder.AddEdge(0, static_cast<NodeId>(i), Relation::kRelatedTo, 1.0)
            .ok());
  }
  return std::move(builder).Finalize();
}

TEST(BfsTest, StarDistances) {
  const KnowledgeGraph g = MakeStar(4);
  const auto hops = BfsHops(g, 0);
  EXPECT_EQ(hops[0], 0);
  for (NodeId v = 1; v <= 4; ++v) EXPECT_EQ(hops[v], 1);
  const auto from_leaf = BfsHops(g, 1);
  EXPECT_EQ(from_leaf[0], 1);
  EXPECT_EQ(from_leaf[2], 2);
}

TEST(BfsTest, HopLimitCutsSearch) {
  // Path 0-1-2-3.
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, 4);
  for (NodeId i = 0; i < 3; ++i) {
    ASSERT_TRUE(builder.AddEdge(i, i + 1, Relation::kRelatedTo, 1.0).ok());
  }
  const KnowledgeGraph g = std::move(builder).Finalize();
  const auto hops = BfsHops(g, 0, /*max_hops=*/1);
  EXPECT_EQ(hops[1], 1);
  EXPECT_EQ(hops[2], kUnreachedHops);
  EXPECT_EQ(hops[3], kUnreachedHops);
}

TEST(BfsTest, TreeParentsConsistent) {
  const KnowledgeGraph g = MakeStar(3);
  const BfsTree tree = Bfs(g, 1);
  EXPECT_EQ(tree.parent_node[0], 1u);
  EXPECT_EQ(tree.parent_node[2], 0u);
  EXPECT_EQ(tree.parent_node[1], kInvalidNode);
}

TEST(BfsTest, Eccentricity) {
  const KnowledgeGraph g = MakeStar(3);
  EXPECT_EQ(Eccentricity(g, 0), 1);
  EXPECT_EQ(Eccentricity(g, 1), 2);
}

TEST(BfsTest, DisconnectedUnreached) {
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, 3);
  ASSERT_TRUE(builder.AddEdge(0, 1, Relation::kRelatedTo, 1.0).ok());
  const KnowledgeGraph g = std::move(builder).Finalize();
  const auto hops = BfsHops(g, 0);
  EXPECT_EQ(hops[2], kUnreachedHops);
}

// --- Kruskal MST ----------------------------------------------------------------

TEST(KruskalTest, SimpleTriangle) {
  // Triangle with weights 1, 2, 3: MST takes the two cheapest.
  std::vector<MstEdge> edges = {{0, 1, 1.0, 10}, {1, 2, 2.0, 11},
                                {0, 2, 3.0, 12}};
  const auto selected = KruskalMst(3, edges);
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0], 0u);
  EXPECT_EQ(selected[1], 1u);
}

TEST(KruskalTest, DisconnectedProducesForest) {
  std::vector<MstEdge> edges = {{0, 1, 1.0, 0}, {2, 3, 1.0, 1}};
  const auto selected = KruskalMst(4, edges);
  EXPECT_EQ(selected.size(), 2u);
}

TEST(KruskalTest, EmptyInputs) {
  EXPECT_TRUE(KruskalMst(0, {}).empty());
  EXPECT_TRUE(KruskalMst(5, {}).empty());
}

TEST(KruskalTest, DeterministicTieBreaking) {
  std::vector<MstEdge> edges = {{0, 1, 1.0, 0}, {0, 1, 1.0, 1},
                                {1, 2, 1.0, 2}};
  const auto a = KruskalMst(3, edges);
  const auto b = KruskalMst(3, edges);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], 0u);  // stable sort keeps input order on ties
}

TEST(KruskalTest, MstWeightMatchesBruteForceOnRandomGraphs) {
  // Compare Kruskal's total weight against exhaustive spanning-tree search
  // on tiny graphs (n = 5: check all edge subsets of size n-1).
  Rng rng(99);
  for (int round = 0; round < 10; ++round) {
    const size_t n = 5;
    std::vector<MstEdge> edges;
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = a + 1; b < n; ++b) {
        edges.push_back({a, b, rng.UniformDouble(0.1, 5.0), edges.size()});
      }
    }
    const auto selected = KruskalMst(n, edges);
    double kruskal_weight = 0;
    for (size_t idx : selected) kruskal_weight += edges[idx].weight;

    double best = 1e300;
    const size_t m = edges.size();
    for (uint32_t mask = 0; mask < (1u << m); ++mask) {
      if (__builtin_popcount(mask) != static_cast<int>(n - 1)) continue;
      UnionFind uf(n);
      double w = 0;
      for (size_t e = 0; e < m; ++e) {
        if (mask & (1u << e)) {
          uf.Union(edges[e].a, edges[e].b);
          w += edges[e].weight;
        }
      }
      if (uf.num_sets() == 1) best = std::min(best, w);
    }
    EXPECT_NEAR(kruskal_weight, best, 1e-9);
  }
}

}  // namespace
}  // namespace xsum::graph
