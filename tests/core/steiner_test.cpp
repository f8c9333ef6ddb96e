/// Tests for Algorithm 1 (ST summaries): correctness on hand-checked
/// graphs, the 2-approximation guarantee against brute force on small
/// random graphs, structural invariants (tree, spans terminals, terminal
/// leaves only) as property sweeps over both variants, and the Mehlhorn
/// closure against its textbook construction.

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include <gtest/gtest.h>

#include "core/steiner.h"
#include "graph/cost_view.h"
#include "graph/dijkstra.h"
#include "graph/mst.h"
#include "graph/union_find.h"
#include "util/rng.h"

namespace xsum::core {
namespace {

using graph::EdgeId;
using graph::GraphBuilder;
using graph::KnowledgeGraph;
using graph::NodeId;
using graph::NodeType;
using graph::Relation;

/// Star: center 0, leaves 1..n.
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

std::vector<double> UnitCosts(const KnowledgeGraph& g) {
  return std::vector<double>(g.num_edges(), 1.0);
}

/// Exact minimum Steiner tree cost by enumerating edge subsets (tiny
/// graphs only).
double BruteForceSteinerCost(const KnowledgeGraph& g,
                             const std::vector<double>& costs,
                             const std::vector<NodeId>& terminals) {
  const size_t m = g.num_edges();
  double best = 1e300;
  for (uint32_t mask = 0; mask < (1u << m); ++mask) {
    graph::UnionFind uf(g.num_nodes());
    double cost = 0;
    for (size_t e = 0; e < m; ++e) {
      if (mask & (1u << e)) {
        uf.Union(g.edge(static_cast<EdgeId>(e)).src,
                 g.edge(static_cast<EdgeId>(e)).dst);
        cost += costs[e];
      }
    }
    bool connects = true;
    for (size_t t = 1; t < terminals.size(); ++t) {
      if (!uf.Connected(terminals[0], terminals[t])) {
        connects = false;
        break;
      }
    }
    if (connects) best = std::min(best, cost);
  }
  return best;
}

class SteinerVariantTest
    : public ::testing::TestWithParam<SteinerOptions::Variant> {
 protected:
  SteinerOptions Options() const {
    SteinerOptions o;
    o.variant = GetParam();
    return o;
  }
};

TEST_P(SteinerVariantTest, EmptyTerminals) {
  const KnowledgeGraph g = MakeStar(3);
  const auto result = SteinerTree(g, UnitCosts(g), {}, Options());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->tree.Empty());
}

TEST_P(SteinerVariantTest, SingleTerminalIsIsolatedNode) {
  const KnowledgeGraph g = MakeStar(3);
  const auto result = SteinerTree(g, UnitCosts(g), {2}, Options());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tree.num_nodes(), 1u);
  EXPECT_EQ(result->tree.num_edges(), 0u);
  EXPECT_TRUE(result->tree.ContainsNode(2));
}

TEST_P(SteinerVariantTest, TwoLeavesOfStarRouteViaCenter) {
  const KnowledgeGraph g = MakeStar(4);
  const auto result = SteinerTree(g, UnitCosts(g), {1, 3}, Options());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tree.num_edges(), 2u);
  EXPECT_TRUE(result->tree.ContainsNode(0));  // Steiner node
  EXPECT_TRUE(result->tree.IsTree(g));
  EXPECT_TRUE(result->unreached_terminals.empty());
}

TEST_P(SteinerVariantTest, AllLeavesSpanWholeStar) {
  const KnowledgeGraph g = MakeStar(5);
  const std::vector<NodeId> terminals = {1, 2, 3, 4, 5};
  const auto result = SteinerTree(g, UnitCosts(g), terminals, Options());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tree.num_edges(), 5u);
  for (NodeId t : terminals) EXPECT_TRUE(result->tree.ContainsNode(t));
}

TEST_P(SteinerVariantTest, DuplicateTerminalsIgnored) {
  const KnowledgeGraph g = MakeStar(4);
  const auto a = SteinerTree(g, UnitCosts(g), {1, 3}, Options());
  const auto b = SteinerTree(g, UnitCosts(g), {1, 3, 3, 1}, Options());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->tree.edges(), b->tree.edges());
}

TEST_P(SteinerVariantTest, WeightedCostsChooseCheapRoute) {
  // 0-1 direct cost 5; 0-2 cost 1, 2-1 cost 1 => route via 2.
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, 3);
  ASSERT_TRUE(builder.AddEdge(0, 1, Relation::kRelatedTo, 5.0).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2, Relation::kRelatedTo, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(2, 1, Relation::kRelatedTo, 1.0).ok());
  const KnowledgeGraph g = std::move(builder).Finalize();
  const auto result = SteinerTree(g, g.WeightVector(), {0, 1}, Options());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tree.num_edges(), 2u);
  EXPECT_TRUE(result->tree.ContainsNode(2));
}

TEST_P(SteinerVariantTest, DisconnectedTerminalsReported) {
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, 4);
  ASSERT_TRUE(builder.AddEdge(0, 1, Relation::kRelatedTo, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(2, 3, Relation::kRelatedTo, 1.0).ok());
  const KnowledgeGraph g = std::move(builder).Finalize();
  const auto result = SteinerTree(g, UnitCosts(g), {0, 1, 3}, Options());
  ASSERT_TRUE(result.ok());
  // {0,1} is the largest connected terminal group; 3 is unreached.
  EXPECT_EQ(result->unreached_terminals, std::vector<NodeId>{3});
  EXPECT_TRUE(result->tree.ContainsNode(0));
  EXPECT_TRUE(result->tree.ContainsNode(3));  // still present, isolated
}

TEST_P(SteinerVariantTest, RejectsNegativeCosts) {
  const KnowledgeGraph g = MakeStar(3);
  std::vector<double> costs(g.num_edges(), -1.0);
  const auto result = SteinerTree(g, costs, {1, 2}, Options());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_P(SteinerVariantTest, RejectsShortCostVector) {
  const KnowledgeGraph g = MakeStar(3);
  const auto result = SteinerTree(g, {1.0}, {1, 2}, Options());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_P(SteinerVariantTest, RejectsOutOfRangeTerminal) {
  const KnowledgeGraph g = MakeStar(3);
  const auto result = SteinerTree(g, UnitCosts(g), {99}, Options());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

/// Property sweep on random graphs: result is a tree containing all
/// terminals, every leaf is a terminal, and total cost is within 2x of
/// the brute-force optimum.
TEST_P(SteinerVariantTest, RandomGraphInvariantsAndApproximation) {
  Rng rng(GetParam() == SteinerOptions::Variant::kKmb ? 101 : 202);
  for (int round = 0; round < 12; ++round) {
    const size_t n = 8;
    GraphBuilder builder;
    builder.AddNodes(NodeType::kEntity, n);
    // Ring + chords, <= 14 edges so brute force (2^14) stays fast.
    std::vector<std::pair<NodeId, NodeId>> used;
    for (size_t i = 0; i < n; ++i) {
      builder
          .AddEdge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n),
                   Relation::kRelatedTo, rng.UniformDouble(0.5, 3.0))
          .ValueOrDie();
    }
    for (int c = 0; c < 6; ++c) {
      const NodeId a = static_cast<NodeId>(rng.Uniform(n));
      const NodeId b = static_cast<NodeId>(rng.Uniform(n));
      if (a == b) continue;
      builder.AddEdge(a, b, Relation::kRelatedTo, rng.UniformDouble(0.5, 3.0))
          .ValueOrDie();
    }
    const KnowledgeGraph g = std::move(builder).Finalize();
    const auto costs = g.WeightVector();

    std::vector<NodeId> terminals;
    for (uint64_t t : rng.SampleWithoutReplacement(n, 3)) {
      terminals.push_back(static_cast<NodeId>(t));
    }
    const auto result = SteinerTree(g, costs, terminals, Options());
    ASSERT_TRUE(result.ok());
    const auto& tree = result->tree;

    EXPECT_TRUE(tree.IsTree(g)) << "round " << round;
    for (NodeId t : terminals) EXPECT_TRUE(tree.ContainsNode(t));
    EXPECT_TRUE(result->unreached_terminals.empty());

    // Every degree-1 node of the tree must be a terminal.
    std::unordered_map<NodeId, int> degree;
    for (EdgeId e : tree.edges()) {
      ++degree[g.edge(e).src];
      ++degree[g.edge(e).dst];
    }
    for (const auto& [node, d] : degree) {
      if (d == 1) {
        EXPECT_TRUE(std::find(terminals.begin(), terminals.end(), node) !=
                    terminals.end())
            << "non-terminal leaf " << node;
      }
    }

    const double optimal = BruteForceSteinerCost(g, costs, terminals);
    EXPECT_LE(tree.TotalWeight(costs), 2.0 * optimal + 1e-9)
        << "approximation bound violated in round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, SteinerVariantTest,
                         ::testing::Values(SteinerOptions::Variant::kKmb,
                                           SteinerOptions::Variant::kMehlhorn),
                         [](const auto& param_info) {
                           return param_info.param ==
                                          SteinerOptions::Variant::kKmb
                                      ? "Kmb"
                                      : "Mehlhorn";
                         });

TEST(SteinerCleanupTest, CleanupRemovesCycles) {
  // Without cleanup the expansion may contain overlapping paths; with
  // cleanup the result must be a tree.
  Rng rng(7);
  const size_t n = 12;
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.4)) {
        builder
            .AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(j),
                     Relation::kRelatedTo, rng.UniformDouble(0.5, 2.0))
            .ValueOrDie();
      }
    }
  }
  const KnowledgeGraph g = std::move(builder).Finalize();
  SteinerOptions with_cleanup;
  const auto result =
      SteinerTree(g, g.WeightVector(), {0, 3, 7, 11}, with_cleanup);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->tree.IsTree(g));
}

TEST(SteinerWorkspaceTest, ReportsWorkspaceBytes) {
  const KnowledgeGraph g = MakeStar(6);
  const auto result = SteinerTree(g, UnitCosts(g), {1, 2, 3});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->workspace_bytes, 0u);
}

TEST(SteinerWorkspaceTest, KmbWorkspaceGrowsWithTerminals) {
  const KnowledgeGraph g = MakeStar(64);
  SteinerOptions kmb;
  kmb.variant = SteinerOptions::Variant::kKmb;
  const auto small = SteinerTree(g, UnitCosts(g), {1, 2, 3}, kmb);
  std::vector<NodeId> many;
  for (NodeId t = 1; t <= 40; ++t) many.push_back(t);
  const auto large = SteinerTree(g, UnitCosts(g), many, kmb);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->workspace_bytes, small->workspace_bytes);
}

/// Textbook Mehlhorn: every Voronoi boundary edge, in edge-id order, goes
/// to `graph::KruskalMst`; then the usual unreached-terminal rule (the
/// largest closure component wins, ties to the smaller root), expansion
/// (bridge + both back-walks) and cleanup (MST of the expansion, prune
/// non-terminal leaves). \p terminals must be sorted and unique.
SteinerResult ReferenceMehlhorn(const graph::CostView& view,
                                const std::vector<NodeId>& terminals,
                                bool cleanup) {
  const KnowledgeGraph& g = view.graph();
  const size_t t = terminals.size();
  graph::SearchWorkspace ws;
  graph::MultiSourceDijkstraInto(view, terminals, ws);
  std::unordered_map<NodeId, size_t> index;
  for (size_t i = 0; i < t; ++i) index[terminals[i]] = i;
  std::vector<graph::MstEdge> boundary;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const NodeId su = ws.origin(g.edge(e).src);
    const NodeId sv = ws.origin(g.edge(e).dst);
    if (su == sv || su == graph::kInvalidNode || sv == graph::kInvalidNode) {
      continue;
    }
    boundary.push_back(graph::MstEdge{
        index.at(su), index.at(sv),
        ws.dist(g.edge(e).src) + view.cost(e) + ws.dist(g.edge(e).dst), e});
  }
  const std::vector<size_t> selected = graph::KruskalMst(t, boundary);

  SteinerResult result;
  graph::UnionFind uf(t);
  for (size_t idx : selected) uf.Union(boundary[idx].a, boundary[idx].b);
  std::vector<size_t> size(t, 0);
  for (size_t i = 0; i < t; ++i) ++size[uf.Find(i)];
  size_t best = uf.Find(0);
  for (size_t root = 0; root < t; ++root) {
    if (size[root] > size[best] || (size[root] == size[best] && root < best)) {
      best = root;
    }
  }
  for (size_t i = 0; i < t; ++i) {
    if (uf.Find(i) != best) result.unreached_terminals.push_back(terminals[i]);
  }

  std::vector<EdgeId> expansion;
  for (size_t idx : selected) {
    const EdgeId bridge = static_cast<EdgeId>(boundary[idx].tag);
    expansion.push_back(bridge);
    graph::AppendPathEdges(ws, g.edge(bridge).src, &expansion);
    graph::AppendPathEdges(ws, g.edge(bridge).dst, &expansion);
  }
  graph::Subgraph expanded =
      graph::Subgraph::FromEdges(g, std::move(expansion), terminals);
  if (!cleanup) {
    result.tree = std::move(expanded);
    return result;
  }
  std::unordered_map<NodeId, size_t> dense;
  for (size_t i = 0; i < expanded.nodes().size(); ++i) {
    dense[expanded.nodes()[i]] = i;
  }
  std::vector<graph::MstEdge> mst_edges;
  for (EdgeId e : expanded.edges()) {
    mst_edges.push_back(graph::MstEdge{dense.at(g.edge(e).src),
                                       dense.at(g.edge(e).dst), view.cost(e),
                                       e});
  }
  std::vector<EdgeId> tree_edges;
  for (size_t idx : graph::KruskalMst(expanded.num_nodes(), mst_edges)) {
    tree_edges.push_back(static_cast<EdgeId>(mst_edges[idx].tag));
  }
  result.tree = graph::Subgraph::FromEdges(g, std::move(tree_edges), terminals);
  result.tree.PruneLeavesNotIn(g, terminals);
  return result;
}

/// Random multigraph on \p n nodes with \p m edges; with \p components = 2
/// the nodes split into two halves and no edge crosses between them.
KnowledgeGraph RandomGraph(size_t n, size_t m, int components, Rng* rng) {
  GraphBuilder builder;
  builder.AddNodes(NodeType::kEntity, n);
  const size_t part = n / static_cast<size_t>(components);
  while (m > 0) {
    const size_t offset =
        part * rng->Uniform(static_cast<uint64_t>(components));
    const NodeId a = static_cast<NodeId>(offset + rng->Uniform(part));
    const NodeId b = static_cast<NodeId>(offset + rng->Uniform(part));
    if (a == b) continue;
    builder.AddEdge(a, b, Relation::kRelatedTo, 1.0).ValueOrDie();
    --m;
  }
  return std::move(builder).Finalize();
}

TEST(SteinerMehlhornTest, MatchesFullBoundaryListReference) {
  // Unit and small-integer costs put many bridges of one cell pair — and
  // many closure edges of different pairs — at equal weight, so both tie
  // orders (first bridge per pair; Kruskal input in edge-id order) decide
  // the tree. Terminal counts run from 2 past 2·sqrt(|E|).
  Rng rng(404);
  SteinerOptions options;
  options.variant = SteinerOptions::Variant::kMehlhorn;
  graph::SearchWorkspace ws;  // reused: the pair table keeps its capacity
  size_t cases = 0;
  size_t with_unreached = 0;
  for (int round = 0; round < 40; ++round) {
    const int components = round % 4 == 3 ? 2 : 1;
    const size_t n = 30 + rng.Uniform(90);
    const size_t m = n + rng.Uniform(3 * n);
    const KnowledgeGraph g = RandomGraph(n, m, components, &rng);
    const int max_cost = round % 2 == 0 ? 1 : 3;
    std::vector<double> costs(g.num_edges());
    for (double& c : costs) {
      c = static_cast<double>(1 + rng.Uniform(static_cast<uint64_t>(max_cost)));
    }
    graph::CostView view;
    view.Assign(g, costs);
    const size_t max_t = std::min(
        n, static_cast<size_t>(2.0 * std::sqrt(static_cast<double>(m))) + 2);
    for (size_t t : {size_t{2}, size_t{3}, max_t / 2, max_t}) {
      std::vector<NodeId> terminals;
      for (uint64_t v : rng.SampleWithoutReplacement(n, t)) {
        terminals.push_back(static_cast<NodeId>(v));
      }
      std::sort(terminals.begin(), terminals.end());
      for (const bool cleanup : {true, false}) {
        options.cleanup = cleanup;
        const SteinerResult expected =
            ReferenceMehlhorn(view, terminals, cleanup);
        const auto actual = SteinerTree(view, terminals, options, &ws);
        ASSERT_TRUE(actual.ok()) << actual.status();
        EXPECT_EQ(actual->tree.nodes(), expected.tree.nodes())
            << "round " << round << " t=" << t << " cleanup=" << cleanup;
        EXPECT_EQ(actual->tree.edges(), expected.tree.edges())
            << "round " << round << " t=" << t << " cleanup=" << cleanup;
        EXPECT_EQ(actual->unreached_terminals, expected.unreached_terminals)
            << "round " << round << " t=" << t;
        ++cases;
        with_unreached += !expected.unreached_terminals.empty();
      }
    }
  }
  EXPECT_EQ(cases, 40u * 4u * 2u);
  EXPECT_GT(with_unreached, 0u);  // the two-component graphs split
}

}  // namespace
}  // namespace xsum::core
