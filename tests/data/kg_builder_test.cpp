/// Tests for knowledge-graph construction from datasets (§III graph G).

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "data/graph_stats.h"
#include "data/kg_builder.h"
#include "data/synthetic.h"
#include "graph/union_find.h"

namespace xsum::data {
namespace {

Dataset MakeTinyDataset() {
  Dataset ds;
  ds.name = "tiny";
  ds.num_users = 2;
  ds.num_items = 2;
  ds.num_entities = 1;
  ds.user_gender = {Gender::kMale, Gender::kFemale};
  ds.t0 = 1000;
  ds.ratings = {{0, 0, 5.0f, 900}, {1, 1, 3.0f, 950}};
  ds.triples = {{0, graph::Relation::kHasGenre, 0, false},
                {1, graph::Relation::kHasGenre, 0, false}};
  return ds;
}

TEST(KgBuilderTest, NodeLayoutIsContiguous) {
  const auto rg = BuildRecGraph(MakeTinyDataset());
  ASSERT_TRUE(rg.ok());
  EXPECT_EQ(rg->UserNode(0), 0u);
  EXPECT_EQ(rg->UserNode(1), 1u);
  EXPECT_EQ(rg->ItemNode(0), 2u);
  EXPECT_EQ(rg->ItemNode(1), 3u);
  EXPECT_EQ(rg->EntityNode(0), 4u);
  EXPECT_EQ(rg->NodeToItem(2), 0u);
  EXPECT_EQ(rg->NodeToEntity(4), 0u);
  EXPECT_EQ(rg->NodeToUser(1), 1u);
}

TEST(KgBuilderTest, NodeTypesAssigned) {
  const auto rg = BuildRecGraph(MakeTinyDataset());
  ASSERT_TRUE(rg.ok());
  EXPECT_TRUE(rg->graph().IsUser(0));
  EXPECT_TRUE(rg->graph().IsItem(2));
  EXPECT_TRUE(rg->graph().IsEntity(4));
}

TEST(KgBuilderTest, EdgeCountsAndWeights) {
  const auto rg = BuildRecGraph(MakeTinyDataset());
  ASSERT_TRUE(rg.ok());
  EXPECT_EQ(rg->graph().num_edges(), 4u);  // 2 ratings + 2 triples
  // Rated edge weight = beta1 * r with the default params.
  const auto e = rg->graph().FindEdge(rg->UserNode(0), rg->ItemNode(0));
  ASSERT_NE(e, graph::kInvalidEdge);
  EXPECT_DOUBLE_EQ(rg->graph().edge_weight(e), 5.0);
  // Knowledge edge weight = wA = 0 by default.
  const auto ke = rg->graph().FindEdge(rg->ItemNode(0), rg->EntityNode(0));
  ASSERT_NE(ke, graph::kInvalidEdge);
  EXPECT_DOUBLE_EQ(rg->graph().edge_weight(ke), 0.0);
}

TEST(KgBuilderTest, BaseWeightsMatchGraph) {
  const auto rg = BuildRecGraph(MakeTinyDataset());
  ASSERT_TRUE(rg.ok());
  ASSERT_EQ(rg->base_weights().size(), rg->graph().num_edges());
  for (graph::EdgeId e = 0; e < rg->graph().num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(rg->base_weights()[e], rg->graph().edge_weight(e));
  }
}

TEST(KgBuilderTest, RatedItemsAndHasRated) {
  const auto rg = BuildRecGraph(MakeTinyDataset());
  ASSERT_TRUE(rg.ok());
  EXPECT_EQ(rg->RatedItems(0), std::vector<graph::NodeId>{rg->ItemNode(0)});
  EXPECT_TRUE(rg->HasRated(0, 0));
  EXPECT_FALSE(rg->HasRated(0, 1));
  EXPECT_TRUE(rg->HasRated(1, 1));
}

TEST(KgBuilderTest, T0DefaultsToDataset) {
  const auto rg = BuildRecGraph(MakeTinyDataset());
  ASSERT_TRUE(rg.ok());
  EXPECT_EQ(rg->weight_params().t0, 1000);
}

TEST(KgBuilderTest, CustomWaAppliesToKnowledgeEdges) {
  WeightParams params;
  params.wa = 0.25;
  const auto rg = BuildRecGraph(MakeTinyDataset(), params);
  ASSERT_TRUE(rg.ok());
  const auto ke = rg->graph().FindEdge(rg->ItemNode(0), rg->EntityNode(0));
  EXPECT_DOUBLE_EQ(rg->graph().edge_weight(ke), 0.25);
}

TEST(KgBuilderTest, RecencyAffectsWeights) {
  WeightParams params;
  params.beta1 = 0.0;
  params.beta2 = 1.0;
  params.gamma = 0.001;
  const auto rg = BuildRecGraph(MakeTinyDataset(), params);
  ASSERT_TRUE(rg.ok());
  const auto old_edge = rg->graph().FindEdge(rg->UserNode(0), rg->ItemNode(0));
  const auto new_edge = rg->graph().FindEdge(rg->UserNode(1), rg->ItemNode(1));
  // Newer rating (t=950) outweighs older (t=900) under pure recency.
  EXPECT_GT(rg->graph().edge_weight(new_edge),
            rg->graph().edge_weight(old_edge));
}

TEST(KgBuilderTest, RejectsInvalidDataset) {
  Dataset ds = MakeTinyDataset();
  ds.ratings.push_back({9, 0, 3.0f, 0});
  const auto rg = BuildRecGraph(ds);
  EXPECT_FALSE(rg.ok());
  EXPECT_TRUE(rg.status().IsInvalidArgument());
}

TEST(KgBuilderTest, SyntheticMl1mGraphIsLargelyConnected) {
  const Dataset ds = MakeSyntheticDataset(Ml1mConfig(0.03));
  const auto rg = BuildRecGraph(ds);
  ASSERT_TRUE(rg.ok());
  const graph::KnowledgeGraph& g = rg->graph();
  graph::UnionFind components(g.num_nodes());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    components.Union(g.edge(e).src, g.edge(e).dst);
  }
  std::vector<size_t> sizes(g.num_nodes(), 0);
  size_t largest = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    largest = std::max(largest, ++sizes[components.Find(v)]);
  }
  EXPECT_GT(static_cast<double>(largest),
            0.99 * static_cast<double>(g.num_nodes()));
}

// --- graph stats (Table II machinery) ---------------------------------------

TEST(GraphStatsTest, CountsMatchDataset) {
  const Dataset ds = MakeSyntheticDataset(Ml1mConfig(0.02));
  const auto rg = BuildRecGraph(ds);
  ASSERT_TRUE(rg.ok());
  const auto stats = ComputeGraphStats(*rg);
  EXPECT_EQ(stats.num_users, ds.num_users);
  EXPECT_EQ(stats.num_items, ds.num_items);
  EXPECT_EQ(stats.num_entities, ds.num_entities);
  EXPECT_EQ(stats.num_rated_edges, ds.ratings.size());
  EXPECT_EQ(stats.num_triple_edges, ds.triples.size());
  EXPECT_EQ(stats.num_edges, ds.ratings.size() + ds.triples.size());
}

TEST(GraphStatsTest, DegreeIdentity) {
  const Dataset ds = MakeSyntheticDataset(Ml1mConfig(0.02));
  const auto rg = BuildRecGraph(ds);
  ASSERT_TRUE(rg.ok());
  const auto stats = ComputeGraphStats(*rg);
  // Sum of degrees = 2 |E|.
  EXPECT_NEAR(stats.avg_degree * static_cast<double>(stats.num_nodes),
              2.0 * static_cast<double>(stats.num_edges), 1.0);
}

TEST(GraphStatsTest, SmallWorldPathLength) {
  const Dataset ds = MakeSyntheticDataset(Ml1mConfig(0.04));
  const auto rg = BuildRecGraph(ds);
  ASSERT_TRUE(rg.ok());
  const auto stats = ComputeGraphStats(*rg);
  // The ML1M KG is small-world (paper: avg 3.20, diameter 6). The scaled
  // replica stays in that ballpark.
  EXPECT_GT(stats.avg_path_length, 1.5);
  EXPECT_LT(stats.avg_path_length, 4.5);
  EXPECT_GE(stats.diameter_estimate, 3);
  EXPECT_LE(stats.diameter_estimate, 10);
}

TEST(GraphStatsTest, ToStringContainsHeadlineNumbers) {
  const Dataset ds = MakeTinyDataset();
  const auto rg = BuildRecGraph(ds);
  ASSERT_TRUE(rg.ok());
  const auto stats = ComputeGraphStats(*rg);
  const std::string s = stats.ToString("title");
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("Number of nodes"), std::string::npos);
  EXPECT_NE(s.find("Density"), std::string::npos);
}

}  // namespace
}  // namespace xsum::data
