/// Property tests of the unified CostView layer (DESIGN.md §4): the
/// refactored kernels and every view-sharing route above them must be
/// bit-identical to the pre-refactor computation — per-relaxation
/// `costs[edge]` gathers and per-task cost rebuilds.
///
/// Coverage axes: cost modes × Eq. (1) weight overlays (λ, input paths) ×
/// worker counts.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch.h"
#include "core/cost_transform.h"
#include "core/cost_views.h"
#include "core/pcst.h"
#include "core/steiner.h"
#include "core/summarizer.h"
#include "core/weight_adjust.h"
#include "data/kg_builder.h"
#include "data/synthetic.h"
#include "graph/cost_view.h"
#include "graph/dijkstra.h"
#include "graph/search_workspace.h"
#include "util/rng.h"

namespace xsum::core {
namespace {

using graph::CostView;
using graph::EdgeId;
using graph::NodeId;
using graph::SearchWorkspace;

struct Fixture {
  data::Dataset dataset;
  data::RecGraph rg;
};

Fixture MakeFixture(double scale, uint64_t seed) {
  Fixture f;
  f.dataset = data::MakeSyntheticDataset(data::Ml1mConfig(scale, seed));
  f.rg = std::move(data::BuildRecGraph(f.dataset)).ValueOrDie();
  return f;
}

graph::Path RandomWalk(const data::RecGraph& rg, Rng* rng) {
  const graph::KnowledgeGraph& g = rg.graph();
  graph::Path path;
  NodeId v = rg.UserNode(static_cast<uint32_t>(rng->Uniform(rg.num_users())));
  path.nodes.push_back(v);
  for (int hop = 0; hop < 3; ++hop) {
    const auto nbrs = g.Neighbors(v);
    if (nbrs.empty()) break;
    const graph::AdjEntry& a = nbrs[rng->Uniform(nbrs.size())];
    path.nodes.push_back(a.neighbor);
    path.edges.push_back(a.edge);
    v = a.neighbor;
  }
  return path;
}

SummaryTask RandomTask(const data::RecGraph& rg, size_t num_terminals,
                       size_t num_paths, Rng* rng) {
  SummaryTask task;
  task.terminals.push_back(
      rg.UserNode(static_cast<uint32_t>(rng->Uniform(rg.num_users()))));
  while (task.terminals.size() < num_terminals) {
    task.terminals.push_back(
        rg.ItemNode(static_cast<uint32_t>(rng->Uniform(rg.num_items()))));
  }
  std::sort(task.terminals.begin(), task.terminals.end());
  task.terminals.erase(
      std::unique(task.terminals.begin(), task.terminals.end()),
      task.terminals.end());
  task.anchors = {task.terminals.front()};
  for (size_t p = 0; p < num_paths; ++p) {
    task.paths.push_back(RandomWalk(rg, rng));
  }
  task.s_size = std::max<size_t>(1, task.terminals.size() - 1);
  return task;
}

void ExpectIdentical(const Summary& a, const Summary& b) {
  EXPECT_EQ(a.subgraph.nodes(), b.subgraph.nodes());
  EXPECT_EQ(a.subgraph.edges(), b.subgraph.edges());
  EXPECT_EQ(a.unreached_terminals, b.unreached_terminals);
}

/// Pre-refactor single-source Dijkstra, transcribed verbatim from the
/// pre-CostView kernel: identical workspace machinery, but costs gathered
/// per relaxation by EdgeId from a flat vector. The refactored kernel must
/// reproduce its dist/parent/settled state bit-for-bit.
void PreRefactorDijkstraInto(const graph::KnowledgeGraph& graph,
                             const std::vector<double>& costs, NodeId source,
                             std::span<const NodeId> targets,
                             SearchWorkspace& ws) {
  ws.Begin(graph.num_nodes());
  size_t targets_remaining = 0;
  for (NodeId t : targets) {
    if (ws.Mark(t)) ++targets_remaining;
  }
  graph::IndexedMinHeap& heap = ws.heap();
  ws.Relax(source, 0.0, graph::kInvalidNode, graph::kInvalidEdge);
  heap.PushOrDecrease(source, 0.0);
  while (!heap.Empty()) {
    const NodeId u = heap.PopMin();
    ws.SetSettled(u);
    if (targets_remaining > 0 && ws.marked(u)) {
      ws.Unmark(u);
      if (--targets_remaining == 0) break;
    }
    const double du = ws.dist(u);
    for (const graph::AdjEntry& a : graph.Neighbors(u)) {
      const double nd = du + costs[a.edge];
      if (nd < ws.dist(a.neighbor)) {
        ws.Relax(a.neighbor, nd, u, a.edge);
        heap.PushOrDecrease(a.neighbor, nd);
      }
    }
  }
}

TEST(CostViewEquivalenceTest, DijkstraMatchesPreRefactorGatherAcrossModes) {
  const Fixture f = MakeFixture(0.03, 31);
  const graph::KnowledgeGraph& g = f.rg.graph();
  Rng rng(91);
  SearchWorkspace ref_ws;
  SearchWorkspace view_ws;
  for (CostMode mode : {CostMode::kWeightAwareLog, CostMode::kWeightAware,
                        CostMode::kUnit}) {
    const std::vector<double> costs =
        WeightsToCosts(f.rg.base_weights(), mode);
    CostView view;
    view.Assign(g, costs);
    for (int round = 0; round < 4; ++round) {
      const NodeId src =
          f.rg.UserNode(static_cast<uint32_t>(rng.Uniform(f.rg.num_users())));
      std::vector<NodeId> targets;
      for (int t = 0; t < 4; ++t) {
        targets.push_back(f.rg.ItemNode(
            static_cast<uint32_t>(rng.Uniform(f.rg.num_items()))));
      }
      PreRefactorDijkstraInto(g, costs, src, targets, ref_ws);
      DijkstraInto(view, src, targets, view_ws);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(ref_ws.dist(v), view_ws.dist(v)) << "node " << v;
        ASSERT_EQ(ref_ws.parent_node(v), view_ws.parent_node(v));
        ASSERT_EQ(ref_ws.parent_edge(v), view_ws.parent_edge(v));
        ASSERT_EQ(ref_ws.settled(v), view_ws.settled(v));
      }
    }
  }
}

TEST(CostViewEquivalenceTest,
     SharedAndRebuiltViewsAgreeAcrossModesAndOverlays) {
  // Every route to a summary — throwaway context (per-call views), reused
  // context (per-call views, reused overlay view), engine with shared
  // prebuilt views — must be
  // bit-identical, for every cost mode, with and without an Eq. (1)
  // overlay, including the λ extremes the paper sweeps.
  const Fixture f = MakeFixture(0.03, 32);
  BatchSummarizer engine(f.rg, /*num_workers=*/1);
  SummarizeContext reused;
  Rng rng(92);
  for (CostMode mode : {CostMode::kWeightAwareLog, CostMode::kWeightAware,
                        CostMode::kUnit}) {
    for (const double lambda : {0.0, 1.0, 100.0}) {
      for (const size_t num_paths : {size_t{0}, size_t{5}}) {
        const SummaryTask task = RandomTask(f.rg, 6, num_paths, &rng);
        for (auto variant : {SteinerOptions::Variant::kKmb,
                             SteinerOptions::Variant::kMehlhorn}) {
          SummarizerOptions options;
          options.method = SummaryMethod::kSteiner;
          options.cost_mode = mode;
          options.lambda = lambda;
          options.steiner.variant = variant;
          const Result<Summary> fresh = Summarize(f.rg, task, options);
          const Result<Summary> shared = engine.Run(task, options);
          const Result<Summary> rebuilt =
              SummarizeWith(f.rg, task, options, reused);
          ASSERT_TRUE(fresh.ok()) << fresh.status();
          ASSERT_TRUE(shared.ok()) << shared.status();
          ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
          ExpectIdentical(*fresh, *shared);
          ExpectIdentical(*fresh, *rebuilt);
        }
      }
    }
  }
}

TEST(CostViewEquivalenceTest, PcstSharedUnitViewMatchesFresh) {
  const Fixture f = MakeFixture(0.03, 33);
  BatchSummarizer engine(f.rg, /*num_workers=*/1);
  Rng rng(93);
  for (int round = 0; round < 4; ++round) {
    const SummaryTask task = RandomTask(f.rg, 4 + 3 * round, 2, &rng);
    SummarizerOptions options;
    options.method = SummaryMethod::kPcst;
    const Result<Summary> fresh = Summarize(f.rg, task, options);
    const Result<Summary> shared = engine.Run(task, options);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    ASSERT_TRUE(shared.ok()) << shared.status();
    ExpectIdentical(*fresh, *shared);
  }
}

TEST(CostViewEquivalenceTest, WorkerCountsAreBitIdentical) {
  const Fixture f = MakeFixture(0.03, 34);
  Rng rng(94);
  std::vector<SummaryTask> tasks;
  for (int i = 0; i < 10; ++i) tasks.push_back(RandomTask(f.rg, 5, 3, &rng));
  for (SummaryMethod method : {SummaryMethod::kSteiner, SummaryMethod::kPcst}) {
    SummarizerOptions options;
    options.method = method;
    BatchSummarizer serial(f.rg, /*num_workers=*/1);
    BatchSummarizer parallel(f.rg, /*num_workers=*/4);
    const auto a = serial.RunAll(tasks, options);
    const auto b = parallel.RunAll(tasks, options);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_TRUE(a[i].ok()) << a[i].status();
      ASSERT_TRUE(b[i].ok()) << b[i].status();
      ExpectIdentical(*a[i], *b[i]);
    }
  }
}

TEST(CostViewEquivalenceTest, SharedViewsMatchPerTaskTransform) {
  // The lazily built shared views must carry exactly the bits the per-task
  // transform produces from the base weights.
  const Fixture f = MakeFixture(0.03, 37);
  SharedCostViews views(f.rg);
  for (CostMode mode : {CostMode::kWeightAwareLog, CostMode::kWeightAware,
                        CostMode::kUnit}) {
    const std::vector<double> expected =
        WeightsToCosts(f.rg.base_weights(), mode);
    const CostView& view = views.ForMode(mode);
    ASSERT_EQ(view.edge_costs().size(), expected.size());
    for (EdgeId e = 0; e < expected.size(); ++e) {
      ASSERT_EQ(view.cost(e), expected[e]) << "mode " << static_cast<int>(mode)
                                           << " edge " << e;
    }
  }
  EXPECT_TRUE(views.Matches(f.rg));
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Slots (neighbor, edge, cost bits), edge cost bits and range bits.
void ExpectSameView(const CostView& actual, const CostView& expected,
                    const std::string& label) {
  const graph::KnowledgeGraph& g = expected.graph();
  ASSERT_EQ(actual.edge_costs().size(), expected.edge_costs().size());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ASSERT_EQ(Bits(actual.cost(e)), Bits(expected.cost(e)))
        << label << ": edge " << e;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto a = actual.Neighbors(v);
    const auto b = expected.Neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << label;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].neighbor, b[i].neighbor) << label << ": node " << v;
      ASSERT_EQ(a[i].edge, b[i].edge) << label << ": node " << v;
      ASSERT_EQ(Bits(a[i].cost), Bits(b[i].cost)) << label << ": node " << v;
    }
  }
  EXPECT_EQ(Bits(actual.min_cost()), Bits(expected.min_cost())) << label;
  EXPECT_EQ(Bits(actual.max_cost()), Bits(expected.max_cost())) << label;
}

/// An input path over exactly \p edges (Eq. (1) reads only the edges).
graph::Path PathOver(std::vector<EdgeId> edges) {
  graph::Path path;
  path.edges = std::move(edges);
  return path;
}

/// The edges whose base weight equals \p weight.
std::vector<EdgeId> EdgesAt(const data::RecGraph& rg, double weight) {
  std::vector<EdgeId> edges;
  for (EdgeId e = 0; e < rg.base_weights().size(); ++e) {
    if (rg.base_weights()[e] == weight) edges.push_back(e);
  }
  return edges;
}

struct Overlay {
  std::string name;
  std::vector<graph::Path> paths;
  double lambda = 1.0;
  size_t s_size = 1;
};

/// Writes every overlay through `SharedCostViews::WriteOverlay` (reusing
/// one output view) and compares it with a view assigned from the
/// per-task transform of the adjusted weights.
void ExpectOverlaysMatchTransform(const data::RecGraph& rg,
                                  const std::vector<Overlay>& overlays) {
  const graph::KnowledgeGraph& g = rg.graph();
  SharedCostViews views(rg);
  CostView written;
  std::vector<uint32_t> counts;
  std::vector<EdgeId> touched;
  std::vector<double> adjusted;
  for (CostMode mode : {CostMode::kWeightAwareLog, CostMode::kWeightAware}) {
    for (const Overlay& overlay : overlays) {
      AdjustWeightsInto(g, rg.base_weights(), overlay.paths, overlay.lambda,
                        overlay.s_size, &counts, &touched, &adjusted);
      views.WriteOverlay(mode, adjusted, touched, &written);
      CostView expected;
      expected.Assign(g, WeightsToCosts(AdjustWeights(g, rg.base_weights(),
                                                      overlay.paths,
                                                      overlay.lambda,
                                                      overlay.s_size),
                                        mode));
      ExpectSameView(written, expected,
                     overlay.name + " mode " +
                         std::to_string(static_cast<int>(mode)));
    }
  }
}

TEST(CostViewEquivalenceTest, OverlayViewMatchesTransformAtTheExtremes) {
  // The writer derives a task's raw extremes from the base extremes and
  // the touched edges, rescanning only when every edge at a base extreme
  // was touched. Each overlay below lands on one side of that rule.
  const Fixture f = MakeFixture(0.03, 38);
  const std::vector<double>& base = f.rg.base_weights();
  const auto [min_it, max_it] = std::minmax_element(base.begin(), base.end());
  const std::vector<EdgeId> at_max = EdgesAt(f.rg, *max_it);
  const std::vector<EdgeId> at_min = EdgesAt(f.rg, *min_it);
  ASSERT_GT(at_max.size(), 1u);
  ASSERT_GT(at_min.size(), 1u);
  const std::vector<EdgeId> half_max(at_max.begin(),
                                     at_max.begin() + at_max.size() / 2);
  const std::vector<EdgeId> half_min(at_min.begin(),
                                     at_min.begin() + at_min.size() / 2);
  Rng rng(98);
  std::vector<graph::Path> walks;
  for (int p = 0; p < 6; ++p) walks.push_back(RandomWalk(f.rg, &rng));
  // Every walk twice, and one walk's edges inside another path.
  std::vector<graph::Path> repeated = walks;
  repeated.insert(repeated.end(), walks.begin(), walks.end());
  std::vector<EdgeId> shared = walks[0].edges;
  shared.insert(shared.end(), at_max.begin(), at_max.begin() + 1);
  repeated.push_back(PathOver(shared));

  ExpectOverlaysMatchTransform(
      f.rg,
      {{"no paths", {}, 1.0, 1},
       {"random walks", walks, 1.0, 3},
       {"repeated edges", repeated, 1.0, 4},
       {"every max edge, boosted", {PathOver(at_max)}, 1.0, 1},
       // A negative λ sinks the maximum below the next weight level, which
       // only the rescan can find.
       {"every max edge, sunk", {PathOver(at_max)}, -0.5, 1},
       {"every min edge", {PathOver(at_min)}, 100.0, 1},
       {"half the max edges, sunk", {PathOver(half_max)}, -0.5, 1},
       {"half of each extreme",
        {PathOver(half_max), PathOver(half_min), walks[1]},
        1.0,
        2},
       // A λ the request parser accepts, large enough to overflow the
       // boosted weights to +inf: every cost turns NaN.
       {"overflowing boost", {PathOver(half_max)}, 1e308, 1}});
}

/// A 4x4 rating graph whose base weights are the ratings, cycling through
/// \p levels (1, 2, ...): knowledge-free, so every edge is a rating.
data::RecGraph LeveledGraph(int levels) {
  data::Dataset ds;
  ds.num_users = 4;
  ds.num_items = 4;
  ds.user_gender.assign(ds.num_users, data::Gender::kMale);
  for (uint32_t u = 0; u < 4; ++u) {
    for (uint32_t i = 0; i < 4; ++i) {
      ds.ratings.push_back(
          {u, i, static_cast<float>(1 + (u + i) % levels), 0});
    }
  }
  return std::move(data::BuildRecGraph(ds)).ValueOrDie();
}

TEST(CostViewEquivalenceTest, OverlayViewMatchesTransformOnLeveledWeights) {
  // Two levels: doubling every weight-1 edge makes all weights equal
  // (span 0, unit costs). Three levels: raising every weight-1 edge above
  // the top leaves the minimum at the untouched middle level.
  const data::RecGraph two = LeveledGraph(2);
  const std::vector<EdgeId> ones = EdgesAt(two, 1.0);
  ASSERT_FALSE(ones.empty());
  ExpectOverlaysMatchTransform(
      two, {{"all equal", {PathOver(ones)}, 1.0, 1},
            {"one edge", {PathOver({ones.front()})}, 1.0, 1}});

  const data::RecGraph three = LeveledGraph(3);
  ExpectOverlaysMatchTransform(
      three, {{"min moves to the middle", {PathOver(EdgesAt(three, 1.0))},
               3.0, 1}});
}

}  // namespace
}  // namespace xsum::core
