/// Property tests of the batch summarization engine: a context reused
/// across tasks, methods, and graphs of different sizes must return
/// bit-identical summaries (tree nodes/edges, unreached terminals,
/// objective) to fresh single-shot calls.

#include "core/batch.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_transform.h"
#include "core/pcst.h"
#include "core/steiner.h"
#include "core/summarizer.h"
#include "data/kg_builder.h"
#include "data/synthetic.h"
#include "graph/path.h"
#include "util/rng.h"

namespace xsum::core {
namespace {

struct Fixture {
  data::Dataset dataset;
  data::RecGraph rg;
};

/// Synthetic ML1M-flavoured graphs at different scales and seeds.
Fixture MakeFixture(double scale, uint64_t seed) {
  Fixture f;
  f.dataset = data::MakeSyntheticDataset(data::Ml1mConfig(scale, seed));
  f.rg = std::move(data::BuildRecGraph(f.dataset)).ValueOrDie();
  return f;
}

/// Random walk from a user, used as a synthetic explanation path.
graph::Path RandomWalk(const data::RecGraph& rg, Rng* rng) {
  const graph::KnowledgeGraph& g = rg.graph();
  graph::Path path;
  graph::NodeId v =
      rg.UserNode(static_cast<uint32_t>(rng->Uniform(rg.num_users())));
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

std::vector<SummarizerOptions> MethodLineup() {
  std::vector<SummarizerOptions> methods;
  SummarizerOptions baseline;
  baseline.method = SummaryMethod::kBaseline;
  methods.push_back(baseline);
  for (auto variant : {SteinerOptions::Variant::kKmb,
                       SteinerOptions::Variant::kMehlhorn}) {
    SummarizerOptions st;
    st.method = SummaryMethod::kSteiner;
    st.lambda = 1.0;
    st.steiner.variant = variant;
    methods.push_back(st);
  }
  SummarizerOptions pcst;
  pcst.method = SummaryMethod::kPcst;
  methods.push_back(pcst);
  return methods;
}

void ExpectIdentical(const Summary& fresh, const Summary& reused) {
  EXPECT_EQ(fresh.subgraph.nodes(), reused.subgraph.nodes());
  EXPECT_EQ(fresh.subgraph.edges(), reused.subgraph.edges());
  EXPECT_EQ(fresh.unreached_terminals, reused.unreached_terminals);
}

TEST(BatchSummarizerTest, ReusedContextMatchesFreshAcrossGraphsAndMethods) {
  // One context shared by every task on every graph — including shrinking
  // back to a smaller graph — must be indistinguishable from fresh calls.
  SummarizeContext shared;
  Rng rng(4242);
  const std::vector<std::pair<double, uint64_t>> graphs = {
      {0.02, 11}, {0.05, 12}, {0.02, 13}};
  const auto methods = MethodLineup();
  for (const auto& [scale, seed] : graphs) {
    const Fixture f = MakeFixture(scale, seed);
    for (int task_idx = 0; task_idx < 4; ++task_idx) {
      const SummaryTask task = RandomTask(f.rg, 3 + 2 * task_idx, 4, &rng);
      for (const SummarizerOptions& options : methods) {
        const Result<Summary> fresh = Summarize(f.rg, task, options);
        const Result<Summary> reused =
            SummarizeWith(f.rg, task, options, shared);
        ASSERT_TRUE(fresh.ok()) << fresh.status();
        ASSERT_TRUE(reused.ok()) << reused.status();
        ExpectIdentical(*fresh, *reused);
      }
    }
  }
}

TEST(BatchSummarizerTest, SteinerWorkspaceReuseMatchesFreshIncludingInternals) {
  const Fixture f = MakeFixture(0.03, 21);
  const auto costs = WeightsToCosts(f.rg.base_weights());
  graph::SearchWorkspace reused;
  Rng rng(77);
  for (int round = 0; round < 5; ++round) {
    const SummaryTask task = RandomTask(f.rg, 4 + round, 0, &rng);
    for (auto variant : {SteinerOptions::Variant::kKmb,
                         SteinerOptions::Variant::kMehlhorn}) {
      SteinerOptions options;
      options.variant = variant;
      const auto fresh =
          SteinerTree(f.rg.graph(), costs, task.terminals, options);
      const auto with_ws =
          SteinerTree(f.rg.graph(), costs, task.terminals, options, &reused);
      ASSERT_TRUE(fresh.ok());
      ASSERT_TRUE(with_ws.ok());
      EXPECT_EQ(fresh->tree.nodes(), with_ws->tree.nodes());
      EXPECT_EQ(fresh->tree.edges(), with_ws->tree.edges());
      EXPECT_EQ(fresh->unreached_terminals, with_ws->unreached_terminals);
    }
  }
}

TEST(BatchSummarizerTest, PcstWorkspaceReuseMatchesFreshIncludingObjective) {
  const Fixture f = MakeFixture(0.03, 22);
  graph::SearchWorkspace reused;
  Rng rng(78);
  for (int round = 0; round < 5; ++round) {
    const SummaryTask task = RandomTask(f.rg, 3 + 2 * round, 0, &rng);
    for (const bool strong_prune : {false, true}) {
      PcstOptions options;
      options.strong_prune = strong_prune;
      const auto fresh = PcstSummary(f.rg.graph(), f.rg.base_weights(),
                                     task.terminals, options);
      const auto with_ws = PcstSummary(f.rg.graph(), f.rg.base_weights(),
                                       task.terminals, options, &reused);
      ASSERT_TRUE(fresh.ok());
      ASSERT_TRUE(with_ws.ok());
      EXPECT_EQ(fresh->tree.nodes(), with_ws->tree.nodes());
      EXPECT_EQ(fresh->tree.edges(), with_ws->tree.edges());
      EXPECT_EQ(fresh->unreached_terminals, with_ws->unreached_terminals);
      EXPECT_EQ(fresh->objective, with_ws->objective);  // bit-identical
    }
  }
}

TEST(BatchSummarizerTest, RunAllPreservesTaskOrder) {
  const Fixture f = MakeFixture(0.03, 23);
  Rng rng(79);
  std::vector<SummaryTask> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back(RandomTask(f.rg, 4, 2, &rng));
  SummarizerOptions options;
  options.method = SummaryMethod::kSteiner;

  BatchSummarizer parallel_engine(f.rg, /*num_workers=*/4);
  const auto batched = parallel_engine.RunAll(tasks, options);
  ASSERT_EQ(batched.size(), tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    const Result<Summary> fresh = Summarize(f.rg, tasks[i], options);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(batched[i].ok()) << batched[i].status();
    ExpectIdentical(*fresh, *batched[i]);
    // RunAll slot i really answers tasks[i].
    EXPECT_EQ(batched[i]->terminals, tasks[i].terminals);
  }
}

TEST(BatchSummarizerTest, PropagatesErrorsPerTask) {
  const Fixture f = MakeFixture(0.02, 24);
  SummaryTask bad;
  bad.terminals = {static_cast<graph::NodeId>(f.rg.graph().num_nodes() + 7)};
  SummarizerOptions options;
  options.method = SummaryMethod::kPcst;
  BatchSummarizer engine(f.rg, 2);
  Rng rng(80);
  const std::vector<SummaryTask> tasks = {RandomTask(f.rg, 3, 0, &rng), bad};
  const auto results = engine.RunAll(tasks, options);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[1].status().IsInvalidArgument());
}

}  // namespace
}  // namespace xsum::core
