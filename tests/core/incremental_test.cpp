/// Property tests of the incremental k-sweep summarization engine
/// (core/incremental.h): chained summaries must be bit-identical to
/// from-scratch ones across methods (ST-KMB / ST-Mehlhorn / PCST /
/// baseline), scenarios, λ overlays, worker counts, PCST growth slack, and
/// both closure-store retention modes — reuse may only engage where it is
/// provably exact. Also the regression tests of the unified perf
/// accounting (Summary::elapsed_ms / memory_bytes filled on every path).

#include "core/incremental.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch.h"
#include "core/cost_transform.h"
#include "core/scenario.h"
#include "core/steiner.h"
#include "core/summarizer.h"
#include "data/kg_builder.h"
#include "data/synthetic.h"
#include "graph/cost_view.h"
#include "util/rng.h"

namespace xsum::core {
namespace {

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

/// Random walk from a node, used as a synthetic explanation path.
graph::Path RandomWalkFrom(const data::RecGraph& rg, graph::NodeId start,
                           Rng* rng) {
  const graph::KnowledgeGraph& g = rg.graph();
  graph::Path path;
  graph::NodeId v = start;
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

/// Synthetic ranked recommendations for one user — the k-prefix property
/// of the real recommenders (each k task is a prefix of the k+1 task).
UserRecs MakeUserRecs(const data::RecGraph& rg, uint32_t user,
                      size_t num_recs, Rng* rng) {
  UserRecs recs;
  recs.user = user;
  for (size_t r = 0; r < num_recs; ++r) {
    rec::Recommendation rec;
    rec.item = static_cast<uint32_t>(rng->Uniform(rg.num_items()));
    rec.score = 1.0 - 0.01 * static_cast<double>(r);
    rec.path = RandomWalkFrom(rg, rg.UserNode(user), rng);
    recs.recs.push_back(std::move(rec));
  }
  return recs;
}

std::vector<SummarizerOptions> MethodLineup() {
  std::vector<SummarizerOptions> methods;
  SummarizerOptions baseline;
  baseline.method = SummaryMethod::kBaseline;
  methods.push_back(baseline);
  for (auto variant : {SteinerOptions::Variant::kKmb,
                       SteinerOptions::Variant::kMehlhorn}) {
    for (double lambda : {0.0, 1.0, 100.0}) {
      SummarizerOptions st;
      st.method = SummaryMethod::kSteiner;
      st.lambda = lambda;
      st.steiner.variant = variant;
      methods.push_back(st);
    }
  }
  // kUnit cost mode: the overlay cannot move unit costs, so the chain
  // carries across every k even at λ > 0.
  SummarizerOptions st_unit;
  st_unit.method = SummaryMethod::kSteiner;
  st_unit.lambda = 1.0;
  st_unit.cost_mode = CostMode::kUnit;
  st_unit.steiner.variant = SteinerOptions::Variant::kKmb;
  methods.push_back(st_unit);
  // PCST at the wire default (slack 0, where unit-cost keys tie) and with
  // the moat-discretization slack.
  for (double slack : {0.0, 0.5}) {
    SummarizerOptions pcst;
    pcst.method = SummaryMethod::kPcst;
    pcst.pcst.growth_slack = slack;
    methods.push_back(pcst);
  }
  return methods;
}

void ExpectIdentical(const Summary& fresh, const Summary& chained) {
  EXPECT_EQ(fresh.subgraph.nodes(), chained.subgraph.nodes());
  EXPECT_EQ(fresh.subgraph.edges(), chained.subgraph.edges());
  EXPECT_EQ(fresh.unreached_terminals, chained.unreached_terminals);
  EXPECT_EQ(fresh.terminals, chained.terminals);
}

TEST(IncrementalTest, UserCentricSweepMatchesFromScratchAcrossMethods) {
  const Fixture f = MakeFixture(0.03, 31);
  Rng rng(101);
  const auto methods = MethodLineup();
  for (const bool retain_trees : {true, false}) {
    for (uint32_t user = 0; user < 3; ++user) {
      const UserRecs recs = MakeUserRecs(f.rg, user, 6, &rng);
      for (const SummarizerOptions& options : methods) {
        IncrementalSummarizer inc(f.rg, nullptr, retain_trees);
        for (int k = 1; k <= 6; ++k) {
          const SummaryTask task = MakeUserCentricTask(f.rg, recs, k);
          const Result<Summary> fresh = Summarize(f.rg, task, options);
          const Result<Summary> chained = inc.Next(task, options);
          ASSERT_TRUE(fresh.ok()) << fresh.status();
          ASSERT_TRUE(chained.ok()) << chained.status();
          ExpectIdentical(*fresh, *chained);
        }
      }
    }
  }
}

TEST(IncrementalTest, GroupScenarioSweepsMatchFromScratch) {
  const Fixture f = MakeFixture(0.03, 32);
  Rng rng(102);
  // User-group chain: every member contributes its k-prefix.
  std::vector<UserRecs> group;
  for (uint32_t user = 0; user < 4; ++user) {
    group.push_back(MakeUserRecs(f.rg, user, 5, &rng));
  }
  // Item-group chain from synthetic ranked audiences.
  std::vector<ItemAudience> items;
  for (uint32_t item = 0; item < 3; ++item) {
    ItemAudience ia;
    ia.item = item;
    for (uint32_t user = 0; user < 5; ++user) {
      AudienceEntry entry;
      entry.user = user;
      entry.path = RandomWalkFrom(f.rg, f.rg.UserNode(user), &rng);
      ia.audience.push_back(std::move(entry));
    }
    items.push_back(std::move(ia));
  }
  for (const SummarizerOptions& options : MethodLineup()) {
    IncrementalSummarizer inc_users(f.rg);
    IncrementalSummarizer inc_items(f.rg);
    for (int k = 1; k <= 5; ++k) {
      const SummaryTask user_task = MakeUserGroupTask(f.rg, group, k);
      const SummaryTask item_task = MakeItemGroupTask(f.rg, items, k);
      const Result<Summary> fresh_users = Summarize(f.rg, user_task, options);
      const Result<Summary> fresh_items = Summarize(f.rg, item_task, options);
      const Result<Summary> chained_users = inc_users.Next(user_task, options);
      const Result<Summary> chained_items = inc_items.Next(item_task, options);
      ASSERT_TRUE(fresh_users.ok() && chained_users.ok());
      ASSERT_TRUE(fresh_items.ok() && chained_items.ok());
      ExpectIdentical(*fresh_users, *chained_users);
      ExpectIdentical(*fresh_items, *chained_items);
    }
  }
}

TEST(IncrementalTest, ClosureReuseEngagesWhenCostsAreStable) {
  const Fixture f = MakeFixture(0.03, 33);
  Rng rng(103);
  const UserRecs recs = MakeUserRecs(f.rg, 1, 8, &rng);
  // λ = 0: the Eq. (1) multiplier is exactly 1, so the adjusted weights
  // (and the resolved costs) are bitwise stable across the whole sweep.
  SummarizerOptions options;
  options.method = SummaryMethod::kSteiner;
  options.lambda = 0.0;
  options.steiner.variant = SteinerOptions::Variant::kKmb;
  IncrementalSummarizer inc(f.rg);
  size_t total_reused = 0;
  for (int k = 1; k <= 8; ++k) {
    const SummaryTask task = MakeUserCentricTask(f.rg, recs, k);
    ASSERT_TRUE(inc.Next(task, options).ok());
    total_reused += inc.chain().closure.last_reused_pairs;
  }
  EXPECT_EQ(inc.chain().resets, 0u);
  EXPECT_GE(inc.chain().links, 8u);
  EXPECT_GT(total_reused, 0u);
  // Tree retention: each terminal is searched at most once per chain.
  EXPECT_LE(inc.chain().closure.trees.size(),
            MakeUserCentricTask(f.rg, recs, 8).terminals.size());
}

TEST(IncrementalTest, ChainResetsWhenOverlayMovesCosts) {
  const Fixture f = MakeFixture(0.03, 34);
  Rng rng(104);
  const UserRecs recs = MakeUserRecs(f.rg, 2, 6, &rng);
  // λ = 100 with real path overlays: adding the k+1-th path re-weights
  // touched edges, so the cost signature moves every step and the chain
  // must restart rather than reuse stale closure rows.
  SummarizerOptions options;
  options.method = SummaryMethod::kSteiner;
  options.lambda = 100.0;
  options.steiner.variant = SteinerOptions::Variant::kKmb;
  IncrementalSummarizer inc(f.rg);
  for (int k = 1; k <= 6; ++k) {
    const SummaryTask task = MakeUserCentricTask(f.rg, recs, k);
    const Result<Summary> fresh = Summarize(f.rg, task, options);
    const Result<Summary> chained = inc.Next(task, options);
    ASSERT_TRUE(fresh.ok() && chained.ok());
    ExpectIdentical(*fresh, *chained);
  }
  EXPECT_GT(inc.chain().resets, 0u);
}

TEST(IncrementalTest, ChainedStoreServesArbitraryTerminalSets) {
  // The closure memo is keyed by node pair under fixed costs, so chained
  // calls are exact for any terminal-set sequence — subsets, supersets,
  // and partial overlaps — not just nested sweeps.
  const Fixture f = MakeFixture(0.03, 35);
  const auto costs = WeightsToCosts(f.rg.base_weights());
  graph::CostView view;
  view.Assign(f.rg.graph(), costs);
  Rng rng(105);
  for (const bool retain_trees : {true, false}) {
    KmbClosureStore store;
    store.retain_trees = retain_trees;
    graph::SearchWorkspace ws;
    for (int round = 0; round < 10; ++round) {
      std::vector<graph::NodeId> terminals;
      terminals.push_back(f.rg.UserNode(
          static_cast<uint32_t>(rng.Uniform(f.rg.num_users()))));
      const size_t t = 2 + rng.Uniform(8);
      while (terminals.size() < t) {
        terminals.push_back(f.rg.ItemNode(
            static_cast<uint32_t>(rng.Uniform(f.rg.num_items()))));
      }
      const auto fresh = SteinerTree(view, terminals);
      const auto chained = SteinerTreeChained(view, terminals, {}, &ws, &store);
      ASSERT_TRUE(fresh.ok() && chained.ok());
      EXPECT_EQ(fresh->tree.nodes(), chained->tree.nodes());
      EXPECT_EQ(fresh->tree.edges(), chained->tree.edges());
      EXPECT_EQ(fresh->unreached_terminals, chained->unreached_terminals);
    }
    EXPECT_GT(store.pairs.size(), 0u);
  }
}

TEST(IncrementalTest, RunSweepAndPanelSweepMatchPerKRunsAcrossWorkers) {
  const Fixture f = MakeFixture(0.03, 36);
  Rng rng(106);
  std::vector<UserRecs> users;
  for (uint32_t user = 0; user < 5; ++user) {
    users.push_back(MakeUserRecs(f.rg, user, 6, &rng));
  }
  std::vector<std::function<SummaryTask(int)>> units;
  for (const UserRecs& recs : users) {
    units.push_back(
        [&f, &recs](int k) { return MakeUserCentricTask(f.rg, recs, k); });
  }
  const std::vector<int> ks = {5, 1, 3, 6, 2, 4};  // deliberately unsorted
  for (double lambda : {0.0, 1.0}) {
    SummarizerOptions options;
    options.method = SummaryMethod::kSteiner;
    options.lambda = lambda;
    options.steiner.variant = SteinerOptions::Variant::kKmb;
    std::vector<std::vector<Result<Summary>>> per_worker_results;
    for (const size_t workers : {size_t{1}, size_t{3}}) {
      BatchSummarizer engine(f.rg, workers);
      const auto swept = engine.RunPanelSweep(units, ks, options);
      ASSERT_EQ(swept.size(), units.size());
      for (size_t u = 0; u < units.size(); ++u) {
        ASSERT_EQ(swept[u].size(), ks.size());
        for (size_t ki = 0; ki < ks.size(); ++ki) {
          ASSERT_TRUE(swept[u][ki].ok()) << swept[u][ki].status();
          // Slot (u, ki) really answers units[u](ks[ki]), and matches an
          // independent per-k run bit-for-bit.
          const Result<Summary> fresh =
              Summarize(f.rg, units[u](ks[ki]), options);
          ASSERT_TRUE(fresh.ok());
          ExpectIdentical(*fresh, *swept[u][ki]);
        }
      }
    }
  }
}

TEST(IncrementalTest, MemoryAccountingIndependentOfRetentionMode) {
  // Retained source trees are chain infrastructure, not per-query working
  // set: the memory metric must not depend on whether a sweep ran through
  // the tree-retention hot path (engine route) or the compact checkpoint
  // mode (service route) — otherwise a figure's memory series would
  // change with the serving route.
  const Fixture f = MakeFixture(0.03, 38);
  Rng rng(108);
  const UserRecs recs = MakeUserRecs(f.rg, 3, 6, &rng);
  SummarizerOptions options;
  options.method = SummaryMethod::kSteiner;
  options.lambda = 0.0;  // cost-stable: the chain carries at every k
  options.steiner.variant = SteinerOptions::Variant::kKmb;
  IncrementalSummarizer retained(f.rg, nullptr, /*retain_trees=*/true);
  IncrementalSummarizer compact(f.rg, nullptr, /*retain_trees=*/false);
  for (int k = 1; k <= 6; ++k) {
    const SummaryTask task = MakeUserCentricTask(f.rg, recs, k);
    const Result<Summary> a = retained.Next(task, options);
    const Result<Summary> b = compact.Next(task, options);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->memory_bytes, b->memory_bytes) << "k=" << k;
  }
  EXPECT_GT(retained.chain().closure.trees.size(), 0u);
}

// --- unified perf accounting (regression: one-shot Summarize used to be
// able to drop Summary::elapsed_ms / memory_bytes relative to the batch
// path; all paths now finish through one helper) -------------------------

TEST(IncrementalTest, PerfCountersFilledOnEveryPath) {
  const Fixture f = MakeFixture(0.03, 37);
  Rng rng(107);
  const UserRecs recs = MakeUserRecs(f.rg, 0, 5, &rng);
  const SummaryTask task = MakeUserCentricTask(f.rg, recs, 5);
  BatchSummarizer engine(f.rg, 1);
  IncrementalSummarizer inc(f.rg);
  for (const SummaryMethod method :
       {SummaryMethod::kBaseline, SummaryMethod::kSteiner,
        SummaryMethod::kPcst}) {
    SummarizerOptions options;
    options.method = method;
    options.steiner.variant = SteinerOptions::Variant::kKmb;
    const Result<Summary> one_shot = Summarize(f.rg, task, options);
    const Result<Summary> batch = engine.Run(task, options);
    const Result<Summary> chained = inc.Next(task, options);
    for (const Result<Summary>* result : {&one_shot, &batch, &chained}) {
      ASSERT_TRUE(result->ok()) << (*result).status();
      EXPECT_GT((*result)->memory_bytes, 0u)
          << SummaryMethodToString(method);
      EXPECT_GE((*result)->elapsed_ms, 0.0);
    }
    // One accounting for all paths: a fresh-chain step reports the same
    // memory as the one-shot and batch paths, bit for bit (the service
    // bench verifies cached-vs-fresh equality on this field).
    EXPECT_EQ(one_shot->memory_bytes, batch->memory_bytes);
    EXPECT_EQ(one_shot->memory_bytes, chained->memory_bytes);
    // The graph methods do real search work; their wall time cannot be
    // the zeroed default.
    if (method != SummaryMethod::kBaseline) {
      EXPECT_GT(one_shot->elapsed_ms, 0.0);
      EXPECT_GT(batch->elapsed_ms, 0.0);
      EXPECT_GT(chained->elapsed_ms, 0.0);
    }
  }
}

}  // namespace
}  // namespace xsum::core
