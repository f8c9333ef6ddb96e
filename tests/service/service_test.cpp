/// Property tests of the summary service front end: cached responses must
/// be bit-identical to fresh `Summarize` calls across methods and
/// scenarios, concurrent identical requests must coalesce into one
/// computation, concurrent distinct misses on several worker slots must
/// each match a fresh computation, a snapshot swap must never serve a
/// stale entry, and a chain checkpoint is cached only when a later compute
/// could carry it.

#include "service/service.h"

#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch.h"
#include "core/incremental.h"
#include "core/summarizer.h"
#include "data/kg_builder.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "eval/runner.h"
#include "service/snapshot_registry.h"

namespace xsum::service {
namespace {

eval::ExperimentConfig TinyConfig() {
  eval::ExperimentConfig config;
  config.scale = 0.02;
  config.users_per_gender = 4;
  config.items_popular = 3;
  config.items_unpopular = 3;
  config.user_group_size = 4;
  config.item_group_size = 3;
  config.ks = {1, 3, 5};
  return config;
}

/// Tasks covering all four paper scenarios, built from a real baseline.
std::vector<core::SummaryTask> ScenarioTasks(
    const eval::ExperimentRunner& runner, const eval::BaselineData& data) {
  std::vector<core::SummaryTask> tasks;
  for (int k : {1, 3, 5}) {  // overlapping k-prefixes of the same unit
    tasks.push_back(
        core::MakeUserCentricTask(runner.rec_graph(), data.users[0], k));
  }
  tasks.push_back(core::MakeItemCentricTask(
      runner.rec_graph(), data.items[0].item, data.items[0].audience, 3));
  tasks.push_back(
      core::MakeUserGroupTask(runner.rec_graph(), data.user_groups[0], 3));
  tasks.push_back(
      core::MakeItemGroupTask(runner.rec_graph(), data.item_groups[0], 3));
  return tasks;
}

std::vector<core::SummarizerOptions> MethodLineup() {
  std::vector<core::SummarizerOptions> methods;
  core::SummarizerOptions baseline;
  baseline.method = core::SummaryMethod::kBaseline;
  methods.push_back(baseline);
  for (auto [variant, lambda] :
       {std::pair{core::SteinerOptions::Variant::kKmb, 0.01},
        std::pair{core::SteinerOptions::Variant::kMehlhorn, 1.0}}) {
    core::SummarizerOptions st;
    st.method = core::SummaryMethod::kSteiner;
    st.lambda = lambda;
    st.steiner.variant = variant;
    methods.push_back(st);
  }
  core::SummarizerOptions pcst;
  pcst.method = core::SummaryMethod::kPcst;
  methods.push_back(pcst);
  return methods;
}

void ExpectIdentical(const core::Summary& a, const core::Summary& b) {
  EXPECT_EQ(a.subgraph.nodes(), b.subgraph.nodes());
  EXPECT_EQ(a.subgraph.edges(), b.subgraph.edges());
  EXPECT_EQ(a.unreached_terminals, b.unreached_terminals);
  EXPECT_EQ(a.terminals, b.terminals);
  EXPECT_EQ(a.anchors, b.anchors);
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.scenario, b.scenario);
}

TEST(SummaryServiceTest, CachedBitIdenticalToFreshAcrossMethodsAndScenarios) {
  eval::ExperimentRunner runner(TinyConfig());
  ASSERT_TRUE(runner.Init().ok());
  const auto data = runner.ComputeBaseline(rec::RecommenderKind::kPgpr);
  ASSERT_TRUE(data.ok()) << data.status();
  ASSERT_FALSE(data->users.empty());
  ASSERT_FALSE(data->items.empty());
  ASSERT_FALSE(data->user_groups.empty());
  ASSERT_FALSE(data->item_groups.empty());

  GraphSnapshotRegistry registry;
  registry.Publish(GraphSnapshotRegistry::Alias(runner.rec_graph()));
  ServiceOptions options;
  options.num_workers = 2;
  SummaryService service(&registry, options);

  uint64_t distinct = 0;
  for (const core::SummaryTask& task : ScenarioTasks(runner, *data)) {
    for (const core::SummarizerOptions& method : MethodLineup()) {
      const auto first = service.Summarize(task, method);
      ASSERT_TRUE(first.ok()) << first.status();
      ++distinct;

      // Property: the cached value is bit-identical to a fresh
      // single-shot Summarize on the same graph.
      const auto fresh = core::Summarize(runner.rec_graph(), task, method);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      ExpectIdentical(*fresh, (*first)->summary());

      // The repeat is served from the cache: same shared object, no new
      // engine run.
      const auto repeat = service.Summarize(task, method);
      ASSERT_TRUE(repeat.ok()) << repeat.status();
      EXPECT_EQ(first->get(), repeat->get());
    }
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, 2 * distinct);
  EXPECT_EQ(stats.computed, distinct);
  EXPECT_EQ(stats.cache.hits, distinct);
  EXPECT_EQ(stats.cache.insertions, distinct);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(stats.qps, 0.0);
}

TEST(SummaryServiceTest, SnapshotSwapNeverServesStaleEntries) {
  // Graphs A and B share topology (same dataset) but carry different edge
  // weights, so a stale ST answer would be observably wrong.
  data::Dataset dataset =
      data::MakeSyntheticDataset(data::Ml1mConfig(0.02, 11));
  data::WeightParams params_b;
  params_b.beta1 = 0.25;
  params_b.beta2 = 1.0;
  params_b.t0 = dataset.t0;
  auto graph_a = std::make_shared<const data::RecGraph>(
      std::move(data::BuildRecGraph(dataset)).ValueOrDie());
  auto graph_b = std::make_shared<const data::RecGraph>(
      std::move(data::BuildRecGraph(dataset, params_b)).ValueOrDie());

  core::SummaryTask task;
  task.terminals = {graph_a->UserNode(0), graph_a->ItemNode(0),
                    graph_a->ItemNode(1)};
  task.anchors = {task.terminals.front()};
  task.s_size = 2;
  core::SummarizerOptions st;
  st.method = core::SummaryMethod::kSteiner;

  GraphSnapshotRegistry registry;
  SummaryService service(&registry, ServiceOptions());

  ASSERT_EQ(registry.Publish(graph_a), 1u);
  const auto on_a = service.Summarize(task, st);
  ASSERT_TRUE(on_a.ok()) << on_a.status();
  const auto fresh_a = core::Summarize(*graph_a, task, st);
  ASSERT_TRUE(fresh_a.ok());
  ExpectIdentical(*fresh_a, (*on_a)->summary());

  ASSERT_EQ(registry.Publish(graph_b), 2u);
  const auto on_b = service.Summarize(task, st);
  ASSERT_TRUE(on_b.ok()) << on_b.status();
  const auto fresh_b = core::Summarize(*graph_b, task, st);
  ASSERT_TRUE(fresh_b.ok());
  // The version-2 request was recomputed on graph B — not served from the
  // version-1 entry (its key can no longer match).
  ExpectIdentical(*fresh_b, (*on_b)->summary());

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.computed, 2u);
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.snapshot_swaps, 1u);
  EXPECT_EQ(stats.snapshot_version, 2u);

  // After the swap, the version-2 entry serves hits as usual.
  const auto repeat_b = service.Summarize(task, st);
  ASSERT_TRUE(repeat_b.ok());
  EXPECT_EQ(on_b->get(), repeat_b->get());
}

TEST(SummaryServiceTest, SingleFlightCoalescesConcurrentIdenticalRequests) {
  eval::ExperimentRunner runner(TinyConfig());
  ASSERT_TRUE(runner.Init().ok());
  const auto data = runner.ComputeBaseline(rec::RecommenderKind::kPgpr);
  ASSERT_TRUE(data.ok());
  const core::SummaryTask task =
      core::MakeUserCentricTask(runner.rec_graph(), data->users[0], 5);
  core::SummarizerOptions st;
  st.method = core::SummaryMethod::kSteiner;

  GraphSnapshotRegistry registry;
  registry.Publish(GraphSnapshotRegistry::Alias(runner.rec_graph()));
  ServiceOptions options;
  options.num_workers = 2;
  SummaryService service(&registry, options);

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const SummaryRecord>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto result = service.Summarize(task, st);
      ASSERT_TRUE(result.ok()) << result.status();
      results[t] = *result;
    });
  }
  for (std::thread& t : threads) t.join();

  // Exactly one engine run; everyone shares its bits (hit or coalesced).
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.cache.insertions, 1u);
  EXPECT_EQ(stats.cache.hits + stats.coalesced,
            static_cast<uint64_t>(kThreads - 1));
  for (const auto& result : results) {
    ASSERT_NE(result, nullptr);
    ExpectIdentical(results[0]->summary(), result->summary());
  }
}

TEST(SummaryServiceTest, ConcurrentDistinctMissesMatchFresh) {
  // Eight clients race KMB, Mehlhorn and PCST requests at λ = 0 and λ = 1
  // through four worker slots. Every client walks every key, each from
  // its own offset: the first requests are concurrent distinct misses on
  // different slots, the later ones meet keys another client already
  // computed (hits) or is computing (coalesced).
  eval::ExperimentRunner runner(TinyConfig());
  ASSERT_TRUE(runner.Init().ok());
  const auto data = runner.ComputeBaseline(rec::RecommenderKind::kPgpr);
  ASSERT_TRUE(data.ok());
  ASSERT_GE(data->users.size(), 4u);

  std::vector<core::SummaryTask> tasks;
  for (size_t u = 0; u < 4; ++u) {
    for (int k : {2, 4}) {
      tasks.push_back(
          core::MakeUserCentricTask(runner.rec_graph(), data->users[u], k));
    }
  }
  std::vector<core::SummarizerOptions> methods;
  for (double lambda : {0.0, 1.0}) {
    for (auto variant : {core::SteinerOptions::Variant::kKmb,
                         core::SteinerOptions::Variant::kMehlhorn}) {
      core::SummarizerOptions st;
      st.method = core::SummaryMethod::kSteiner;
      st.lambda = lambda;
      st.steiner.variant = variant;
      methods.push_back(st);
    }
    core::SummarizerOptions pcst;
    pcst.method = core::SummaryMethod::kPcst;
    pcst.lambda = lambda;
    methods.push_back(pcst);
  }
  std::vector<std::pair<const core::SummaryTask*,
                        const core::SummarizerOptions*>>
      keys;
  for (const core::SummaryTask& task : tasks) {
    for (const core::SummarizerOptions& method : methods) {
      keys.emplace_back(&task, &method);
    }
  }

  GraphSnapshotRegistry registry;
  registry.Publish(GraphSnapshotRegistry::Alias(runner.rec_graph()));
  ServiceOptions options;
  options.num_workers = 4;
  SummaryService service(&registry, options);

  constexpr size_t kThreads = 8;
  std::vector<std::vector<std::shared_ptr<const SummaryRecord>>> results(
      kThreads,
      std::vector<std::shared_ptr<const SummaryRecord>>(keys.size()));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < keys.size(); ++i) {
        const size_t key = (i + t * keys.size() / kThreads) % keys.size();
        const auto result =
            service.Summarize(*keys[key].first, *keys[key].second);
        ASSERT_TRUE(result.ok()) << result.status();
        results[t][key] = *result;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t key = 0; key < keys.size(); ++key) {
    const auto fresh = core::Summarize(runner.rec_graph(), *keys[key].first,
                                       *keys[key].second);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    for (size_t t = 0; t < kThreads; ++t) {
      ASSERT_NE(results[t][key], nullptr) << "key " << key;
      EXPECT_EQ(results[t][key].get(), results[0][key].get()) << "key " << key;
    }
    const core::Summary& served = results[0][key]->summary();
    ExpectIdentical(*fresh, served);
    EXPECT_EQ(fresh->memory_bytes, served.memory_bytes) << "key " << key;
  }
  const ServiceStats stats = service.Stats();
  const uint64_t requests = kThreads * keys.size();
  EXPECT_EQ(stats.requests, requests);
  EXPECT_EQ(stats.computed, keys.size());
  EXPECT_EQ(stats.cache.hits + stats.coalesced, requests - stats.computed);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(SummaryServiceTest, CacheDisabledAlwaysComputes) {
  eval::ExperimentRunner runner(TinyConfig());
  ASSERT_TRUE(runner.Init().ok());
  const auto data = runner.ComputeBaseline(rec::RecommenderKind::kPgpr);
  ASSERT_TRUE(data.ok());
  const core::SummaryTask task =
      core::MakeUserCentricTask(runner.rec_graph(), data->users[0], 3);
  core::SummarizerOptions st;
  st.method = core::SummaryMethod::kSteiner;

  GraphSnapshotRegistry registry;
  registry.Publish(GraphSnapshotRegistry::Alias(runner.rec_graph()));
  ServiceOptions options;
  options.enable_cache = false;
  SummaryService service(&registry, options);

  const auto first = service.Summarize(task, st);
  const auto second = service.Summarize(task, st);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectIdentical((*first)->summary(), (*second)->summary());
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.computed, 2u);
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.insertions, 0u);
}

TEST(SummaryServiceTest, ErrorsPropagateAndAreNotCached) {
  eval::ExperimentRunner runner(TinyConfig());
  ASSERT_TRUE(runner.Init().ok());
  core::SummaryTask bad;
  bad.terminals = {static_cast<graph::NodeId>(
      runner.rec_graph().graph().num_nodes() + 7)};
  core::SummarizerOptions pcst;
  pcst.method = core::SummaryMethod::kPcst;

  GraphSnapshotRegistry registry;
  registry.Publish(GraphSnapshotRegistry::Alias(runner.rec_graph()));
  SummaryService service(&registry, ServiceOptions());

  const auto first = service.Summarize(bad, pcst);
  const auto second = service.Summarize(bad, pcst);
  EXPECT_FALSE(first.ok());
  EXPECT_FALSE(second.ok());
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.computed, 2u);  // the failure was not cached
  EXPECT_EQ(stats.cache.insertions, 0u);
}

TEST(SummaryServiceTest, NoPublishedSnapshotFailsPrecondition) {
  GraphSnapshotRegistry registry;
  SummaryService service(&registry, ServiceOptions());
  core::SummaryTask task;
  task.terminals = {0};
  const auto result = service.Summarize(task, core::SummarizerOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsFailedPrecondition());
}

TEST(SummaryServiceTest, StatsWellDefinedBeforeAndAfterFirstRequest) {
  // Regression: the latency percentiles must be well-defined on an empty
  // (no traffic yet) and a one-sample reservoir — zeros and the single
  // sample respectively, never garbage.
  eval::ExperimentRunner runner(TinyConfig());
  ASSERT_TRUE(runner.Init().ok());
  GraphSnapshotRegistry registry;
  registry.Publish(GraphSnapshotRegistry::Alias(runner.rec_graph()));
  SummaryService service(&registry, ServiceOptions());

  const ServiceStats before = service.Stats();
  EXPECT_EQ(before.requests, 0u);
  EXPECT_EQ(before.mean_ms, 0.0);
  EXPECT_EQ(before.p50_ms, 0.0);
  EXPECT_EQ(before.p99_ms, 0.0);
  EXPECT_EQ(before.qps, 0.0);

  const auto data = runner.ComputeBaseline(rec::RecommenderKind::kPgpr);
  ASSERT_TRUE(data.ok());
  const core::SummaryTask task =
      core::MakeUserCentricTask(runner.rec_graph(), data->users[0], 3);
  core::SummarizerOptions st;
  st.method = core::SummaryMethod::kSteiner;
  ASSERT_TRUE(service.Summarize(task, st).ok());

  const ServiceStats after = service.Stats();
  EXPECT_EQ(after.requests, 1u);
  // One sample: every percentile is that sample, and the mean equals it.
  EXPECT_EQ(after.p50_ms, after.p99_ms);
  EXPECT_EQ(after.p50_ms, after.mean_ms);
  EXPECT_GT(after.p50_ms, 0.0);
}

TEST(SummaryServiceTest, PredecessorHintSummarizesIncrementallyBitIdentical) {
  eval::ExperimentRunner runner(TinyConfig());
  ASSERT_TRUE(runner.Init().ok());
  const auto data = runner.ComputeBaseline(rec::RecommenderKind::kPgpr);
  ASSERT_TRUE(data.ok());
  GraphSnapshotRegistry registry;
  registry.Publish(GraphSnapshotRegistry::Alias(runner.rec_graph()));
  SummaryService service(&registry, ServiceOptions());

  // λ = 0 KMB: the resolved costs are k-stable, so the chained compute
  // actually reuses the predecessor's closure rows (not just the wiring).
  core::SummarizerOptions st;
  st.method = core::SummaryMethod::kSteiner;
  st.lambda = 0.0;
  st.steiner.variant = core::SteinerOptions::Variant::kKmb;

  const core::SummaryTask* predecessor = nullptr;
  core::SummaryTask prev_task;
  for (int k = 1; k <= 5; ++k) {
    const core::SummaryTask task =
        core::MakeUserCentricTask(runner.rec_graph(), data->users[0], k);
    const auto incremental = service.Summarize(task, st, predecessor);
    ASSERT_TRUE(incremental.ok()) << incremental.status();
    // Property: the hinted answer is bit-identical to a fresh one-shot.
    const auto fresh = core::Summarize(runner.rec_graph(), task, st);
    ASSERT_TRUE(fresh.ok());
    ExpectIdentical(*fresh, (*incremental)->summary());
    prev_task = task;
    predecessor = &prev_task;
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.computed, 5u);
  // Every step past the first was seeded by the (task, k−1) checkpoint.
  EXPECT_EQ(stats.incremental, 4u);
  EXPECT_EQ(stats.errors, 0u);

  // A wrong or unrelated hint degrades to a fresh compute, never a wrong
  // answer.
  const core::SummaryTask unrelated =
      core::MakeUserCentricTask(runner.rec_graph(), data->users.back(), 2);
  const core::SummaryTask task =
      core::MakeUserCentricTask(runner.rec_graph(), data->users[0], 6);
  const auto hinted = service.Summarize(task, st, &unrelated);
  const auto fresh = core::Summarize(runner.rec_graph(), task, st);
  ASSERT_TRUE(hinted.ok() && fresh.ok());
  ExpectIdentical(*fresh, (*hinted)->summary());
}

TEST(SummaryServiceTest, OverlayCheckpointIsNotCached) {
  eval::ExperimentRunner runner(TinyConfig());
  ASSERT_TRUE(runner.Init().ok());
  const auto data = runner.ComputeBaseline(rec::RecommenderKind::kPgpr);
  ASSERT_TRUE(data.ok());
  GraphSnapshotRegistry registry;
  registry.Publish(GraphSnapshotRegistry::Alias(runner.rec_graph()));
  SummaryService service(&registry, ServiceOptions());

  const core::SummaryTask task =
      core::MakeUserCentricTask(runner.rec_graph(), data->users[0], 3);
  core::SummarizerOptions kmb;
  kmb.method = core::SummaryMethod::kSteiner;
  kmb.steiner.variant = core::SteinerOptions::Variant::kKmb;
  kmb.lambda = 1.0;
  // Precondition: at λ = 1 this task's Eq. (1) overlay moves its costs, so
  // its checkpoint could seed only a step with bitwise the same overlay.
  core::BatchSummarizer engine(runner.rec_graph(), /*num_workers=*/1);
  core::SummaryChain probe;
  ASSERT_TRUE(engine.RunChainedWith(0, task, kmb, nullptr, &probe).ok());
  ASSERT_EQ(probe.cost_sig.kind, core::CostSignature::Kind::kOverlay);

  // A route key makes any cached checkpoint visible to `ExportChains`.
  constexpr uint64_t kRouteKey = 7;
  ASSERT_TRUE(service.Summarize(task, kmb, nullptr, nullptr, kRouteKey).ok());
  EXPECT_TRUE(service.ExportChains().empty());

  // λ = 0 leaves the base costs, so the miss still caches its checkpoint.
  kmb.lambda = 0.0;
  ASSERT_TRUE(service.Summarize(task, kmb, nullptr, nullptr, kRouteKey).ok());
  const auto chains = service.ExportChains();
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].chain->cost_sig.kind, core::CostSignature::Kind::kBase);
  EXPECT_EQ(service.Stats().computed, 2u);
}

}  // namespace
}  // namespace xsum::service
