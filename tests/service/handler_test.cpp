/// Tests of the transport-facing summary handler: request parsing and
/// validation, endpoint dispatch, deterministic response rendering (the
/// direct `/summarize` writer against the `JsonValue` document it
/// replaced), the handler's trace spans, the predecessor-hint path, and
/// snapshot publication over the wire surface.

#include "service/handler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/summarizer.h"
#include "eval/experiment.h"
#include "eval/runner.h"
#include "graph/subgraph.h"
#include "net/json.h"
#include "obs/trace.h"
#include "service/snapshot_registry.h"

namespace xsum::service {
namespace {

eval::ExperimentConfig TinyConfig() {
  eval::ExperimentConfig config;
  config.scale = 0.02;
  config.users_per_gender = 3;
  config.items_popular = 3;
  config.items_unpopular = 3;
  config.ks = {1, 3, 5};
  return config;
}

/// Shared serving stack for the whole suite (graph building dominates
/// test wall time; the handler itself is stateless across tests).
class HandlerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runner_ = new eval::ExperimentRunner(TinyConfig());
    ASSERT_TRUE(runner_->Init().ok());
    auto data = runner_->ComputeBaseline(rec::RecommenderKind::kPgpr);
    ASSERT_TRUE(data.ok()) << data.status();
    ASSERT_FALSE(data->users.empty());
    // Every scenario, so the rendering tests see every document shape.
    const data::RecGraph& graph = runner_->rec_graph();
    catalog_ = new TaskCatalog();
    for (const core::UserRecs& ur : data->users) {
      catalog_->AddUserCentric(graph, ur, kMaxK);
    }
    for (int k = 1; k <= kMaxK; ++k) {
      for (const core::ItemAudience& item : data->items) {
        catalog_->Add(
            core::Scenario::kItemCentric, item.item, k,
            core::MakeItemCentricTask(graph, item.item, item.audience, k));
      }
      for (uint32_t g = 0; g < data->user_groups.size(); ++g) {
        catalog_->Add(core::Scenario::kUserGroup, g, k,
                      core::MakeUserGroupTask(graph, data->user_groups[g], k));
      }
      for (uint32_t g = 0; g < data->item_groups.size(); ++g) {
        catalog_->Add(core::Scenario::kItemGroup, g, k,
                      core::MakeItemGroupTask(graph, data->item_groups[g], k));
      }
    }
    registry_ = new GraphSnapshotRegistry();
    registry_->Publish(GraphSnapshotRegistry::Alias(runner_->rec_graph()));
    service_ = new SummaryService(registry_);
    handler_ = new SummaryHandler(
        service_, catalog_, []() -> Result<uint64_t> {
          return registry_->Publish(
              GraphSnapshotRegistry::Alias(runner_->rec_graph()));
        });
  }

  static void TearDownTestSuite() {
    delete handler_;
    delete service_;
    delete registry_;
    delete catalog_;
    delete runner_;
    handler_ = nullptr;
    service_ = nullptr;
    registry_ = nullptr;
    catalog_ = nullptr;
    runner_ = nullptr;
  }

  static constexpr int kMaxK = 5;

  static uint32_t FirstUser() { return catalog_->entries().front().unit; }

  static net::HttpResponse Call(const std::string& method,
                                const std::string& target,
                                const std::string& body = "") {
    net::HttpRequest request;
    request.method = method;
    request.target = target;
    request.body = body;
    return handler_->Handle(request);
  }

  static eval::ExperimentRunner* runner_;
  static TaskCatalog* catalog_;
  static GraphSnapshotRegistry* registry_;
  static SummaryService* service_;
  static SummaryHandler* handler_;
};

eval::ExperimentRunner* HandlerTest::runner_ = nullptr;
TaskCatalog* HandlerTest::catalog_ = nullptr;
GraphSnapshotRegistry* HandlerTest::registry_ = nullptr;
SummaryService* HandlerTest::service_ = nullptr;
SummaryHandler* HandlerTest::handler_ = nullptr;

TEST_F(HandlerTest, ParseSummaryRequestAcceptsFullDocument) {
  const auto json = net::ParseJson(
      R"({"scenario":"user-centric","user":12,"k":4,"method":"PCST",)"
      R"("lambda":0.5,"cost_mode":"unit","variant":"kmb","prev_k":3})");
  ASSERT_TRUE(json.ok());
  const auto request = ParseSummaryRequest(*json);
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->scenario, core::Scenario::kUserCentric);
  EXPECT_EQ(request->unit, 12u);
  EXPECT_EQ(request->k, 4);
  EXPECT_EQ(request->method, core::SummaryMethod::kPcst);
  EXPECT_DOUBLE_EQ(request->lambda, 0.5);
  EXPECT_EQ(request->cost_mode, core::CostMode::kUnit);
  EXPECT_EQ(request->variant, core::SteinerOptions::Variant::kKmb);
  EXPECT_EQ(request->prev_k, 3);
}

TEST_F(HandlerTest, ParseSummaryRequestDefaultsAndRoundTrip) {
  const auto json = net::ParseJson(R"({"user":3,"k":1})");
  ASSERT_TRUE(json.ok());
  const auto request = ParseSummaryRequest(*json);
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->method, core::SummaryMethod::kSteiner);
  EXPECT_DOUBLE_EQ(request->lambda, 1.0);
  EXPECT_EQ(request->cost_mode, core::CostMode::kWeightAwareLog);
  EXPECT_EQ(request->prev_k, 0);

  // ToJson -> Parse is the identity.
  const auto round = ParseSummaryRequest(SummaryRequestToJson(*request));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->unit, request->unit);
  EXPECT_EQ(round->k, request->k);
  EXPECT_EQ(round->method, request->method);
  EXPECT_DOUBLE_EQ(round->lambda, request->lambda);
}

TEST_F(HandlerTest, ParseSummaryRequestRejectsBadDocuments) {
  const std::vector<std::string> bad = {
      R"([1,2,3])",                               // not an object
      R"({"k":1})",                               // missing unit
      R"({"user":-1,"k":1})",                     // negative unit
      R"({"user":"x","k":1})",                    // unit wrong type
      R"({"user":1})",                            // missing k
      R"({"user":1,"k":0})",                      // k out of range
      R"({"user":1,"k":5000})",                   // k out of range
      R"({"user":1,"k":2.5})",                    // k not integral
      R"({"user":1,"k":1,"method":"DIJKSTRA"})",  // unknown method
      R"({"user":1,"k":1,"scenario":"global"})",  // unknown scenario
      R"({"user":1,"k":1,"lambda":-2})",          // negative lambda
      R"({"user":1,"k":1,"cost_mode":"banana"})",
      R"({"user":1,"k":1,"variant":"dreyfus"})",
      R"({"user":1,"k":3,"prev_k":3})",           // hint not < k
      R"({"item":1,"k":1})",  // user-centric requests name a user
  };
  for (const std::string& text : bad) {
    const auto json = net::ParseJson(text);
    ASSERT_TRUE(json.ok()) << text;
    EXPECT_FALSE(ParseSummaryRequest(*json).ok()) << "accepted: " << text;
  }
}

TEST_F(HandlerTest, HealthzReportsVersionAndCatalog) {
  const auto response = Call("GET", "/healthz");
  EXPECT_EQ(response.status, 200);
  const auto json = net::ParseJson(response.body);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->Find("status")->AsString(), "ok");
  EXPECT_GE(json->Find("snapshot_version")->AsInt(), 1);
  EXPECT_EQ(json->Find("catalog_tasks")->AsInt(),
            static_cast<int64_t>(catalog_->size()));
}

TEST_F(HandlerTest, UnknownEndpointsAnd405s) {
  EXPECT_EQ(Call("GET", "/nope").status, 404);
  EXPECT_EQ(Call("GET", "/summarize").status, 405);
  EXPECT_EQ(Call("POST", "/stats").status, 405);
  EXPECT_EQ(Call("POST", "/healthz").status, 405);
  EXPECT_EQ(Call("GET", "/snapshot").status, 405);
}

TEST_F(HandlerTest, SummarizeBadBodiesAre400NotCrashes) {
  EXPECT_EQ(Call("POST", "/summarize", "").status, 400);
  EXPECT_EQ(Call("POST", "/summarize", "{not json").status, 400);
  EXPECT_EQ(Call("POST", "/summarize", R"({"user":1})").status, 400);
}

TEST_F(HandlerTest, SummarizeUnknownUnitIs404) {
  const auto response =
      Call("POST", "/summarize", R"({"user":999999,"k":3})");
  EXPECT_EQ(response.status, 404);
}

TEST_F(HandlerTest, SummarizeMatchesDirectEngineCall) {
  SummaryRequest request;
  request.unit = FirstUser();
  request.k = 3;
  const net::HttpResponse response = handler_->Summarize(request);
  ASSERT_EQ(response.status, 200) << response.body;

  // The response body equals a by-hand rendering of a fresh Summarize.
  const core::SummaryTask* task =
      catalog_->Find(core::Scenario::kUserCentric, request.unit, 3);
  ASSERT_NE(task, nullptr);
  const auto fresh = core::Summarize(runner_->rec_graph(), *task,
                                     RequestOptions(request));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(response.body,
            SummaryToJson(*fresh, service_->serving_version()));

  // Determinism: asking again returns the same bytes.
  EXPECT_EQ(handler_->Summarize(request).body, response.body);
}

TEST_F(HandlerTest, SummarizeTraceShowsEvalAndRenderSpans) {
  const auto traced_spans = [&](uint64_t trace_id) {
    net::HttpRequest request;
    request.method = "POST";
    request.target = "/summarize";
    request.body = R"({"user":)" + std::to_string(FirstUser()) + R"(,"k":2})";
    request.headers.emplace_back(obs::kTraceHeaderLower,
                                 obs::TraceIdToHex(trace_id));
    EXPECT_EQ(handler_->Handle(request).status, 200);
    obs::TraceLog::Entry entry;
    EXPECT_TRUE(handler_->trace_log().Find(trace_id, &entry));
    std::vector<std::string> names;
    for (const obs::Span& span : entry.spans) names.push_back(span.name);
    return names;
  };
  const auto has = [](const std::vector<std::string>& names,
                      const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };

  const std::vector<std::string> spans = traced_spans(0xE7A1ULL);
  EXPECT_TRUE(has(spans, "cache.lookup"));
  EXPECT_TRUE(has(spans, "eval"));
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.back(), "render");

  // Without evaluation there is no eval span; the render span stays.
  handler_->set_eval_enabled(false);
  const std::vector<std::string> no_eval = traced_spans(0xE7A2ULL);
  handler_->set_eval_enabled(true);
  EXPECT_FALSE(has(no_eval, "eval"));
  EXPECT_TRUE(has(no_eval, "render"));
}

TEST_F(HandlerTest, PredecessorHintIsAnOptimizationNotAnInput) {
  SummaryRequest base;
  base.unit = FirstUser();
  base.lambda = 0.0;  // λ=0 keeps the chain signature stable (§5.2)
  base.variant = core::SteinerOptions::Variant::kKmb;

  // Ascending k chain with hints.
  std::vector<std::string> chained;
  for (int k = 1; k <= 5; ++k) {
    SummaryRequest request = base;
    request.k = k;
    request.prev_k = k - 1;  // 0 on the first step = no hint
    const auto response = handler_->Summarize(request);
    ASSERT_EQ(response.status, 200) << response.body;
    chained.push_back(response.body);
  }
  const uint64_t incremental = service_->Stats().incremental;

  // The same ks without hints (cache already has them: identical bytes).
  for (int k = 1; k <= 5; ++k) {
    SummaryRequest request = base;
    request.k = k;
    const auto response = handler_->Summarize(request);
    ASSERT_EQ(response.status, 200);
    EXPECT_EQ(response.body, chained[static_cast<size_t>(k - 1)]);
  }
  // At least one chained step actually reused the predecessor.
  EXPECT_GE(incremental, 1u);

  // A stale hint (unknown predecessor k) degrades to fresh compute.
  SummaryRequest stale = base;
  stale.unit = 999999;
  stale.k = 2;
  stale.prev_k = 1;
  EXPECT_EQ(handler_->Summarize(stale).status, 404);
}

TEST_F(HandlerTest, StatsDocumentCarriesServiceCounters) {
  // Generate traffic first: ctest runs every test in its own process.
  SummaryRequest warm;
  warm.unit = FirstUser();
  warm.k = 1;
  ASSERT_EQ(handler_->Summarize(warm).status, 200);
  const auto response = Call("GET", "/stats");
  EXPECT_EQ(response.status, 200);
  const auto json = net::ParseJson(response.body);
  ASSERT_TRUE(json.ok()) << response.body;
  EXPECT_GE(json->Find("requests")->AsInt(), 1);
  ASSERT_NE(json->Find("cache"), nullptr);
  EXPECT_GE(json->Find("cache")->Find("hits")->AsInt(), 0);
  EXPECT_GE(json->Find("qps")->AsDouble(), 0.0);
}

TEST_F(HandlerTest, SnapshotPublishBumpsServingVersion) {
  const uint64_t before = service_->serving_version();
  const auto response = Call("POST", "/snapshot");
  ASSERT_EQ(response.status, 200) << response.body;
  const auto json = net::ParseJson(response.body);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->Find("snapshot_version")->AsInt(),
            static_cast<int64_t>(before + 1));
  EXPECT_EQ(service_->serving_version(), before + 1);
}

TEST_F(HandlerTest, SnapshotWithoutPublisherIs503) {
  SummaryHandler no_publish(service_, catalog_);
  net::HttpRequest request;
  request.method = "POST";
  request.target = "/snapshot";
  EXPECT_EQ(no_publish.Handle(request).status, 503);
}

/// The `/summarize` document as the handler built it before rendering went
/// straight to bytes: a `net::JsonValue` tree, dumped. `SummaryToJson`
/// must produce exactly these bytes.
template <typename T>
net::JsonValue ReferenceIds(const std::vector<T>& ids) {
  net::JsonValue array = net::JsonValue::Array();
  for (const T id : ids) {
    array.Append(net::JsonValue(static_cast<int64_t>(id)));
  }
  return array;
}

std::string ReferenceSummaryJson(const core::Summary& summary,
                                 uint64_t snapshot_version) {
  net::JsonValue json = net::JsonValue::Object();
  json.Set("snapshot_version", snapshot_version);
  json.Set("scenario", core::ScenarioToString(summary.scenario));
  json.Set("method", core::SummaryMethodToString(summary.method));
  json.Set("anchors", ReferenceIds(summary.anchors));
  json.Set("terminals", ReferenceIds(summary.terminals));
  json.Set("unreached_terminals", ReferenceIds(summary.unreached_terminals));
  json.Set("num_nodes", summary.subgraph.num_nodes());
  json.Set("num_edges", summary.subgraph.num_edges());
  json.Set("nodes", ReferenceIds(summary.subgraph.nodes()));
  json.Set("edges", ReferenceIds(summary.subgraph.edges()));
  return json.Dump();
}

template <typename T>
std::vector<int64_t> Widened(const std::vector<T>& ids) {
  return std::vector<int64_t>(ids.begin(), ids.end());
}

std::vector<int64_t> ParsedIds(const net::JsonValue& json, const char* key) {
  std::vector<int64_t> ids;
  const net::JsonValue* array = json.Find(key);
  if (array == nullptr || !array->is_array()) {
    ADD_FAILURE() << "no array '" << key << "'";
    return ids;
  }
  for (const net::JsonValue& id : array->items()) {
    EXPECT_TRUE(id.is_int()) << key;
    ids.push_back(id.AsInt());
  }
  return ids;
}

/// Renders \p summary and checks the bytes against the reference and the
/// parsed document against the summary's fields.
void ExpectRendersLikeReference(const core::Summary& summary,
                                uint64_t snapshot_version) {
  const std::string body = SummaryToJson(summary, snapshot_version);
  ASSERT_EQ(body, ReferenceSummaryJson(summary, snapshot_version));
  const auto json = net::ParseJson(body);
  ASSERT_TRUE(json.ok()) << json.status();
  const auto integer = [&](const char* key) {
    const net::JsonValue* value = json->Find(key);
    EXPECT_TRUE(value != nullptr && value->is_int()) << key;
    return value != nullptr ? value->AsInt() : int64_t{-1};
  };
  const auto string = [&](const char* key) {
    const net::JsonValue* value = json->Find(key);
    EXPECT_TRUE(value != nullptr && value->is_string()) << key;
    return value != nullptr ? value->AsString() : std::string();
  };
  EXPECT_EQ(json->members().size(), 10u);
  EXPECT_EQ(integer("snapshot_version"),
            static_cast<int64_t>(snapshot_version));
  EXPECT_EQ(string("scenario"), core::ScenarioToString(summary.scenario));
  EXPECT_EQ(string("method"), core::SummaryMethodToString(summary.method));
  EXPECT_EQ(ParsedIds(*json, "anchors"), Widened(summary.anchors));
  EXPECT_EQ(ParsedIds(*json, "terminals"), Widened(summary.terminals));
  EXPECT_EQ(ParsedIds(*json, "unreached_terminals"),
            Widened(summary.unreached_terminals));
  EXPECT_EQ(integer("num_nodes"),
            static_cast<int64_t>(summary.subgraph.num_nodes()));
  EXPECT_EQ(integer("num_edges"),
            static_cast<int64_t>(summary.subgraph.num_edges()));
  EXPECT_EQ(ParsedIds(*json, "nodes"), Widened(summary.subgraph.nodes()));
  EXPECT_EQ(ParsedIds(*json, "edges"), Widened(summary.subgraph.edges()));
}

/// The wire bytes of `/summarize`: every fence that compares a routed or
/// served body renders its reference with `SummaryToJson` too, so only
/// this suite can see a changed byte.
class SummaryJsonTest : public HandlerTest {};

TEST_F(SummaryJsonTest, MatchesJsonValueReference) {
  struct Method {
    core::SummaryMethod method;
    core::SteinerOptions::Variant variant;
  };
  const Method methods[] = {
      {core::SummaryMethod::kSteiner, core::SteinerOptions::Variant::kKmb},
      {core::SummaryMethod::kSteiner,
       core::SteinerOptions::Variant::kMehlhorn},
      {core::SummaryMethod::kPcst, core::SteinerOptions::Variant::kMehlhorn},
  };
  std::set<core::Scenario> scenarios;
  size_t rendered = 0;
  for (const TaskCatalog::Entry& entry : catalog_->entries()) {
    const core::SummaryTask* task =
        catalog_->Find(entry.scenario, entry.unit, entry.k);
    ASSERT_NE(task, nullptr);
    for (const Method& method : methods) {
      for (const double lambda : {0.0, 1.0}) {
        SummaryRequest request;
        request.scenario = entry.scenario;
        request.unit = entry.unit;
        request.k = entry.k;
        request.method = method.method;
        request.variant = method.variant;
        request.lambda = lambda;
        const auto summary = core::Summarize(runner_->rec_graph(), *task,
                                             RequestOptions(request));
        ASSERT_TRUE(summary.ok()) << summary.status();
        ExpectRendersLikeReference(*summary, service_->serving_version());
        scenarios.insert(entry.scenario);
        ++rendered;
      }
    }
  }
  EXPECT_EQ(scenarios.size(), 4u);
  EXPECT_EQ(rendered, catalog_->size() * 6);

  // Hand-built edge cases: the empty summary, one with no unreached
  // terminals, a single node, the extreme snapshot versions, and the
  // largest ids.
  constexpr graph::NodeId kMaxNode = std::numeric_limits<graph::NodeId>::max();
  constexpr graph::EdgeId kMaxEdge = std::numeric_limits<graph::EdgeId>::max();
  const core::Summary empty{};
  ExpectRendersLikeReference(empty, 0);
  ExpectRendersLikeReference(empty, 1);

  core::Summary reached;
  reached.method = core::SummaryMethod::kPcst;
  reached.scenario = core::Scenario::kItemGroup;
  reached.anchors = {3, 4};
  reached.terminals = {3, 4, 9};
  reached.subgraph = graph::Subgraph::FromIds({3, 4, 7, 9}, {0, 2, 5});
  ExpectRendersLikeReference(reached, 2);

  core::Summary single;
  single.scenario = core::Scenario::kItemCentric;
  single.anchors = {12};
  single.terminals = {12};
  single.subgraph = graph::Subgraph::FromIds({12}, {});
  ExpectRendersLikeReference(single, 1);

  core::Summary largest;
  largest.method = core::SummaryMethod::kBaseline;
  largest.scenario = core::Scenario::kUserGroup;
  largest.anchors = {kMaxNode};
  largest.terminals = {0, kMaxNode};
  largest.unreached_terminals = {kMaxNode};
  largest.subgraph = graph::Subgraph::FromIds({0, kMaxNode}, {0, kMaxEdge});
  ExpectRendersLikeReference(largest, 0);
  ExpectRendersLikeReference(largest, (uint64_t{1} << 53) + 1);
}

}  // namespace
}  // namespace xsum::service
