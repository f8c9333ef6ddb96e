/// \file xsum_server.cpp
/// \brief The summary-serving binary: one executable that runs as an HTTP
/// shard, a shard router, or both (DESIGN.md §6), plus a bench driver
/// that forks real shard processes and replays a Zipf stream through the
/// routed path.
///
/// Subcommands:
///   serve          Start the HTTP front on XSUM_PORT. With XSUM_SHARDS
///                  set (comma-separated host:port list) the process is a
///                  *router* over those backends (local fallback per
///                  XSUM_LOCAL_FALLBACK); without it, a plain *shard*.
///                  Prints "LISTENING <port>" once ready; stops on
///                  SIGINT/SIGTERM.
///   bench          (default) Forks two `serve` shard children on
///                  ephemeral ports, routes a Zipf-skewed request stream
///                  through them from XSUM_CLIENTS threads, hot-swaps the
///                  graph fleet-wide mid-stream via /snapshot, prints the
///                  dashboard per phase, and verifies a sample of routed
///                  responses byte-identical against the in-process
///                  engine.
///   oneshot JSON   Answer one /summarize body in-process and print the
///                  exact response body — the reference side of the CI
///                  smoke diff.
///   request        Print a valid /summarize body for this dataset (the
///                  first catalog unit), for quickstarts and CI.
///   record FILE    Generate an XSUM_SCENARIO workload over this
///                  dataset's catalog (diurnal|hotkey|tenants|recency),
///                  answer it — against XSUM_TARGET when set, in-process
///                  otherwise — and write the stream as a replay trace
///                  (replay::Trace JSONL, response fingerprints included).
///   replay FILE    Load a recorded trace and replay it open-loop at
///                  XSUM_REPLAY_SPEED × the recorded inter-arrival gaps
///                  (against XSUM_TARGET when set, in-process otherwise),
///                  verifying every response byte-identical to the
///                  recording via its fingerprint. Nonzero exit on any
///                  divergence.
///
/// `serve` additionally records its own live /summarize stream to
/// XSUM_TRACE_RECORD when that is set — the capture side of the
/// record/replay loop — and accumulates per-summary evaluation
/// statistics on /evalstats unless XSUM_EVAL_STATS=0.
///
/// Determinism: every subcommand builds the identical dataset, task
/// catalog, and graph snapshot from the XSUM_* env knobs, which is what
/// makes `oneshot` output byte-comparable with a routed `serve` answer
/// and a recorded trace replayable byte-identically.
///
/// Env knobs: XSUM_SCALE / XSUM_USERS / XSUM_SEED (dataset),
/// XSUM_PORT / XSUM_SHARDS / XSUM_NET_WORKERS / XSUM_LOCAL_FALLBACK
/// (network), XSUM_REPLICAS / XSUM_MAX_FAILOVER / XSUM_HEDGE /
/// XSUM_HEDGE_MS / XSUM_EJECT_MS (fleet resilience), XSUM_MAX_QUEUE /
/// XSUM_QUEUE_MS (admission control), XSUM_LOG_LEVEL / XSUM_TRACE /
/// XSUM_EVAL_STATS (observability), XSUM_TRACE_RECORD / XSUM_TARGET /
/// XSUM_SCENARIO / XSUM_GAP_US / XSUM_REPLAY_SPEED (record/replay),
/// XSUM_REQUESTS (default 400), XSUM_CLIENTS (default 2),
/// XSUM_ZIPF (default 1.1). See docs/OPERATIONS.md.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "data/kg_builder.h"
#include "data/synthetic.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/replay.h"
#include "rec/recommender.h"
#include "rec/sampler.h"
#include "replay/replayer.h"
#include "replay/scenario.h"
#include "replay/trace.h"
#include "service/handler.h"
#include "service/service.h"
#include "service/shard_router.h"
#include "service/snapshot_registry.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/timer.h"

using namespace xsum;

namespace {

/// Everything one serving process owns: graphs, registry, catalog,
/// service, handler. Identical across processes given identical env.
struct ServingStack {
  std::shared_ptr<const data::RecGraph> graph;
  std::shared_ptr<const data::RecGraph> refresh;
  service::GraphSnapshotRegistry registry;
  service::TaskCatalog catalog;
  std::unique_ptr<service::SummaryService> service;
  std::unique_ptr<service::SummaryHandler> handler;
};

std::unique_ptr<ServingStack> BuildStack(size_t service_workers) {
  const double scale = GetEnvDouble("XSUM_SCALE", 0.03);
  const uint64_t seed =
      static_cast<uint64_t>(GetEnvNonNegativeInt("XSUM_SEED", 42));
  const size_t num_users =
      static_cast<size_t>(GetEnvNonNegativeInt("XSUM_USERS", 12));

  auto stack = std::make_unique<ServingStack>();

  // One dataset, two weight regimes: the serving graph (paper defaults)
  // and the refresh /snapshot publishes (recency-aware weights), so a hot
  // swap genuinely changes summaries.
  const data::Dataset dataset =
      data::MakeSyntheticDataset(data::Ml1mConfig(scale, seed));
  data::WeightParams refresh_params;
  refresh_params.beta2 = 1.0;
  refresh_params.t0 = dataset.t0;
  auto graph_result = data::BuildRecGraph(dataset);
  auto refresh_result = data::BuildRecGraph(dataset, refresh_params);
  if (!graph_result.ok() || !refresh_result.ok()) {
    std::fprintf(stderr, "graph build failed\n");
    return nullptr;
  }
  stack->graph = std::make_shared<const data::RecGraph>(
      std::move(graph_result).ValueOrDie());
  stack->refresh = std::make_shared<const data::RecGraph>(
      std::move(refresh_result).ValueOrDie());

  // Task universe: user-centric tasks at every k-prefix for a
  // deterministic user sample.
  const auto recommender = rec::MakeRecommender(
      rec::RecommenderKind::kPgpr, *stack->graph, seed + 17, {});
  for (uint32_t user :
       rec::SampleUsersByGender(dataset, num_users / 2, seed + 1)) {
    core::UserRecs ur;
    ur.user = user;
    ur.recs = recommender->Recommend(user, 10);
    if (ur.recs.empty()) continue;
    stack->catalog.AddUserCentric(*stack->graph, ur, 10);
  }
  if (stack->catalog.size() == 0) {
    std::fprintf(stderr, "no serveable tasks at this scale\n");
    return nullptr;
  }

  stack->registry.Publish(stack->graph);
  service::ServiceOptions options;
  options.num_workers = service_workers;
  options.enable_cache = GetEnvNonNegativeInt("XSUM_CACHE", 1) != 0;
  options.cache.max_bytes =
      static_cast<size_t>(GetEnvNonNegativeInt("XSUM_CACHE_MB", 64)) << 20;
  stack->service =
      std::make_unique<service::SummaryService>(&stack->registry, options);
  stack->handler = std::make_unique<service::SummaryHandler>(
      stack->service.get(), &stack->catalog,
      [stack_ptr = stack.get()]() -> Result<uint64_t> {
        return stack_ptr->registry.Publish(stack_ptr->refresh);
      });
  return stack;
}

/// The /summarize body of the catalog's first unit (k = 3 when present) —
/// the deterministic request the quickstart and CI smoke use.
service::SummaryRequest DefaultRequest(const service::TaskCatalog& catalog) {
  const auto& entries = catalog.entries();
  service::SummaryRequest request;
  request.scenario = entries.front().scenario;
  request.unit = entries.front().unit;
  request.k = entries.front().k;
  for (const auto& entry : entries) {
    if (entry.unit == request.unit && entry.k == 3) {
      request.k = 3;
      break;
    }
  }
  return request;
}

// --- serve -----------------------------------------------------------------

int RunServe() {
  // Block the stop signals before any server thread exists so every
  // thread inherits the mask and sigwait below is race-free.
  sigset_t stop_set;
  sigemptyset(&stop_set);
  sigaddset(&stop_set, SIGINT);
  sigaddset(&stop_set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_set, nullptr);

  const size_t net_workers = static_cast<size_t>(
      std::max<int64_t>(1, GetEnvNonNegativeInt("XSUM_NET_WORKERS", 4)));
  auto stack = BuildStack(net_workers);
  if (!stack) return 1;

  const std::string shards = GetEnvString("XSUM_SHARDS", "");
  std::unique_ptr<service::ShardRouter> router;
  net::HttpServer::Options server_options;
  const int64_t port = GetEnvNonNegativeInt("XSUM_PORT", 8080);
  if (port > 65535) {
    // The env contract: out-of-range values warn and keep the default,
    // never silently wrap.
    std::fprintf(stderr,
                 "XSUM_PORT=%lld is not a valid port; using 8080\n",
                 static_cast<long long>(port));
    server_options.port = 8080;
  } else {
    server_options.port = static_cast<uint16_t>(port);
  }
  server_options.num_workers = net_workers;
  // Admission control: bound the accepted-connection queue and shed
  // stale entries instead of serving them past their useful deadline.
  server_options.max_pending =
      static_cast<size_t>(GetEnvNonNegativeInt("XSUM_MAX_QUEUE", 256));
  server_options.queue_budget_ms = static_cast<int>(
      GetEnvNonNegativeInt("XSUM_QUEUE_MS", 250));
  // One registry per process: the server's queue/handler histograms land
  // next to the service's, so /metrics is a single merged document.
  server_options.metrics = stack->service->metrics_registry();
  const bool trace_on = GetEnvNonNegativeInt("XSUM_TRACE", 1) != 0;
  stack->handler->set_trace_enabled(trace_on);
  stack->handler->set_eval_enabled(
      GetEnvNonNegativeInt("XSUM_EVAL_STATS", 1) != 0);

  net::HttpServer::Handler http_handler;
  if (!shards.empty()) {
    service::ShardRouter::Options router_options;
    for (const std::string& part : Split(shards, ',')) {
      const std::string endpoint = Trim(part);
      if (!endpoint.empty()) router_options.endpoints.push_back(endpoint);
    }
    router_options.local_fallback =
        GetEnvNonNegativeInt("XSUM_LOCAL_FALLBACK", 1) != 0;
    router_options.replicas = static_cast<size_t>(
        std::max<int64_t>(1, GetEnvNonNegativeInt("XSUM_REPLICAS", 2)));
    router_options.max_failover = static_cast<int>(
        GetEnvNonNegativeInt("XSUM_MAX_FAILOVER", 2));
    router_options.hedge = GetEnvNonNegativeInt("XSUM_HEDGE", 1) != 0;
    router_options.hedge_min_ms = static_cast<int>(
        std::max<int64_t>(1, GetEnvNonNegativeInt("XSUM_HEDGE_MS", 20)));
    router_options.health.base_backoff_ms = static_cast<int>(
        std::max<int64_t>(1, GetEnvNonNegativeInt("XSUM_EJECT_MS", 500)));
    router = std::make_unique<service::ShardRouter>(stack->handler.get(),
                                                    router_options);
    router->set_trace_enabled(trace_on);
    http_handler = [&router](const net::HttpRequest& request) {
      return router->Handle(request);
    };
  } else {
    http_handler = [&stack](const net::HttpRequest& request) {
      return stack->handler->Handle(request);
    };
  }

  // Live trace capture (XSUM_TRACE_RECORD): wrap whichever role handler
  // was built above so both shard and router processes record the same
  // way. Only answered /summarize requests are recorded — the stream a
  // replay can meaningfully verify — and the stored request is the
  // *canonical* wire form, so a replay posts byte-stable bodies no matter
  // how the original client formatted its JSON.
  const std::string record_path = GetEnvString("XSUM_TRACE_RECORD", "");
  std::unique_ptr<replay::TraceSink> sink;
  if (!record_path.empty()) {
    auto opened = replay::TraceSink::Open(record_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "XSUM_TRACE_RECORD: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    sink = *std::move(opened);
    http_handler = [inner = std::move(http_handler),
                    sink_ptr = sink.get()](const net::HttpRequest& request) {
      net::HttpResponse response = inner(request);
      if (request.target == "/summarize" && response.status == 200) {
        auto json = net::ParseJson(request.body);
        if (json.ok()) {
          auto parsed = service::ParseSummaryRequest(*json);
          if (parsed.ok()) {
            std::string client;
            if (const std::string* header =
                    request.FindHeader(replay::kClientHeaderLower)) {
              client = *header;
            }
            sink_ptr->Record(std::move(client),
                             service::SummaryRequestToJson(*parsed),
                             response.status, response.body);
          }
        }
      }
      return response;
    };
  }

  net::HttpServer server(http_handler, server_options);
  // Surface the server-level gauges in /stats next to the service view.
  stack->handler->set_extra_stats([&server](net::JsonValue* json) {
    json->Set("queue_depth", server.queue_depth());
    json->Set("requests_shed", server.requests_shed());
  });
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING %u\n", server.port());
  std::printf("xsum_server: role=%s port=%u tasks=%zu workers=%zu\n",
              router ? "router" : "shard", server.port(),
              stack->catalog.size(), net_workers);
  std::fflush(stdout);

  int sig = 0;
  sigwait(&stop_set, &sig);
  std::printf("xsum_server: stopping (signal %d), served %llu requests\n",
              sig,
              static_cast<unsigned long long>(server.requests_served()));
  server.Stop();
  if (sink != nullptr) {
    const uint64_t recorded = sink->recorded();
    const Status closed = sink->Close();
    if (!closed.ok()) {
      std::fprintf(stderr, "trace sink: %s\n", closed.ToString().c_str());
      return 1;
    }
    std::printf("xsum_server: recorded %llu requests to %s\n",
                static_cast<unsigned long long>(recorded),
                record_path.c_str());
  }
  return 0;
}

// --- oneshot / request -----------------------------------------------------

int RunOneshot(const std::string& body) {
  auto stack = BuildStack(1);
  if (!stack) return 1;
  const net::HttpRequest request{
      "POST", "/summarize", 1, {}, body, true};
  const net::HttpResponse response = stack->handler->Handle(request);
  std::printf("%s\n", response.body.c_str());
  if (response.status != 200) {
    std::fprintf(stderr, "oneshot failed: HTTP %d\n", response.status);
    return 1;
  }
  return 0;
}

int RunRequest() {
  auto stack = BuildStack(1);
  if (!stack) return 1;
  std::printf("%s\n",
              service::SummaryRequestToJson(DefaultRequest(stack->catalog))
                  .Dump()
                  .c_str());
  return 0;
}

// --- record / replay -------------------------------------------------------

/// The catalog's request universe (every registered (unit, k) under ST
/// λ=1) — the index space scenario generators pick from, in catalog
/// insertion order so every process agrees on it.
std::vector<service::SummaryRequest> CatalogUniverse(
    const service::TaskCatalog& catalog) {
  std::vector<service::SummaryRequest> universe;
  universe.reserve(catalog.entries().size());
  for (const auto& entry : catalog.entries()) {
    service::SummaryRequest request;
    request.scenario = entry.scenario;
    request.unit = entry.unit;
    request.k = entry.k;
    universe.push_back(request);
  }
  return universe;
}

int RunRecord(const std::string& path) {
  const auto kind =
      replay::ParseScenarioKind(GetEnvString("XSUM_SCENARIO", "hotkey"));
  if (!kind.ok()) {
    std::fprintf(stderr, "XSUM_SCENARIO: %s\n",
                 kind.status().ToString().c_str());
    return 2;
  }
  replay::ScenarioOptions scenario;
  scenario.count =
      static_cast<size_t>(GetEnvNonNegativeInt("XSUM_REQUESTS", 400));
  scenario.seed =
      static_cast<uint64_t>(GetEnvNonNegativeInt("XSUM_SEED", 42));
  scenario.mean_gap_us =
      static_cast<double>(GetEnvNonNegativeInt("XSUM_GAP_US", 1000));
  scenario.zipf_skew = GetEnvDouble("XSUM_ZIPF", 1.1);
  scenario.clients = static_cast<uint32_t>(
      std::max<int64_t>(1, GetEnvNonNegativeInt("XSUM_CLIENTS", 2)));

  // The local stack supplies the catalog universe in every mode and the
  // answers in the in-process one.
  auto stack = BuildStack(1);
  if (!stack) return 1;
  const std::vector<service::SummaryRequest> universe =
      CatalogUniverse(stack->catalog);
  const std::vector<replay::ArrivalEvent> events =
      replay::GenerateScenario(*kind, universe.size(), scenario);

  const std::string target = GetEnvString("XSUM_TARGET", "");
  std::unique_ptr<net::HttpClient> client;
  if (!target.empty()) {
    auto endpoint = service::ParseEndpoint(target);
    if (!endpoint.ok()) {
      std::fprintf(stderr, "XSUM_TARGET: %s\n",
                   endpoint.status().ToString().c_str());
      return 2;
    }
    client =
        std::make_unique<net::HttpClient>(endpoint->first, endpoint->second);
  }

  // Sequential issue, in offset order: the recorded fingerprints are a
  // deterministic function of (env knobs, scenario), so re-recording the
  // same configuration writes the identical trace.
  replay::Trace trace;
  trace.records.reserve(events.size());
  for (const replay::ArrivalEvent& event : events) {
    const service::SummaryRequest& request = universe[event.pick];
    replay::TraceRecord record;
    record.seq = trace.records.size();
    record.offset_us = event.offset_us;
    record.client = "c" + std::to_string(event.client);
    record.request = service::SummaryRequestToJson(request);
    net::HttpResponse response;
    if (client != nullptr) {
      auto sent = client->Post("/summarize", record.RequestBody(), true,
                               {{replay::kClientHeader, record.client}});
      if (!sent.ok()) {
        std::fprintf(stderr, "record: %s unreachable at seq %zu: %s\n",
                     target.c_str(), trace.records.size(),
                     sent.status().ToString().c_str());
        return 1;
      }
      response = *std::move(sent);
    } else {
      response = stack->handler->Summarize(request);
    }
    if (response.status != 200) {
      std::fprintf(stderr, "record: HTTP %d at seq %zu: %s\n",
                   response.status, trace.records.size(),
                   response.body.c_str());
      return 1;
    }
    record.status = response.status;
    record.fingerprint =
        replay::ResponseFingerprint(response.status, response.body);
    trace.records.push_back(std::move(record));
  }
  const Status written = replay::WriteTrace(path, trace);
  if (!written.ok()) {
    std::fprintf(stderr, "record: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf(
      "recorded %zu requests (%s scenario, %zu-task universe, %s) to %s\n",
      trace.size(), replay::ScenarioKindName(*kind), universe.size(),
      target.empty() ? "in-process" : target.c_str(), path.c_str());
  return 0;
}

int RunReplay(const std::string& path) {
  auto loaded = replay::LoadTrace(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "replay: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const replay::Trace trace = *std::move(loaded);
  replay::ReplayOptions options;
  options.speed = GetEnvDouble("XSUM_REPLAY_SPEED", 1.0);
  if (!(options.speed > 0.0)) {
    std::fprintf(stderr, "XSUM_REPLAY_SPEED must be > 0\n");
    return 2;
  }
  options.num_clients =
      static_cast<size_t>(GetEnvNonNegativeInt("XSUM_CLIENTS", 0));
  // Resolve the auto client count up front so the HTTP mode can build one
  // keep-alive connection per client thread.
  options.num_clients =
      replay::BuildSchedule(trace, options).clients.size();

  const std::string target = GetEnvString("XSUM_TARGET", "");
  std::unique_ptr<ServingStack> stack;
  std::vector<std::unique_ptr<net::HttpClient>> clients;
  std::function<net::HttpResponse(size_t, const replay::TraceRecord&)> issue;
  if (!target.empty()) {
    auto endpoint = service::ParseEndpoint(target);
    if (!endpoint.ok()) {
      std::fprintf(stderr, "XSUM_TARGET: %s\n",
                   endpoint.status().ToString().c_str());
      return 2;
    }
    for (size_t c = 0; c < options.num_clients; ++c) {
      clients.push_back(std::make_unique<net::HttpClient>(endpoint->first,
                                                          endpoint->second));
    }
    issue = [&clients](size_t c, const replay::TraceRecord& record) {
      auto sent = clients[c]->Post(
          "/summarize", record.RequestBody(), true,
          {{replay::kClientHeader, record.client}});
      if (!sent.ok()) {
        // Transport failures surface as a status no trace records (599),
        // so they always count as a divergence in the report.
        net::HttpResponse failure;
        failure.status = 599;
        failure.body = sent.status().ToString();
        return failure;
      }
      return *std::move(sent);
    };
  } else {
    stack = BuildStack(std::max<size_t>(options.num_clients, 1));
    if (!stack) return 1;
    issue = [&stack](size_t, const replay::TraceRecord& record) {
      const net::HttpRequest request{
          "POST", "/summarize", 1, {}, record.RequestBody(), true};
      return stack->handler->Handle(request);
    };
  }

  const replay::ReplayReport report = replay::Replay(trace, options, issue);
  std::printf(
      "replayed %llu/%zu requests at %.2gx over %zu clients (%s) in "
      "%.1f ms | p50 %.3f ms, p99 %.3f ms | max schedule lag %.1f ms\n",
      static_cast<unsigned long long>(report.issued), trace.size(),
      options.speed, options.num_clients,
      target.empty() ? "in-process" : target.c_str(), report.wall_ms,
      report.latencies_ms.Percentile(50.0),
      report.latencies_ms.Percentile(99.0), report.max_lag_ms);
  std::printf("fingerprints: %llu matched, %llu mismatched, %llu failed\n",
              static_cast<unsigned long long>(report.matched),
              static_cast<unsigned long long>(report.mismatched),
              static_cast<unsigned long long>(report.failed));
  if (!report.ok) {
    std::fprintf(stderr, "replay DIVERGED: %s\n",
                 report.first_divergence_detail.c_str());
    return 1;
  }
  return 0;
}

// --- bench -----------------------------------------------------------------

/// One forked `serve` child on an ephemeral port.
struct ShardProcess {
  pid_t pid = -1;
  uint16_t port = 0;
};

bool SpawnShard(ShardProcess* out) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // Child: banner goes to the parent through the pipe.
    dup2(pipe_fds[1], STDOUT_FILENO);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    setenv("XSUM_PORT", "0", 1);
    unsetenv("XSUM_SHARDS");  // children are shards, never routers
    execl("/proc/self/exe", "xsum_server", "serve",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  close(pipe_fds[1]);
  std::FILE* from_child = fdopen(pipe_fds[0], "r");
  char line[256];
  uint16_t port = 0;
  while (from_child != nullptr &&
         std::fgets(line, sizeof(line), from_child) != nullptr) {
    unsigned parsed = 0;
    if (std::sscanf(line, "LISTENING %u", &parsed) == 1) {
      port = static_cast<uint16_t>(parsed);
      break;
    }
  }
  // Keep the read end open: serve prints nothing further, and closing it
  // would SIGPIPE the child's shutdown banner.
  if (port == 0) {
    kill(pid, SIGKILL);
    return false;
  }
  out->pid = pid;
  out->port = port;
  return true;
}

void StopShard(const ShardProcess& shard) {
  if (shard.pid <= 0) return;
  kill(shard.pid, SIGTERM);
  int status = 0;
  waitpid(shard.pid, &status, 0);
}


int RunBench() {
  const size_t num_requests =
      static_cast<size_t>(GetEnvNonNegativeInt("XSUM_REQUESTS", 400));
  const size_t num_clients = static_cast<size_t>(
      std::max<int64_t>(1, GetEnvNonNegativeInt("XSUM_CLIENTS", 2)));
  const double skew = GetEnvDouble("XSUM_ZIPF", 1.1);
  const uint64_t seed =
      static_cast<uint64_t>(GetEnvNonNegativeInt("XSUM_SEED", 42));

  // In-process reference engine (also the router's local fallback).
  auto stack = BuildStack(num_clients);
  if (!stack) return 1;

  // Request universe: every catalog (unit, k) under ST λ=1.
  const std::vector<service::SummaryRequest> universe =
      CatalogUniverse(stack->catalog);

  std::printf("xsum_server bench: forking 2 shard processes...\n");
  ShardProcess shard_a, shard_b;
  if (!SpawnShard(&shard_a)) {
    std::fprintf(stderr, "failed to spawn shard A\n");
    return 1;
  }
  if (!SpawnShard(&shard_b)) {
    std::fprintf(stderr, "failed to spawn shard B\n");
    StopShard(shard_a);
    return 1;
  }
  std::printf("shards up on 127.0.0.1:%u and 127.0.0.1:%u\n", shard_a.port,
              shard_b.port);

  service::ShardRouter::Options router_options;
  router_options.endpoints = {
      "127.0.0.1:" + std::to_string(shard_a.port),
      "127.0.0.1:" + std::to_string(shard_b.port)};
  service::ShardRouter router(stack->handler.get(), router_options);

  const ZipfTable zipf(universe.size(), skew);
  const auto run_phase = [&](uint64_t phase_seed) {
    const size_t total = num_requests / 2;
    // One deterministic RNG per client; ReplayConcurrent runs each client
    // index on exactly one thread, so no locking is needed.
    std::vector<Rng> rngs;
    for (size_t c = 0; c < num_clients; ++c) rngs.emplace_back(phase_seed + c);
    const net::ReplayStats result = net::ReplayConcurrent(
        total, num_clients, [&](size_t c, size_t /*i*/) {
          return router.Summarize(universe[zipf.Sample(&rngs[c])]);
        });
    if (!result.ok) {
      std::fprintf(stderr, "routed request failed: HTTP %d %s\n",
                   result.error_status, result.error_body.c_str());
      // Don't orphan the forked serve children on a failed phase.
      StopShard(shard_a);
      StopShard(shard_b);
      std::exit(1);
    }
    return result;
  };

  const auto print_phase = [&](const char* name,
                               const net::ReplayStats& phase) {
    const size_t n = phase.latencies_ms.count();
    const double qps =
        phase.wall_ms > 0.0 ? 1000.0 * static_cast<double>(n) / phase.wall_ms
                            : 0.0;
    const service::RouterStats rs = router.stats();
    std::printf(
        "[%s] %zu routed requests in %.1f ms (%.0f QPS) | p50 %.3f ms, "
        "p99 %.3f ms | per-shard %llu/%llu, failovers %llu, local %llu\n",
        name, n, phase.wall_ms, qps, phase.latencies_ms.Percentile(50.0),
        phase.latencies_ms.Percentile(99.0),
        static_cast<unsigned long long>(rs.per_endpoint[0]),
        static_cast<unsigned long long>(rs.per_endpoint[1]),
        static_cast<unsigned long long>(rs.failovers),
        static_cast<unsigned long long>(rs.local));
  };

  print_phase("phase 1 / graph v1", run_phase(seed + 1000));

  // Fleet-wide hot swap through the router's /snapshot broadcast: both
  // shards and the local fallback republish the recency-weighted graph.
  const net::HttpRequest swap{"POST", "/snapshot", 1, {}, "{}", true};
  const net::HttpResponse swapped = router.Handle(swap);
  std::printf("\n-- /snapshot broadcast (hot swap to v2): %s --\n\n",
              swapped.body.c_str());

  print_phase("phase 2 / graph v2", run_phase(seed + 2000));

  // Routing invariant: routed bytes == in-process bytes, per request.
  size_t verified = 0;
  for (size_t i = 0; i < universe.size() && verified < 50; i += 3) {
    const net::HttpResponse routed = router.Summarize(universe[i]);
    const net::HttpResponse local = stack->handler->Summarize(universe[i]);
    if (routed.status != 200 || routed.body != local.body) {
      std::fprintf(stderr,
                   "FATAL: routed response differs from in-process result\n"
                   "  routed (HTTP %d): %s\n  local  (HTTP %d): %s\n",
                   routed.status, routed.body.c_str(), local.status,
                   local.body.c_str());
      StopShard(shard_a);
      StopShard(shard_b);
      return 1;
    }
    ++verified;
  }
  std::printf("\n%zu routed responses verified byte-identical to the "
              "in-process engine\n",
              verified);

  StopShard(shard_a);
  StopShard(shard_b);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  InitLogLevelFromEnv();
  const std::string mode = argc > 1 ? argv[1] : "bench";
  if (mode == "serve") return RunServe();
  if (mode == "oneshot") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: xsum_server oneshot '<json body>'\n");
      return 2;
    }
    return RunOneshot(argv[2]);
  }
  if (mode == "request") return RunRequest();
  if (mode == "bench") return RunBench();
  if (mode == "record" || mode == "replay") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: xsum_server %s <trace-file>\n",
                   mode.c_str());
      return 2;
    }
    return mode == "record" ? RunRecord(argv[2]) : RunReplay(argv[2]);
  }
  std::fprintf(stderr,
               "usage: xsum_server [bench|serve|oneshot <json>|request|"
               "record <file>|replay <file>]\n");
  return 2;
}
