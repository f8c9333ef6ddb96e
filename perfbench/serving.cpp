/// \file serving.cpp
/// \brief The serving benchmark. Stands up the production topology in one
/// process — a `service::ShardRouter` behind a `net::HttpServer`, over two
/// `service::SummaryHandler` shards on loopback HTTP, each shard with its
/// own registry and service as separate processes would have — at the
/// paper's §V-A scale (scale 1.0, 200 sampled users, 100 items, user and
/// item groups; dataset seed 42), and drives it with one seeded workload:
///
///   hot-read    closed loop, one client per core, each sending the next
///               request of a Zipf(1.1) stream over a hot set cached on
///               both replicas before timing; every request is a hit
///   cold-sweep  closed loop, one client per core, each walking k = 1..10
///               of the next unit chain; every request computes
///   refresh     open loop, Poisson arrivals at a fixed rate over the
///               hot set, plus a fleet-wide POST /snapshot through the
///               router at the start of every window after the first,
///               alternating the base and the recency-weighted graph
///
/// BENCHMARK.json lists hot-read and cold-sweep. refresh runs on demand:
/// each publish stalls the three client connections behind the refill for
/// 0.1-1 s, and its p99 moves by ~30% between runs, more than any bound a
/// regression gate may use.
///
/// hot-read is a closed loop, not an open one below saturation. In an
/// open loop at 400/s the cores idle between requests, and a cached
/// request's latency is mostly the time to wake the five threads it
/// passes through (client, router worker, hedge thread, shard worker,
/// router worker again): p50 read ~0.5 ms against ~0.13 ms with the
/// threads busy, and it moved by 12-27% between sets of runs as the
/// host's load drifted. Kept busy, the same path measures the program.
///
/// Usage:
///   perfbench_serving --workload NAME --seed N --seconds S --trace 0|1
///                    [--out-dir DIR]
///
/// Every layer is measured from outside: the benchmark times its own calls
/// into each layer's public functions and reads the counters the fleet
/// serves on /stats. With --trace 1 it first runs the workload untraced
/// (for the tracing overhead), then traced — spans at the client call, the
/// router server callback and each shard server callback, joined on the
/// X-Xsum-Trace ID — and finishes with a single-threaded attribution pass
/// over the lower layers; the spans are written to DIR when the run ends.
/// Every response byte is verified (repeats against the key's first
/// answer, first answers against an in-process `core::Summarize` +
/// `service::SummaryToJson` reference).
///
/// The last stdout line is one JSON object {correct, attempted, failed,
/// metrics}: the end-to-end metrics with --trace 0, the per-layer ones
/// with --trace 1. A wrong response byte or an invalid run (open-loop
/// generator lag over its bound, too few samples for p99) exits nonzero
/// without it.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch.h"
#include "core/cost_transform.h"
#include "core/cost_views.h"
#include "core/incremental.h"
#include "core/scenario.h"
#include "core/summarizer.h"
#include "core/weight_adjust.h"
#include "data/kg_builder.h"
#include "eval/eval_stats.h"
#include "eval/experiment.h"
#include "eval/runner.h"
#include "graph/dijkstra.h"
#include "graph/search_workspace.h"
#include "load.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "obs/trace.h"
#include "service/handler.h"
#include "service/service.h"
#include "service/shard_router.h"
#include "service/snapshot_registry.h"
#include "util/rng.h"
#include "util/sync.h"

using namespace xsum;
namespace pb = perfbench;

namespace {

using Clock = std::chrono::steady_clock;

// --- fixed configuration ----------------------------------------------------

constexpr int kMaxK = 10;
/// Server workers of the router and service slots per shard: the serving
/// defaults (`xsum_server serve`).
constexpr size_t kServerWorkers = 4;
/// Server workers of each shard's HTTP front. A worker owns a connection
/// for its whole keep-alive life, and the router pools up to eight idle
/// connections per shard on top of its in-flight attempts and hedge
/// stragglers. With the default four, those pin every shard worker during
/// a refill, and a fresh connection (a probe, a /snapshot broadcast, a
/// failover) waits in the accept queue until the 5 s idle timeout frees
/// one: broadcasts are shed with 503 and attempts stall for 5 s. One
/// worker per connection the router can hold keeps every request served;
/// compute concurrency stays at the four service slots.
constexpr size_t kShardConnWorkers = 16;
/// The shards listen on these ports when they are free. The router's ring
/// hashes each shard's "host:port", so fixed ports give every run the same
/// key placement; on ephemeral ports a run's placement, and with it its
/// per-shard load, is a lottery.
constexpr std::array<uint16_t, 2> kShardPorts = {47311, 47312};
/// Hot set of 64 keys in Zipf rank order. G is a PCST key of a user or
/// item group (alternating), X a PCST key of one user or item
/// (alternating), S an ST key (Mehlhorn, λ = 1, the wire default) of the
/// next scenario. A hit on an X summary, and on three G summaries (layout
/// positions 5, 43 and 50, counted from 0), costs ~5-7 ms of evaluation
/// and rendering in the handler, every other hit well under 0.1 ms. A miss on a group's ST key
/// computes for ~850 ms, on a single user's or item's ~150 ms, every
/// other miss ~20-90 ms; the group ST keys therefore take the two last
/// ranks, so a refresh refill meets them about once per publish instead
/// of stalling every client behind them. The expensive hits draw ~7.5% of
/// the traffic and ~80% of the CPU: p50 sits inside the cheap mode, p99
/// inside the expensive one, and throughput weighs both.
constexpr size_t kHotKeys = 64;
constexpr char kHotLayout[] =
    "GGSGGGGGGGGGSGGGXGGGGGGGGGXGGGGGGGGGXGGGGGGGGGXGGGGGGGGGXGGGGGSS";
static_assert(sizeof(kHotLayout) - 1 == kHotKeys);
constexpr double kZipfSkew = 1.1;
/// Length of hot-read's request stream per second of run: four times
/// what the 4-vCPU reference box serves (~5,000/s), so the stream never
/// runs out before the clock does.
constexpr double kHotStreamPerSecond = 20000.0;
/// Offered rate of refresh, a fraction of hot-read's capacity: the
/// client connections are mostly idle and latency measures service.
constexpr double kRefreshRateRps = 400.0;
/// The dataset, graph and recommender build dominates set-up and moves
/// with machine noise: it runs this many times and setup_s counts the
/// median build.
constexpr int kSetupRepeats = 3;
/// cold-sweep: the fixed order's seed, the chains at its head whose
/// order the workload seed draws, the chains at its tail kept out of the
/// stream to warm the fleet, and the share of completed requests checked
/// against the reference.
constexpr uint64_t kColdOrderSeed = 42;
constexpr size_t kColdSeededChains = 102;
constexpr size_t kColdWarmUnits = 6;
constexpr double kColdVerifyShare = 0.10;
/// hot-read and refresh phases are cut into this many equal windows (3 s
/// each in a 30 s run: ~15,000 samples in hot-read, ~1,200 in refresh)
/// and report the median window, so a burst of machine noise shorter
/// than half the run moves no metric; refresh publishes at the start of
/// every window after the first. cold-sweep, whose samples barely
/// support p99 over the whole phase, is one window.
constexpr size_t kWindows = 10;
/// A closed-loop phase runs past its --seconds until it holds this many
/// samples, the fewest that leave ten beyond p99.
constexpr size_t kMinSamples = 1000;
/// An open-loop run whose generator lag p99 exceeds this is invalid.
constexpr double kLagBoundMs = 25.0;
/// Closure tolerance of the hot-read attribution check: 25%, or 0.05 ms
/// when larger. Attribution replays each call in a warm single-threaded
/// loop, while a served request runs on a worker that has just woken on a
/// busy core; on the reference box that costs ~0.04 ms per request (a
/// cached SummaryHandler::Handle takes 0.012 ms in the loop, 0.053 ms in
/// the fleet).
constexpr double kClosureTolerance = 0.25;
constexpr double kClosureSlackMs = 0.05;

Clock::time_point g_epoch;

double NowMs() {
  return std::chrono::duration<double, std::milli>(Clock::now() - g_epoch)
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Resident set of this process in MiB (VmRSS; 0 when /proc is
/// unavailable).
double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(stdout);
  std::exit(1);
}

/// Runs \p fn(i) for i in [0, n) on \p threads threads.
void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

// --- arguments ----------------------------------------------------------------

enum class Workload { kHotRead, kColdSweep, kRefresh };

struct Args {
  Workload workload = Workload::kHotRead;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload_name = value;
      have_workload = true;
      if (value == "hot-read") {
        args.workload = Workload::kHotRead;
      } else if (value == "cold-sweep") {
        args.workload = Workload::kColdSweep;
      } else if (value == "refresh") {
        args.workload = Workload::kRefresh;
      } else {
        Die("unknown workload: " + value);
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Die("unknown flag: " + flag);
    }
  }
  if (!have_workload || !(args.seconds > 0.0)) {
    Die("usage: perfbench_serving --workload hot-read|cold-sweep|refresh "
        "--seed N --seconds S --trace 0|1 [--out-dir DIR]");
  }
  return args;
}

// --- dataset, graphs and task catalog -----------------------------------------

struct Fixture {
  std::unique_ptr<eval::ExperimentRunner> runner;
  std::shared_ptr<const data::RecGraph> base;
  /// The recency-weighted graph `xsum_server` publishes (β2 = 1).
  std::shared_ptr<const data::RecGraph> refresh;
  service::TaskCatalog catalog;
  /// Catalog units per scenario, in `core::Scenario` order.
  std::array<std::vector<uint32_t>, 4> units;
  double graph_s = 0.0;
  double recommend_s = 0.0;

  /// Snapshot versions alternate base (odd) and refresh (even): version 1
  /// is the initial publish and every /snapshot flips the graph.
  const data::RecGraph& GraphFor(uint64_t version) const {
    return version % 2 == 1 ? *base : *refresh;
  }
};

std::unique_ptr<Fixture> BuildFixture() {
  auto fx = std::make_unique<Fixture>();
  const double t0 = NowMs();
  eval::ExperimentConfig config;
  config.scale = 1.0;
  config.seed = 42;
  config.users_per_gender = 100;
  config.items_popular = 50;
  config.items_unpopular = 50;
  config.use_summary_cache = false;
  fx->runner = std::make_unique<eval::ExperimentRunner>(config);
  const Status init = fx->runner->Init();
  if (!init.ok()) Die("dataset: " + init.ToString());
  fx->base = service::GraphSnapshotRegistry::Alias(fx->runner->rec_graph());
  data::WeightParams refresh_params;
  refresh_params.beta2 = 1.0;
  refresh_params.t0 = fx->runner->dataset().t0;
  auto refresh = data::BuildRecGraph(fx->runner->dataset(), refresh_params);
  if (!refresh.ok()) Die("refresh graph: " + refresh.status().ToString());
  fx->refresh = std::make_shared<const data::RecGraph>(
      std::move(refresh).ValueOrDie());
  const double t1 = NowMs();
  fx->graph_s = (t1 - t0) / 1000.0;

  auto baseline = fx->runner->ComputeBaseline(rec::RecommenderKind::kPgpr);
  if (!baseline.ok()) Die("baseline: " + baseline.status().ToString());
  const data::RecGraph& graph = *fx->base;
  for (const core::UserRecs& ur : baseline->users) {
    fx->catalog.AddUserCentric(graph, ur, kMaxK);
    fx->units[0].push_back(ur.user);
  }
  for (const core::ItemAudience& item : baseline->items) {
    for (int k = 1; k <= kMaxK; ++k) {
      fx->catalog.Add(core::Scenario::kItemCentric, item.item, k,
                      core::MakeItemCentricTask(graph, item.item,
                                                item.audience, k));
    }
    fx->units[1].push_back(item.item);
  }
  for (uint32_t g = 0; g < baseline->user_groups.size(); ++g) {
    for (int k = 1; k <= kMaxK; ++k) {
      fx->catalog.Add(core::Scenario::kUserGroup, g, k,
                      core::MakeUserGroupTask(graph,
                                              baseline->user_groups[g], k));
    }
    fx->units[2].push_back(g);
  }
  for (uint32_t g = 0; g < baseline->item_groups.size(); ++g) {
    for (int k = 1; k <= kMaxK; ++k) {
      fx->catalog.Add(core::Scenario::kItemGroup, g, k,
                      core::MakeItemGroupTask(graph,
                                              baseline->item_groups[g], k));
    }
    fx->units[3].push_back(g);
  }
  for (const auto& units : fx->units) {
    if (units.empty()) Die("a scenario has no units at this scale");
  }
  fx->recommend_s = (NowMs() - t1) / 1000.0;
  return fx;
}

// --- request keys ---------------------------------------------------------------

/// Method labels of the per-method metrics.
enum MethodIndex { kKmb = 0, kMehlhorn = 1, kPcst = 2 };

struct Key {
  service::SummaryRequest request;
  std::string body;  ///< the wire form the fleet receives
  int method = kMehlhorn;
};

Key MakeKey(core::Scenario scenario, uint32_t unit, int k, int method,
            int prev_k) {
  Key key;
  key.request.scenario = scenario;
  key.request.unit = unit;
  key.request.k = k;
  key.request.lambda = 1.0;
  key.request.prev_k = prev_k;
  key.method = method;
  if (method == kPcst) {
    key.request.method = core::SummaryMethod::kPcst;
  } else {
    key.request.method = core::SummaryMethod::kSteiner;
    key.request.variant = method == kKmb
                              ? core::SteinerOptions::Variant::kKmb
                              : core::SteinerOptions::Variant::kMehlhorn;
  }
  key.body = service::SummaryRequestToJson(key.request).Dump();
  return key;
}

/// The hot set in Zipf rank order. A fixed function of the dataset, so
/// every seed draws from the same keys with the same popularity; the seed
/// moves the draws and arrival times only.
std::vector<Key> HotKeys(const Fixture& fx) {
  std::vector<Key> keys;
  // Each (method, scenario) walks its own (unit, k) grid: c -> unit
  // c mod U, k shifted by one per pass, distinct for c < U * kMaxK.
  std::array<std::array<size_t, 4>, 2> cursor{};
  const auto add = [&](size_t s, int method) {
    const std::vector<uint32_t>& units = fx.units[s];
    const size_t c = cursor[method == kPcst ? 1 : 0][s]++;
    const size_t u = units.size();
    const int k = 1 + static_cast<int>((c / u + 3 * (c % u)) % kMaxK);
    keys.push_back(MakeKey(static_cast<core::Scenario>(s), units[c % u], k,
                           method, 0));
  };
  size_t st = 0, group = 0, single = 0;
  for (size_t rank = 0; rank < kHotKeys; ++rank) {
    const char slot = kHotLayout[rank];
    if (slot == 'S') {
      add(st++, kMehlhorn);
    } else if (slot == 'X') {
      add(single++ % 2, kPcst);  // user-centric, item-centric
    } else {
      add(2 + group++ % 2, kPcst);  // user-group, item-group
    }
  }
  return keys;
}

/// cold-sweep: every (unit, method) chain of the catalog in a fixed,
/// stratified order — each method's chains shuffled within each scenario,
/// the scenarios interleaved in proportion to their sizes, the three
/// methods taken in turn — so every prefix keeps the catalog's method and
/// scenario mix. Unit costs differ several-fold, so the seed only orders
/// the first `kColdSeededChains` chains, a few more than any run gets
/// through (a run needs ~100 for its 1,000 samples): every seed then
/// sweeps nearly the same units in its own order and interleaving. Key
/// index = chain * kMaxK + (k − 1). The last `kColdWarmUnits` chains warm
/// the fleet and never enter the stream.
struct ColdPlan {
  std::vector<Key> keys;
  size_t stream_chains = 0;
};

ColdPlan ColdKeys(const Fixture& fx, uint64_t seed) {
  struct Chain {
    double position;  ///< (rank within its scenario + 0.5) / scenario size
    core::Scenario scenario;
    uint32_t unit;
    int method;
  };
  std::array<std::vector<Chain>, 3> by_method;
  for (const int m : {kKmb, kMehlhorn, kPcst}) {
    for (size_t s = 0; s < 4; ++s) {
      const std::vector<uint32_t>& units = fx.units[s];
      const std::vector<uint32_t> order = pb::SeededOrder(
          static_cast<uint32_t>(units.size()), kColdOrderSeed + m * 4 + s);
      for (size_t r = 0; r < order.size(); ++r) {
        by_method[m].push_back(
            {(static_cast<double>(r) + 0.5) / static_cast<double>(units.size()),
             static_cast<core::Scenario>(s), units[order[r]], m});
      }
    }
    std::stable_sort(by_method[m].begin(), by_method[m].end(),
                     [](const Chain& a, const Chain& b) {
                       return a.position < b.position;
                     });
  }
  std::vector<Chain> chains;
  for (size_t i = 0; i < by_method[0].size(); ++i) {
    for (const auto& method_chains : by_method) {
      chains.push_back(method_chains[i]);
    }
  }
  const size_t seeded = std::min(kColdSeededChains, chains.size());
  const std::vector<uint32_t> head =
      pb::SeededOrder(static_cast<uint32_t>(seeded), seed);
  ColdPlan plan;
  for (size_t i = 0; i < chains.size(); ++i) {
    const Chain& chain = chains[i < seeded ? head[i] : i];
    for (int k = 1; k <= kMaxK; ++k) {
      plan.keys.push_back(
          MakeKey(chain.scenario, chain.unit, k, chain.method, k - 1));
    }
  }
  plan.stream_chains = chains.size() - kColdWarmUnits;
  return plan;
}

// --- spans ---------------------------------------------------------------------------

struct Span {
  uint64_t trace_id = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  /// The server's queue-wait stamp; 0 for requests on a connection a
  /// worker already owned.
  double queue_ms = 0.0;
};

/// In-memory span sink for one layer; written out when the run ends.
class SpanLog {
 public:
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Add(const Span& span) {
    sync::MutexLock lock(mu_);
    spans_.push_back(span);
  }
  std::vector<Span> Take() {
    sync::MutexLock lock(mu_);
    return std::move(spans_);
  }

 private:
  std::atomic<bool> enabled_{false};
  sync::Mutex mu_;
  std::vector<Span> spans_ XSUM_GUARDED_BY(mu_);
};

/// Wraps a server callback with a span around every /summarize request.
net::HttpServer::Handler Spanned(
    SpanLog* log, std::function<net::HttpResponse(const net::HttpRequest&)>
                      inner) {
  return [log, inner = std::move(inner)](const net::HttpRequest& request) {
    if (!log->enabled() || request.target != "/summarize") {
      return inner(request);
    }
    Span span;
    span.start_ms = NowMs();
    net::HttpResponse response = inner(request);
    span.end_ms = NowMs();
    if (const std::string* id = request.FindHeader(obs::kTraceHeaderLower)) {
      obs::ParseTraceId(*id, &span.trace_id);
    }
    if (const std::string* wait = request.FindHeader(net::kQueueWaitHeader)) {
      span.queue_ms = std::strtod(wait->c_str(), nullptr);
    }
    log->Add(span);
    return response;
  };
}

// --- the fleet -----------------------------------------------------------------------

net::HttpServer::Options ServingServerOptions() {
  net::HttpServer::Options options;
  options.num_workers = kServerWorkers;
  options.max_pending = 256;    // XSUM_MAX_QUEUE default
  options.queue_budget_ms = 250;  // XSUM_QUEUE_MS default
  return options;
}

struct Shard {
  service::GraphSnapshotRegistry registry;
  std::unique_ptr<service::SummaryService> service;
  std::unique_ptr<service::SummaryHandler> handler;
  std::unique_ptr<net::HttpServer> server;
  std::atomic<uint64_t> publishes{0};
  SpanLog spans;
};

class Fleet {
 public:
  explicit Fleet(const Fixture& fx) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      std::unique_ptr<Shard>& shard = shards_[i];
      shard = std::make_unique<Shard>();
      Shard* s = shard.get();
      s->registry.Publish(fx.base);
      service::ServiceOptions options;
      options.num_workers = kServerWorkers;
      options.cache.max_bytes = size_t{64} << 20;  // XSUM_CACHE_MB default
      s->service =
          std::make_unique<service::SummaryService>(&s->registry, options);
      s->handler = std::make_unique<service::SummaryHandler>(
          s->service.get(), &fx.catalog, [s, &fx]() -> Result<uint64_t> {
            const uint64_t n = ++s->publishes;
            return s->registry.Publish(n % 2 == 1 ? fx.refresh : fx.base);
          });
      net::HttpServer::Options server_options = ServingServerOptions();
      server_options.num_workers = kShardConnWorkers;
      server_options.metrics = s->service->metrics_registry();
      const auto handle = [s](const net::HttpRequest& r) {
        return s->handler->Handle(r);
      };
      s->handler->set_extra_stats([s](net::JsonValue* json) {
        json->Set("queue_depth", s->server->queue_depth());
        json->Set("requests_shed", s->server->requests_shed());
      });
      server_options.port = kShardPorts[i];
      s->server = std::make_unique<net::HttpServer>(
          Spanned(&s->spans, handle), server_options);
      if (!s->server->Start().ok()) {
        std::fprintf(stderr,
                     "perfbench: port %u busy; shard %zu on an ephemeral "
                     "port, so key placement differs from other runs\n",
                     kShardPorts[i], i);
        server_options.port = 0;
        s->server = std::make_unique<net::HttpServer>(
            Spanned(&s->spans, handle), server_options);
        const Status started = s->server->Start();
        if (!started.ok()) Die("shard start: " + started.ToString());
      }
    }
    service::ShardRouter::Options router_options;
    for (const auto& shard : shards_) {
      router_options.endpoints.push_back(
          "127.0.0.1:" + std::to_string(shard->server->port()));
    }
    router_ = std::make_unique<service::ShardRouter>(nullptr, router_options);
    router_server_ = std::make_unique<net::HttpServer>(
        Spanned(&router_spans_,
                [this](const net::HttpRequest& r) { return router_->Handle(r); }),
        ServingServerOptions());
    const Status started = router_server_->Start();
    if (!started.ok()) Die("router start: " + started.ToString());
  }

  ~Fleet() {
    router_server_->Stop();
    router_.reset();
    for (auto& shard : shards_) shard->server->Stop();
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  uint16_t router_port() const { return router_server_->port(); }
  Shard& shard(size_t i) { return *shards_[i]; }
  size_t num_shards() const { return shards_.size(); }
  service::ShardRouter& router() { return *router_; }
  SpanLog& router_spans() { return router_spans_; }

  void set_spans(bool enabled) {
    router_spans_.set_enabled(enabled);
    for (auto& shard : shards_) shard->spans.set_enabled(enabled);
  }

  /// Requests shed by admission control, fleet-wide.
  uint64_t shed() const {
    uint64_t total = router_server_->requests_shed();
    for (const auto& shard : shards_) total += shard->server->requests_shed();
    return total;
  }

  /// Builds the current snapshot's lazy cost views on every shard.
  void BuildViews() {
    ParallelFor(shards_.size() * 2, shards_.size() * 2, [&](size_t i) {
      const service::GraphSnapshot snap = shards_[i / 2]->registry.Current();
      snap.views->ForMode(i % 2 == 0 ? core::CostMode::kWeightAwareLog
                                     : core::CostMode::kUnit);
    });
  }

 private:
  std::array<std::unique_ptr<Shard>, 2> shards_;
  SpanLog router_spans_;
  std::unique_ptr<service::ShardRouter> router_;
  std::unique_ptr<net::HttpServer> router_server_;
};

/// One /stats document, read through the endpoint's own handler.
net::JsonValue ReadStats(const std::function<net::HttpResponse(
                             const net::HttpRequest&)>& handle) {
  net::HttpRequest request;
  request.method = "GET";
  request.target = "/stats";
  auto json = net::ParseJson(handle(request).body);
  if (!json.ok()) Die("unparseable /stats");
  return *std::move(json);
}

double Field(const net::JsonValue& json, const char* section,
             const char* name) {
  const net::JsonValue* scope = section ? json.Find(section) : &json;
  const net::JsonValue* value = scope ? scope->Find(name) : nullptr;
  return value != nullptr && value->is_number() ? value->AsDouble() : 0.0;
}

struct Counters {
  // shard /stats, summed over shards
  double requests = 0, computed = 0, incremental = 0, coalesced = 0,
         hits = 0, misses = 0, cache_bytes = 0;
  std::array<double, 2> per_shard{};
  // router /stats
  double routed = 0, hedges = 0, hedge_wins = 0, failovers = 0;
  uint64_t shed = 0;
};

Counters ReadCounters(Fleet& fleet) {
  Counters c;
  for (size_t i = 0; i < fleet.num_shards(); ++i) {
    service::SummaryHandler* handler = fleet.shard(i).handler.get();
    const net::JsonValue json = ReadStats(
        [handler](const net::HttpRequest& r) { return handler->Handle(r); });
    c.requests += Field(json, nullptr, "requests");
    c.per_shard[i] = Field(json, nullptr, "requests");
    c.computed += Field(json, nullptr, "computed");
    c.incremental += Field(json, nullptr, "incremental");
    c.coalesced += Field(json, nullptr, "coalesced");
    c.hits += Field(json, "cache", "hits");
    c.misses += Field(json, "cache", "misses");
    c.cache_bytes += Field(json, "cache", "bytes");
  }
  service::ShardRouter* router = &fleet.router();
  const net::JsonValue json = ReadStats(
      [router](const net::HttpRequest& r) { return router->Handle(r); });
  c.routed = Field(json, "router", "routed");
  c.hedges = Field(json, "router", "hedges");
  c.hedge_wins = Field(json, "router", "hedge_wins");
  c.failovers = Field(json, "router", "failovers");
  c.shed = fleet.shed();
  return c;
}

// --- byte verification -----------------------------------------------------------

/// The `snapshot_version` a /summarize body reports (0 if absent).
uint64_t BodyVersion(const std::string& body) {
  static constexpr char kField[] = "\"snapshot_version\":";
  const size_t at = body.find(kField);
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + sizeof(kField) - 1, nullptr, 10);
}

/// First answer per (key, snapshot version); every later answer must
/// match it byte for byte.
class AnswerBook {
 public:
  using Slot = std::pair<uint32_t, uint64_t>;

  /// Records \p body as the first answer of its slot, or compares it with
  /// the recorded one.
  bool Check(uint32_t key, uint64_t version, std::string body) {
    std::shared_ptr<const std::string> first;
    {
      sync::MutexLock lock(mu_);
      auto [it, inserted] = first_.try_emplace(Slot{key, version});
      if (inserted) {
        it->second = std::make_shared<const std::string>(std::move(body));
        return true;
      }
      first = it->second;
    }
    return *first == body;
  }

  std::map<Slot, std::shared_ptr<const std::string>> Firsts() {
    sync::MutexLock lock(mu_);
    return first_;
  }

 private:
  sync::Mutex mu_;
  std::map<Slot, std::shared_ptr<const std::string>> first_
      XSUM_GUARDED_BY(mu_);
};

// --- one timed phase ---------------------------------------------------------------

struct Sample {
  uint32_t key = 0;
  double due_ms = 0.0;   ///< open loop: schedule; closed loop: send
  double send_ms = 0.0;
  double done_ms = 0.0;
  /// Open loop: sent after its due time because every client was busy.
  bool backlogged = false;
  /// How late the generator sent it: open loop, send minus due time when
  /// a client was free at the due time; closed loop, send minus the
  /// client's previous completion. Negative when not defined.
  double lag_ms = -1.0;
  uint64_t version = 0;
  uint64_t trace_id = 0;
  pb::Outcome outcome = pb::Outcome::kOk;
};

/// Samples the process while a phase runs: CPU time at each window
/// boundary and the largest resident set seen in each window (VmRSS every
/// 50 ms).
class PhaseMonitor {
 public:
  PhaseMonitor(double t0_ms, double window_ms, size_t windows)
      : t0_ms_(t0_ms),
        window_ms_(window_ms),
        cpu_(windows + 1, -1.0),
        rss_mb_(windows, 0.0),
        thread_([this] { Loop(); }) {}
  ~PhaseMonitor() { Finish(); }
  PhaseMonitor(const PhaseMonitor&) = delete;
  PhaseMonitor& operator=(const PhaseMonitor&) = delete;

  /// Stops sampling; the last window closes now.
  void Finish() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
  }
  /// CPU seconds spent in each window (after Finish).
  std::vector<double> WindowCpu() const {
    std::vector<double> cpu;
    for (size_t w = 0; w + 1 < cpu_.size(); ++w) {
      cpu.push_back(cpu_[w + 1] - cpu_[w]);
    }
    return cpu;
  }
  /// Largest resident set seen in each window, MiB (after Finish).
  const std::vector<double>& WindowRss() const { return rss_mb_; }

 private:
  void Loop() {
    const size_t windows = rss_mb_.size();
    cpu_[0] = CpuSeconds();
    size_t recorded = 0;
    while (!stop_.load()) {
      const size_t w = std::min(
          windows - 1, static_cast<size_t>(std::max(
                           0.0, (NowMs() - t0_ms_) / window_ms_)));
      for (; recorded < w; ++recorded) cpu_[recorded + 1] = CpuSeconds();
      rss_mb_[w] = std::max(rss_mb_[w], RssMb());
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    const double end = CpuSeconds();
    for (; recorded < windows; ++recorded) cpu_[recorded + 1] = end;
  }

  const double t0_ms_;
  const double window_ms_;
  std::vector<double> cpu_;
  std::vector<double> rss_mb_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it uses
};

struct PhaseResult {
  std::vector<Sample> samples;
  double t0_ms = 0.0;
  double window_ms = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> window_cpu_s;
  std::vector<double> window_rss_mb;
  std::vector<double> publish_ms;
  Counters before, after;
  std::vector<Span> router_spans;
  std::array<std::vector<Span>, 2> shard_spans;
};

struct Runner {
  Fleet& fleet;
  const std::vector<Key>& keys;
  AnswerBook& book;
  size_t clients;
  uint64_t trace_tag;  ///< high bits of this phase's trace IDs

  net::HttpClient::Options ClientOptions() const {
    net::HttpClient::Options options;
    options.timeout_ms = 60000;
    return options;
  }

  /// Sends key \p k as request \p sequence of the phase and fills the
  /// outcome fields of \p sample.
  void Send(net::HttpClient& client, uint32_t k, uint64_t sequence,
            Sample* sample) const {
    sample->key = k;
    sample->trace_id = trace_tag | sequence;
    sample->send_ms = NowMs();
    auto response = client.Post(
        "/summarize", keys[k].body, true,
        {{obs::kTraceHeader, obs::TraceIdToHex(sample->trace_id)}});
    sample->done_ms = NowMs();
    if (!response.ok()) {
      sample->outcome = pb::Classify(false, 0, false);
      return;
    }
    bool match = false;
    if (response->status == 200) {
      sample->version = BodyVersion(response->body);
      match = book.Check(k, sample->version, std::move(response->body));
    }
    sample->outcome = pb::Classify(true, response->status, match);
  }

  void Begin(PhaseResult* result, bool traced) const {
    fleet.set_spans(traced);
    result->before = ReadCounters(fleet);
    result->cpu_s = CpuSeconds();
  }

  void End(PhaseResult* result, PhaseMonitor* monitor) const {
    monitor->Finish();
    result->wall_s = (NowMs() - result->t0_ms) / 1000.0;
    result->cpu_s = CpuSeconds() - result->cpu_s;
    result->window_cpu_s = monitor->WindowCpu();
    result->window_rss_mb = monitor->WindowRss();
    result->after = ReadCounters(fleet);
    fleet.set_spans(false);
    result->router_spans = fleet.router_spans().Take();
    for (size_t i = 0; i < fleet.num_shards(); ++i) {
      result->shard_spans[i] = fleet.shard(i).spans.Take();
    }
  }

  /// Open loop over \p schedule, cut into \p windows, while a publisher
  /// posts /snapshot through the router at the start of every window
  /// after the first.
  PhaseResult OpenLoop(const std::vector<pb::Arrival>& schedule,
                       double seconds, size_t windows, bool traced) const {
    PhaseResult result;
    result.samples.resize(schedule.size());
    Begin(&result, traced);
    const double t0 = NowMs() + 20.0;
    result.t0_ms = t0;
    result.window_ms = seconds * 1000.0 / static_cast<double>(windows);
    PhaseMonitor monitor(t0, result.window_ms, windows);
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        net::HttpClient client("127.0.0.1", fleet.router_port(),
                               ClientOptions());
        for (size_t i = next++; i < schedule.size(); i = next++) {
          Sample& sample = result.samples[i];
          sample.due_ms = t0 + static_cast<double>(schedule[i].due_us) / 1e3;
          const double now = NowMs();
          if (now < sample.due_ms) {
            std::this_thread::sleep_until(
                g_epoch + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  sample.due_ms)));
          } else {
            sample.backlogged = true;
          }
          Send(client, schedule[i].key, i + 1, &sample);
          if (!sample.backlogged) sample.lag_ms = sample.send_ms - sample.due_ms;
        }
      });
    }
    threads.emplace_back([&] {
      for (size_t w = 1; w < windows; ++w) {
        // A fresh connection per publish: /snapshot is not idempotent,
        // so it must not ride one the router reaped while idle.
        net::HttpClient client("127.0.0.1", fleet.router_port(),
                               ClientOptions());
        const double at = t0 + static_cast<double>(w) * result.window_ms;
        std::this_thread::sleep_until(
            g_epoch + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(at)));
        const double start = NowMs();
        auto response = client.Post("/snapshot", "{}", false);
        if (!response.ok() || response->status != 200) {
          Die("/snapshot broadcast failed");
        }
        result.publish_ms.push_back(NowMs() - start);
      }
    });
    for (std::thread& thread : threads) thread.join();
    End(&result, &monitor);
    return result;
  }

  /// Closed loop, cut into \p windows: each client takes the next run
  /// from \p *next_run (of \p num_runs) and sends its keys
  /// `key_of(run, 0 .. run_length - 1)` in order, each once the previous
  /// answer arrived, until \p seconds have elapsed and the phase holds
  /// `kMinSamples` samples.
  PhaseResult ClosedLoop(std::atomic<size_t>* next_run, size_t num_runs,
                         int run_length,
                         const std::function<uint32_t(size_t, int)>& key_of,
                         double seconds, size_t windows, bool traced) const {
    PhaseResult result;
    Begin(&result, traced);
    const double t0 = NowMs();
    const double stop = t0 + seconds * 1000.0;
    result.t0_ms = t0;
    result.window_ms = seconds * 1000.0 / static_cast<double>(windows);
    PhaseMonitor monitor(t0, result.window_ms, windows);
    std::vector<std::vector<Sample>> per_client(clients);
    std::vector<std::thread> threads;
    std::atomic<uint64_t> sequence{0};
    const auto running = [&] {
      return NowMs() < stop || sequence.load() < kMinSamples;
    };
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        net::HttpClient client("127.0.0.1", fleet.router_port(),
                               ClientOptions());
        double last_done_ms = -1.0;
        while (running()) {
          const size_t run = (*next_run)++;
          if (run >= num_runs) break;
          for (int i = 0; i < run_length && running(); ++i) {
            Sample sample;
            Send(client, key_of(run, i), ++sequence, &sample);
            sample.due_ms = sample.send_ms;
            if (last_done_ms >= 0.0) {
              sample.lag_ms = sample.send_ms - last_done_ms;
            }
            last_done_ms = sample.done_ms;
            per_client[c].push_back(sample);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    End(&result, &monitor);
    for (auto& samples : per_client) {
      result.samples.insert(result.samples.end(), samples.begin(),
                            samples.end());
    }
    return result;
  }
};

// --- verification ------------------------------------------------------------------

struct Verification {
  size_t distinct = 0;  ///< distinct (key, version) answers served
  size_t checked = 0;   ///< of those, compared with the reference
  size_t wrong = 0;
};

/// Repeats were compared with their slot's first answer as they came in;
/// here every first answer (hot workloads) or a seeded share of them
/// (cold-sweep) is compared with a fresh in-process `core::Summarize` +
/// `service::SummaryToJson` reference. A summary depends only on the
/// snapshot's graph, so each (key, graph) is summarized once and rendered
/// at every version it was served under. Requests whose slot is wrong are
/// re-counted as mismatches in \p phases.
Verification Verify(const Fixture& fx, const std::vector<Key>& keys,
                    AnswerBook* book, bool hot, uint64_t seed,
                    size_t threads, std::vector<PhaseResult*> phases) {
  const auto firsts = book->Firsts();
  std::vector<std::pair<AnswerBook::Slot, std::shared_ptr<const std::string>>>
      to_check;
  Rng sampler(seed ^ 0x5EEDF00Dull);
  for (const auto& entry : firsts) {
    if (hot || sampler.UniformDouble() < kColdVerifyShare) {
      to_check.push_back(entry);
    }
  }
  // (key, graph parity) -> indices into to_check.
  std::map<std::pair<uint32_t, uint64_t>, std::vector<size_t>> by_graph;
  for (size_t i = 0; i < to_check.size(); ++i) {
    const AnswerBook::Slot& slot = to_check[i].first;
    by_graph[{slot.first, slot.second % 2}].push_back(i);
  }
  std::vector<const std::vector<size_t>*> groups;
  for (const auto& entry : by_graph) groups.push_back(&entry.second);
  std::vector<char> ok(to_check.size(), 1);
  ParallelFor(groups.size(), threads, [&](size_t g) {
    const std::vector<size_t>& members = *groups[g];
    const AnswerBook::Slot& first = to_check[members.front()].first;
    const Key& key = keys[first.first];
    const core::SummaryTask* task = fx.catalog.Find(
        key.request.scenario, key.request.unit, key.request.k);
    auto summary = core::Summarize(fx.GraphFor(first.second), *task,
                                   service::RequestOptions(key.request));
    if (!summary.ok()) Die("reference: " + summary.status().ToString());
    for (const size_t i : members) {
      ok[i] = service::SummaryToJson(*summary, to_check[i].first.second) ==
              *to_check[i].second;
    }
  });
  std::set<AnswerBook::Slot> bad;
  for (size_t i = 0; i < to_check.size(); ++i) {
    if (!ok[i]) bad.insert(to_check[i].first);
  }
  for (PhaseResult* phase : phases) {
    for (Sample& s : phase->samples) {
      if (s.outcome == pb::Outcome::kOk && bad.count({s.key, s.version})) {
        s.outcome = pb::Outcome::kMismatch;
      }
    }
  }
  return {firsts.size(), to_check.size(), bad.size()};
}

// --- metrics ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::vector<double> Latencies(const PhaseResult& phase) {
  std::vector<double> ms;
  for (const Sample& s : phase.samples) {
    if (s.outcome == pb::Outcome::kOk) ms.push_back(s.done_ms - s.due_ms);
  }
  return ms;
}

pb::ErrorTally Tally(const PhaseResult& phase) {
  pb::ErrorTally tally;
  for (const Sample& s : phase.samples) tally.Count(s.outcome);
  return tally;
}

/// Generator lag (`Sample::lag_ms`). In the open loop a backlogged send
/// waited on the fleet, which its due-time latency already counts.
std::vector<double> GeneratorLag(const PhaseResult& phase) {
  std::vector<double> lag;
  for (const Sample& s : phase.samples) {
    if (s.lag_ms >= 0.0) lag.push_back(s.lag_ms);
  }
  return lag;
}

size_t WindowOf(const PhaseResult& phase, double t_ms) {
  const double w = std::floor((t_ms - phase.t0_ms) / phase.window_ms);
  return std::min(phase.window_cpu_s.size() - 1,
                  static_cast<size_t>(std::max(0.0, w)));
}

/// Successful requests' latencies (from the due time) per window, by the
/// window they were due in.
std::vector<std::vector<double>> WindowLatencies(const PhaseResult& phase) {
  std::vector<std::vector<double>> latency(phase.window_cpu_s.size());
  for (const Sample& s : phase.samples) {
    if (s.outcome == pb::Outcome::kOk) {
      latency[WindowOf(phase, s.due_ms)].push_back(s.done_ms - s.due_ms);
    }
  }
  return latency;
}

/// The end-to-end metrics: latency percentiles, throughput, CPU per
/// request and peak resident set are medians over the phase's windows.
std::vector<Metric> EndToEnd(const PhaseResult& phase, double setup_s) {
  std::vector<std::vector<double>> latency = WindowLatencies(phase);
  std::vector<double> completed(latency.size(), 0.0);
  for (const Sample& s : phase.samples) {
    if (s.outcome == pb::Outcome::kOk) {
      completed[WindowOf(phase, s.done_ms)] += 1.0;
    }
  }
  std::vector<double> p50, p99, rps, cpu;
  for (size_t w = 0; w < latency.size(); ++w) {
    p50.push_back(pb::Percentile(&latency[w], 50.0));
    p99.push_back(pb::Percentile(&latency[w], 99.0));
    // The last window runs to the end of the phase.
    const double window_ms =
        w + 1 < latency.size()
            ? phase.window_ms
            : phase.wall_s * 1000.0 - static_cast<double>(w) * phase.window_ms;
    rps.push_back(1000.0 * completed[w] / window_ms);
    cpu.push_back(1000.0 * phase.window_cpu_s[w] /
                  std::max(1.0, completed[w]));
  }
  const pb::ErrorTally tally = Tally(phase);
  return {
      {"setup_s", setup_s, "s"},
      {"p50_ms", pb::Median(p50), "ms"},
      {"p99_ms", pb::Median(p99), "ms"},
      {"throughput_rps", pb::Median(rps), "1/s"},
      {"cpu_ms_per_req", pb::Median(cpu), "ms"},
      {"success_rate", 1.0 - tally.rate(), "ratio"},
      {"peak_rss_mb", pb::Median(phase.window_rss_mb), "MiB"},
  };
}

/// Per-request layer decomposition of a traced phase, joined on trace ID.
struct LayerSplit {
  std::vector<double> client, hop, forward, handler;
  double shard_callbacks = 0;
};

LayerSplit SplitLayers(const PhaseResult& phase) {
  LayerSplit split;
  std::map<uint64_t, const Span*> router;
  for (const Span& span : phase.router_spans) {
    router[span.trace_id] = &span;
  }
  // The winning shard span of a hedged request is the one that ended
  // first: the router returns the first answer.
  std::map<uint64_t, const Span*> shard;
  for (const auto& spans : phase.shard_spans) {
    for (const Span& span : spans) {
      ++split.shard_callbacks;
      auto [it, inserted] = shard.try_emplace(span.trace_id, &span);
      if (!inserted && span.end_ms < it->second->end_ms) it->second = &span;
    }
  }
  for (const Sample& s : phase.samples) {
    if (s.outcome != pb::Outcome::kOk) continue;
    const auto r = router.find(s.trace_id);
    const auto h = shard.find(s.trace_id);
    if (r == router.end() || h == shard.end()) continue;
    const double client_ms = s.done_ms - s.send_ms;
    const double router_ms = r->second->end_ms - r->second->start_ms;
    const double handler_ms = h->second->end_ms - h->second->start_ms;
    split.client.push_back(client_ms);
    split.hop.push_back(client_ms - router_ms);
    split.forward.push_back(router_ms - handler_ms);
    split.handler.push_back(handler_ms);
  }
  return split;
}

// --- attribution -------------------------------------------------------------------

/// Median wall time of \p reps calls of \p fn, in microseconds.
double MedianUs(int reps, const std::function<void()>& fn) {
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return pb::Median(us);
}

/// Handler-path costs of one key, each the median of a few calls.
struct KeyCost {
  int method = kMehlhorn;
  double parse_us = 0.0;   ///< net::ParseJson + service::ParseSummaryRequest
  double render_us = 0.0;  ///< service::SummaryToJson
  double record_us = 0.0;  ///< eval::EvalAccumulator::RecordSummary
};

struct Attribution {
  std::map<uint32_t, KeyCost> keys;
  double lookup_us = 0.0;
  double trace_us = 0.0;  ///< the handler's request tracing (XSUM_TRACE on)
  double handle_us = 0.0;  ///< a whole cached SummaryHandler::Handle
  std::array<double, 3> summarize_ms{};
  double overlay_ms = 0.0, chain_step_ms = 0.0, kmb_searches = 0.0;
  double dijkstra_ms = 0.0, voronoi_ms = 0.0, settled = 0.0,
         view_build_ms = 0.0, workspace_bytes = 0.0, summary_edges = 0.0;
};

/// Sources searched per task by the per-terminal kernel replay (group
/// tasks have ~100 terminals).
constexpr size_t kKernelSources = 16;

size_t CountSettled(const graph::SearchWorkspace& ws, size_t n) {
  size_t settled = 0;
  for (size_t v = 0; v < n; ++v) {
    settled += ws.settled(static_cast<graph::NodeId>(v)) ? 1 : 0;
  }
  return settled;
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Replays requests through the lower layers' public entry points,
/// single-threaded and uncontended, on the base graph. Every key of
/// \p attributed is summarized (as k-chains in order when \p chained) and
/// timed through the handler path; the kernels replay the terminal sets
/// of \p kernel_sample. Both sets are fixed by the seed, so the counts
/// (searches, settled nodes, workspace bytes, summary edges) repeat
/// exactly.
Attribution Attribute(const Fixture& fx, const std::vector<Key>& keys,
                      const std::vector<uint32_t>& attributed,
                      const std::vector<uint32_t>& kernel_sample,
                      bool chained) {
  Attribution a;
  const data::RecGraph& graph = *fx.base;
  auto views = std::make_shared<const core::SharedCostViews>(graph);
  core::BatchSummarizer engine(graph, 1, 1, views);
  std::array<std::vector<double>, 3> summarize;
  std::vector<double> overlay, steps;
  core::SummaryChain chain;
  std::vector<uint32_t> counts;
  std::vector<graph::EdgeId> touched;
  std::vector<double> adjusted, costs;
  eval::EvalAccumulator accumulator;
  const auto task_of = [&](const Key& key) {
    return fx.catalog.Find(key.request.scenario, key.request.unit,
                           key.request.k);
  };
  for (const uint32_t k : attributed) {
    const Key& key = keys[k];
    const core::SummaryTask* task = task_of(key);
    const core::SummarizerOptions options =
        service::RequestOptions(key.request);
    const auto t0 = Clock::now();
    Result<core::Summary> summary = Status::Internal("unset");
    if (chained) {
      if (key.request.k == 1) chain = core::SummaryChain{};
      summary = engine.RunChainedWith(0, *task, options,
                                      key.request.k == 1 ? nullptr : &chain,
                                      &chain);
      if (key.request.k > 1) steps.push_back(MsSince(t0));
      if (key.method == kKmb) {
        a.kmb_searches += static_cast<double>(chain.closure.last_searches);
      }
    } else {
      summary = engine.RunWith(0, *task, options);
    }
    summarize[key.method].push_back(MsSince(t0));
    if (!summary.ok()) Die("attribution: " + summary.status().ToString());
    a.workspace_bytes += static_cast<double>(summary->memory_bytes);
    a.summary_edges += static_cast<double>(summary->subgraph.num_edges());

    KeyCost& cost = a.keys[k];
    cost.method = key.method;
    cost.parse_us = MedianUs(5, [&] {
      auto json = net::ParseJson(key.body);
      if (!json.ok() || !service::ParseSummaryRequest(*json).ok()) {
        Die("attribution: unparseable request");
      }
    });
    cost.render_us = MedianUs(3, [&] { service::SummaryToJson(*summary, 1); });
    cost.record_us =
        MedianUs(3, [&] { accumulator.RecordSummary(graph, *summary); });
    if (key.method != kPcst) {
      overlay.push_back(MedianUs(3, [&] {
                          core::AdjustWeightsInto(
                              graph.graph(), graph.base_weights(),
                              task->paths, options.lambda, task->s_size,
                              &counts, &touched, &adjusted);
                          core::WeightsToCostsInto(adjusted,
                                                   options.cost_mode, &costs);
                        }) /
                        1000.0);
    }
  }
  if (!chained) {
    // The hot workloads serve neither KMB nor hinted requests; their KMB
    // and chain numbers come from a KMB k-chain over the unit of the first
    // ST key, the path a hinted k-sweep of that unit would take.
    const auto st = std::find_if(
        attributed.begin(), attributed.end(),
        [&](uint32_t k) { return keys[k].method != kPcst; });
    if (st != attributed.end()) {
      service::SummaryRequest request = keys[*st].request;
      request.variant = core::SteinerOptions::Variant::kKmb;
      const core::SummarizerOptions options = service::RequestOptions(request);
      chain = core::SummaryChain{};
      for (int k = 1; k <= kMaxK; ++k) {
        const core::SummaryTask* task =
            fx.catalog.Find(request.scenario, request.unit, k);
        const auto t0 = Clock::now();
        auto summary = engine.RunChainedWith(0, *task, options,
                                             k == 1 ? nullptr : &chain,
                                             &chain);
        if (!summary.ok()) Die("attribution: " + summary.status().ToString());
        summarize[kKmb].push_back(MsSince(t0));
        if (k > 1) steps.push_back(summarize[kKmb].back());
        a.kmb_searches += static_cast<double>(chain.closure.last_searches);
      }
    }
  }
  for (int m = 0; m < 3; ++m) a.summarize_ms[m] = pb::Median(summarize[m]);
  a.overlay_ms = pb::Median(overlay);
  a.chain_step_ms = pb::Median(steps);

  // Kernels on the snapshot's base view: one search per terminal (KMB's
  // closure rows) and one multi-source sweep (Mehlhorn's Voronoi cells).
  const graph::CostView& view =
      views->ForMode(core::CostMode::kWeightAwareLog);
  const size_t n = graph.graph().num_nodes();
  graph::SearchWorkspace ws;
  std::vector<double> dijkstra, voronoi;
  for (const uint32_t k : kernel_sample) {
    const std::vector<graph::NodeId>& terminals = task_of(keys[k])->terminals;
    const auto t0 = Clock::now();
    for (size_t i = 0; i < terminals.size() && i < kKernelSources; ++i) {
      graph::DijkstraInto(view, terminals[i], terminals, ws);
      a.settled += static_cast<double>(CountSettled(ws, n));
    }
    dijkstra.push_back(MsSince(t0));
    const auto v0 = Clock::now();
    graph::MultiSourceDijkstraInto(view, terminals, ws);
    voronoi.push_back(MsSince(v0));
    a.settled += static_cast<double>(CountSettled(ws, n));
  }
  a.dijkstra_ms = pb::Median(dijkstra);
  a.voronoi_ms = pb::Median(voronoi);

  // Service and handler: a cache hit in a private, uncontended service,
  // and the handler's own tracing (a whole cached /summarize through
  // SummaryHandler::Handle, traced minus untraced).
  {
    service::GraphSnapshotRegistry registry;
    registry.Publish(fx.base);
    service::SummaryService service(&registry, {});
    service::SummaryHandler handler(&service, &fx.catalog);
    const Key& key = keys[attributed.front()];
    const core::SummarizerOptions options =
        service::RequestOptions(key.request);
    if (!service.Summarize(*task_of(key), options).ok()) {
      Die("attribution: lookup prime failed");
    }
    a.lookup_us =
        MedianUs(201, [&] { service.Summarize(*task_of(key), options); });
    const net::HttpRequest request{"POST", "/summarize", 1, {}, key.body,
                                   true};
    handler.set_trace_enabled(true);
    const double traced = MedianUs(201, [&] { handler.Handle(request); });
    handler.set_trace_enabled(false);
    const double untraced = MedianUs(201, [&] { handler.Handle(request); });
    a.trace_us = std::max(0.0, traced - untraced);
    a.handle_us = traced;
  }

  // Graph: the lazy base-view build every snapshot pays on first use.
  std::vector<double> builds;
  for (int r = 0; r < 3; ++r) {
    core::SharedCostViews fresh(graph);
    const auto t0 = Clock::now();
    fresh.ForMode(core::CostMode::kWeightAwareLog);
    builds.push_back(MsSince(t0));
  }
  a.view_build_ms = pb::Median(builds);
  return a;
}

// --- output -------------------------------------------------------------------------

void PrintResult(bool correct, const pb::ErrorTally& tally,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.errors());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void WriteSpans(const std::string& path, const PhaseResult& phase) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  const auto dump = [&](const char* layer, const Span& s, int64_t key) {
    std::fprintf(out,
                 "{\"layer\":\"%s\",\"trace\":\"%s\",\"start_ms\":%.6f,"
                 "\"end_ms\":%.6f,\"queue_ms\":%.6f,\"key\":%lld}\n",
                 layer, obs::TraceIdToHex(s.trace_id).c_str(), s.start_ms,
                 s.end_ms, s.queue_ms, static_cast<long long>(key));
  };
  for (const Sample& s : phase.samples) {
    dump("client", Span{s.trace_id, s.send_ms, s.done_ms, 0.0}, s.key);
  }
  for (const Span& s : phase.router_spans) dump("router", s, -1);
  for (size_t i = 0; i < phase.shard_spans.size(); ++i) {
    for (const Span& s : phase.shard_spans[i]) {
      dump(i == 0 ? "shard0" : "shard1", s, -1);
    }
  }
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  g_epoch = Clock::now();
  const Args args = ParseArgs(argc, argv);
  const bool hot = args.workload != Workload::kColdSweep;
  // At most one client connection per core. refresh keeps one of them
  // for its /snapshot publisher: a fifth connection would wait for a
  // router worker that client keep-alives hold.
  const size_t cores = std::max<size_t>(
      1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  const size_t clients =
      args.workload == Workload::kRefresh ? std::max<size_t>(1, cores - 1)
                                          : cores;

  // --- set-up: everything up to the timed phase is setup_s ----------------
  std::unique_ptr<Fixture> fx;
  std::vector<double> build_s, graph_s, recommend_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    fx.reset();
    const double t0 = NowMs();
    fx = BuildFixture();
    build_s.push_back((NowMs() - t0) / 1000.0);
    graph_s.push_back(fx->graph_s);
    recommend_s.push_back(fx->recommend_s);
  }
  const double fleet_t0 = NowMs();
  Fleet fleet(*fx);
  fleet.BuildViews();

  const double warm_t0 = NowMs();
  std::vector<Key> keys;
  ColdPlan cold;
  if (hot) {
    keys = HotKeys(*fx);
    // Fill every hot key on both replicas, straight to each shard, one
    // request at a time per shard: every fill then computes on the same
    // service slot, and the fleet allocates the same workspaces in every
    // run. Concurrent fills reached one to four slots per shard by
    // timing, and the resident set moved by ~150 MiB with them.
    ParallelFor(fleet.num_shards(), fleet.num_shards(), [&](size_t s) {
      for (const Key& key : keys) {
        auto response =
            net::HttpFetch("127.0.0.1", fleet.shard(s).server->port(),
                           "POST", "/summarize", key.body, 60000);
        if (!response.ok() || response->status != 200) {
          Die("cache fill failed");
        }
      }
    });
  } else {
    cold = ColdKeys(*fx, args.seed);
    keys = cold.keys;
    // Warm with the ST chains kept out of the stream: every shard gets
    // one k = kMaxK request per service slot at once, so each slot
    // allocates its Eq. (1) cost view and workspace before timing.
    std::vector<size_t> warm;
    for (size_t chain = cold.stream_chains; chain * kMaxK < keys.size();
         ++chain) {
      if (keys[chain * kMaxK].method != kPcst) warm.push_back(chain);
    }
    ParallelFor(fleet.num_shards() * kServerWorkers,
                fleet.num_shards() * kServerWorkers, [&](size_t i) {
                  const size_t chain = warm[(i / fleet.num_shards()) %
                                            warm.size()];
                  Shard& shard = fleet.shard(i % fleet.num_shards());
                  auto response = net::HttpFetch(
                      "127.0.0.1", shard.server->port(), "POST",
                      "/summarize", keys[chain * kMaxK + kMaxK - 1].body,
                      60000);
                  if (!response.ok() || response->status != 200) {
                    Die("warm-up failed");
                  }
                });
  }
  const double warm_s = (NowMs() - warm_t0) / 1000.0;
  const double setup_s = pb::Median(build_s) + (NowMs() - fleet_t0) / 1000.0;

  // --- timed phase(s) -------------------------------------------------------------
  AnswerBook book;
  Runner runner{fleet, keys, book, clients, 0};
  // The hot workloads' request keys in order, fixed by the seed: hot-read
  // draws a closed-loop stream, refresh an open-loop schedule.
  const bool refresh = args.workload == Workload::kRefresh;
  std::vector<pb::Arrival> schedule;
  std::vector<uint32_t> stream;
  if (refresh) {
    schedule = pb::OpenLoopSchedule(static_cast<uint32_t>(keys.size()),
                                    kZipfSkew, kRefreshRateRps, args.seconds,
                                    args.seed);
    for (const pb::Arrival& arrival : schedule) stream.push_back(arrival.key);
  } else if (hot) {
    stream = pb::ZipfStream(
        static_cast<uint32_t>(keys.size()), kZipfSkew,
        static_cast<size_t>(kHotStreamPerSecond * args.seconds), args.seed);
  }
  std::atomic<size_t> next_chain{0};
  const auto run_phase = [&](bool traced, uint64_t tag) {
    runner.trace_tag = tag << 40;
    if (refresh) {
      return runner.OpenLoop(schedule, args.seconds, kWindows, traced);
    }
    if (hot) {
      // Each phase sends the stream from its start.
      std::atomic<size_t> next{0};
      return runner.ClosedLoop(
          &next, stream.size(), 1,
          [&](size_t run, int) { return stream[run]; }, args.seconds,
          kWindows, traced);
    }
    return runner.ClosedLoop(
        &next_chain, cold.stream_chains, kMaxK,
        [](size_t chain, int k) {
          return static_cast<uint32_t>(chain * kMaxK + k);
        },
        args.seconds, 1, traced);
  };
  PhaseResult untraced = run_phase(false, 1);
  PhaseResult traced;
  if (args.trace) traced = run_phase(true, 2);

  // --- verification ------------------------------------------------------------------
  const Verification verification = Verify(
      *fx, keys, &book, hot, args.seed, clients, {&untraced, &traced});

  // --- report ----------------------------------------------------------------------------
  const PhaseResult& measured = args.trace ? traced : untraced;
  const pb::ErrorTally tally = Tally(measured);
  std::vector<double> latency = Latencies(measured);
  size_t smallest_window = latency.size();
  std::string window_counts;
  for (const std::vector<double>& window : WindowLatencies(measured)) {
    smallest_window = std::min(smallest_window, window.size());
    window_counts += (window_counts.empty() ? "" : "/") +
                     std::to_string(window.size());
  }
  std::vector<double> lag = GeneratorLag(measured);
  const double lag_p99 = pb::Percentile(&lag, 99.0);
  const double tail = pb::TailPercentile(latency.size());
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d clients=%zu "
              "keys=%zu\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, clients, keys.size());
  std::printf("setup: graph %.3f s, recommend %.3f s (medians of %d "
              "builds), warm %.3f s, total %.3f s\n",
              pb::Median(graph_s), pb::Median(recommend_s), kSetupRepeats,
              warm_s, setup_s);
  std::printf("samples: %zu completed of %llu attempted (per window %s); "
              "whole-phase tail p%g = %.4f ms; %llu samples beyond p99 in "
              "the smallest window\n",
              latency.size(),
              static_cast<unsigned long long>(tally.attempted),
              window_counts.c_str(), tail, pb::Percentile(&latency, tail),
              static_cast<unsigned long long>(
                  pb::SamplesBeyond(smallest_window, 99.0)));
  std::printf("errors: non-200 %llu, shed %llu, transport %llu, mismatch "
              "%llu -> error_rate %.6f\n",
              static_cast<unsigned long long>(tally.non200),
              static_cast<unsigned long long>(tally.shed),
              static_cast<unsigned long long>(tally.transport),
              static_cast<unsigned long long>(tally.mismatch), tally.rate());
  std::printf("verification: %zu of %zu distinct (key, version) answers "
              "checked against the in-process reference (%.1f%%), %zu "
              "wrong\n",
              verification.checked, verification.distinct,
              100.0 * static_cast<double>(verification.checked) /
                  std::max<double>(1.0, verification.distinct),
              verification.wrong);
  if (refresh) {
    std::printf("generator: lag p99 %.3f ms (bound %.0f ms), %.1f%% sent "
                "backlogged\n",
                lag_p99, kLagBoundMs,
                100.0 * static_cast<double>(std::count_if(
                            measured.samples.begin(), measured.samples.end(),
                            [](const Sample& s) { return s.backlogged; })) /
                    std::max<double>(1.0, measured.samples.size()));
  }
  {
    const Counters& b = measured.before;
    const Counters& e = measured.after;
    std::printf("fleet: routed %.0f, hedges %.0f (won %.0f), failovers "
                "%.0f, shed %llu, shard requests %.0f (computed %.0f)\n",
                e.routed - b.routed, e.hedges - b.hedges,
                e.hedge_wins - b.hedge_wins, e.failovers - b.failovers,
                static_cast<unsigned long long>(e.shed - b.shed),
                e.requests - b.requests, e.computed - b.computed);
  }
  if (!measured.publish_ms.empty()) {
    std::printf("publishes: %zu, median %.3f ms\n",
                measured.publish_ms.size(), pb::Median(measured.publish_ms));
  }

  {
    std::string p50s, p99s;
    for (std::vector<double>& window : WindowLatencies(measured)) {
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%s%.3f", p50s.empty() ? "" : "/",
                    pb::Percentile(&window, 50.0));
      p50s += cell;
      std::snprintf(cell, sizeof(cell), "%s%.3f", p99s.empty() ? "" : "/",
                    pb::Percentile(&window, 99.0));
      p99s += cell;
    }
    std::printf("windows: p50 %s ms, p99 %s ms; whole-phase p99 %.3f ms\n",
                p50s.c_str(), p99s.c_str(), pb::Percentile(&latency, 99.0));
  }

  std::vector<Metric> e2e = EndToEnd(untraced, setup_s);
  PrintMetrics("end to end (untraced):", e2e);

  bool valid = true;
  if (tally.mismatch > 0 || verification.wrong > 0) {
    std::printf("INVALID: wrong response bytes\n");
    valid = false;
  }
  if (refresh && lag_p99 > kLagBoundMs) {
    std::printf("INVALID: generator lag p99 %.3f ms over the %.0f ms bound\n",
                lag_p99, kLagBoundMs);
    valid = false;
  }
  if (pb::SamplesBeyond(smallest_window, 99.0) < 10) {
    std::printf("INVALID: a window of %zu samples leaves fewer than ten "
                "beyond p99\n",
                smallest_window);
    valid = false;
  }

  if (!args.trace) {
    if (!valid) return 1;
    PrintResult(true, tally, e2e);
    return 0;
  }

  // --- traced run: per-layer metrics -------------------------------------------
  const std::vector<Metric> e2e_traced = EndToEnd(traced, setup_s);
  // cold-sweep's traced phase sweeps later units than its untraced one,
  // so there the difference also carries the change of work.
  std::printf("tracing overhead: p50 %+.4f ms, cpu/req %+.4f ms%s\n",
              e2e_traced[1].value - e2e[1].value,
              e2e_traced[4].value - e2e[4].value,
              hot ? "" : " (phases sweep different units)");
  WriteSpans(args.out_dir + "/spans-" + args.workload_name + "-" +
                 std::to_string(args.seed) + ".jsonl",
             traced);

  LayerSplit split = SplitLayers(traced);
  const Counters& b = traced.before;
  const Counters& e = traced.after;
  const double client_requests = static_cast<double>(traced.samples.size());
  const double hits = e.hits - b.hits;
  const double misses = e.misses - b.misses;
  const double shard_requests = e.requests - b.requests;
  const double hedges = e.hedges - b.hedges;
  double hinted = 0;
  for (const Sample& s : traced.samples) {
    hinted += keys[s.key].request.prev_k > 0 ? 1 : 0;
  }
  const double max_shard =
      std::max(e.per_shard[0] - b.per_shard[0], e.per_shard[1] - b.per_shard[1]);

  // Attribution sets, fixed by the seed. Hot: every distinct key of the
  // stream, and the first six distinct keys per method for the kernels.
  // Cold: the first two chains per method of the shuffle (k = 1..10), and
  // their k = 10 tasks for the kernels.
  std::vector<uint32_t> attributed;
  std::vector<uint32_t> kernel_sample;
  if (hot) {
    std::set<uint32_t> distinct;
    std::array<size_t, 3> taken{};
    for (const uint32_t key : stream) {
      if (!distinct.insert(key).second) continue;
      const int m = keys[key].method;
      if (taken[m]++ < 6) kernel_sample.push_back(key);
    }
    attributed.assign(distinct.begin(), distinct.end());
  } else {
    std::array<size_t, 3> taken{};
    for (size_t chain = 0; chain < cold.stream_chains; ++chain) {
      const uint32_t first = static_cast<uint32_t>(chain * kMaxK);
      if (taken[keys[first].method]++ >= 2) continue;
      for (int k = 0; k < kMaxK; ++k) attributed.push_back(first + k);
      kernel_sample.push_back(first + kMaxK - 1);
    }
  }
  const Attribution a =
      Attribute(*fx, keys, attributed, kernel_sample, /*chained=*/!hot);

  // Handler-path costs per method, weighted by how often the traced phase
  // served each key (every attributed key once when it served none of
  // them, as cold-sweep's fixed sample precedes its traced phase).
  std::map<uint32_t, double> weight;
  for (const Sample& s : traced.samples) {
    if (a.keys.count(s.key)) weight[s.key] += 1.0;
  }
  std::vector<double> parse;
  std::array<std::vector<double>, 2> render, record;
  for (const auto& [k, cost] : a.keys) {
    const double w = weight.empty() ? 1.0 : weight[k];
    const int m = cost.method == kPcst ? 1 : 0;
    for (double i = 0; i < w; ++i) {
      parse.push_back(cost.parse_us);
      render[m].push_back(cost.render_us);
      record[m].push_back(cost.record_us);
    }
  }

  const auto median = [](std::vector<double> v) { return pb::Median(v); };
  const double handler_p50 = median(split.handler);
  std::vector<double> handler = split.handler;
  std::vector<Metric> layers = {
      {"client.lag_p99_ms", lag_p99, "ms"},
      {"net.client_hop_p50_ms", median(split.hop), "ms"},
      {"net.shed", static_cast<double>(e.shed - b.shed), "count"},
      {"service.router.forward_p50_ms", median(split.forward), "ms"},
      {"service.router.amplification",
       split.shard_callbacks / std::max(1.0, client_requests), "ratio"},
      {"service.router.hedge_share",
       hedges / std::max(1.0, e.routed - b.routed), "ratio"},
      {"service.router.hedge_win_share",
       hedges > 0 ? (e.hedge_wins - b.hedge_wins) / hedges : 0.0, "ratio"},
      {"service.router.failovers", e.failovers - b.failovers, "count"},
      {"service.router.max_shard_share",
       max_shard / std::max(1.0, shard_requests), "ratio"},
      {"service.handler.p50_ms", handler_p50, "ms"},
      {"service.handler.p99_ms", pb::Percentile(&handler, 99.0), "ms"},
      {"service.handler.parse_us", median(parse), "us"},
      {"service.handler.render_us.st", median(render[0]), "us"},
      {"service.handler.render_us.pcst", median(render[1]), "us"},
      {"eval.record_us.st", median(record[0]), "us"},
      {"eval.record_us.pcst", median(record[1]), "us"},
      {"service.hit_rate", hits / std::max(1.0, hits + misses), "ratio"},
      {"service.handler.trace_us", a.trace_us, "us"},
      {"service.lookup_us", a.lookup_us, "us"},
      {"service.coalesced_share",
       (e.coalesced - b.coalesced) / std::max(1.0, shard_requests), "ratio"},
      {"service.chain_reuse",
       hinted > 0 ? (e.incremental - b.incremental) / hinted : 0.0, "ratio"},
      {"service.cache_mb", e.cache_bytes / (1024.0 * 1024.0), "MiB"},
      {"core.summarize_ms.kmb", a.summarize_ms[kKmb], "ms"},
      {"core.summarize_ms.mehlhorn", a.summarize_ms[kMehlhorn], "ms"},
      {"core.summarize_ms.pcst", a.summarize_ms[kPcst], "ms"},
      {"core.overlay_ms", a.overlay_ms, "ms"},
      {"core.chain_step_ms", a.chain_step_ms, "ms"},
      {"core.kmb_searches", a.kmb_searches, "count"},
      {"graph.dijkstra_ms", a.dijkstra_ms, "ms"},
      {"graph.voronoi_ms", a.voronoi_ms, "ms"},
      {"graph.settled", a.settled, "count"},
      {"graph.view_build_ms", a.view_build_ms, "ms"},
      {"graph.workspace_bytes", a.workspace_bytes, "bytes"},
      {"graph.summary_edges", a.summary_edges, "count"},
      {"setup.graph_s", pb::Median(graph_s), "s"},
      {"setup.recommend_s", pb::Median(recommend_s), "s"},
      {"setup.warm_s", warm_s, "s"},
      {"error_rate", tally.rate(), "ratio"},
  };
  PrintMetrics("per layer (traced):", layers);

  // Closure: each traced request's key costs parse + lookup + eval +
  // render + the handler's tracing in attribution; their median must
  // match the traced handler median. And client hop + router forward +
  // handler medians must add up to the client-call median.
  std::vector<double> predicted;
  for (const Sample& s : traced.samples) {
    const auto it = a.keys.find(s.key);
    if (it == a.keys.end()) continue;
    const KeyCost& cost = it->second;
    predicted.push_back((cost.parse_us + a.lookup_us + cost.record_us +
                         cost.render_us + a.trace_us) /
                        1000.0);
  }
  const double path_sum =
      median(split.hop) + median(split.forward) + handler_p50;
  const double client_p50 = median(split.client);
  if (hot) {
    std::printf("attribution: uncontended cached Handle %.4f ms\n",
                a.handle_us / 1000.0);
    const double handler_model = median(predicted);
    const auto verdict = [](double x, double ref) {
      return std::abs(x - ref) <=
                     std::max(kClosureTolerance * ref, kClosureSlackMs)
                 ? "PASS"
                 : "FAIL";
    };
    std::printf("closure: parse+lookup+eval+render+trace %.4f ms vs "
                "handler p50 "
                "%.4f ms -> %s; hop+forward+handler %.4f ms vs client-call "
                "p50 %.4f ms -> %s (tolerance %.0f%% or %.2f ms)\n",
                handler_model, handler_p50,
                verdict(handler_model, handler_p50), path_sum, client_p50,
                verdict(path_sum, client_p50), 100.0 * kClosureTolerance,
                kClosureSlackMs);
  }
  if (!valid) return 1;
  PrintResult(true, tally, layers);
  return 0;
}
