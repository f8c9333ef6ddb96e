/// \file bench_service.cpp
/// \brief Throughput of the summary service on a Zipf-skewed repeated-task
/// request stream: warm-cache vs cache-disabled, plus the cold (filling)
/// pass. Production recommendation traffic is heavily repeated — a few hot
/// users/groups dominate — which is exactly what the service's sharded
/// result cache exploits.
///
/// The bench also proves the cache is *safe*: for a sample of distinct
/// requests it compares the cached response bit-for-bit against a fresh
/// single-shot `Summarize` call and aborts on any mismatch.
///
/// A fourth warm arm runs with histogram recording disabled
/// (`ServiceOptions::enable_metrics = false`) — the control that prices
/// the observability layer on the hottest path (gate: <2% overhead).
///
/// Env knobs (on top of the standard XSUM_* set):
///   XSUM_REQUESTS         requests per arm                    (default 2000)
///   XSUM_ZIPF             task-mix skew s                     (default 1.1)
///
/// XSUM_JSON emits one record per arm; `bench/compare_perf.py` diffs these
/// across commits.

#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/scenario.h"
#include "service/service.h"
#include "service/snapshot_registry.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"

using namespace xsum;

namespace {

/// One request of the synthetic stream.
struct Request {
  const core::SummaryTask* task;
  const core::SummarizerOptions* options;
};

void CheckIdentical(const core::Summary& fresh, const core::Summary& cached) {
  bool same = fresh.subgraph.nodes() == cached.subgraph.nodes() &&
              fresh.subgraph.edges() == cached.subgraph.edges() &&
              fresh.unreached_terminals == cached.unreached_terminals &&
              fresh.terminals == cached.terminals &&
              fresh.anchors == cached.anchors &&
              fresh.method == cached.method &&
              fresh.scenario == cached.scenario &&
              fresh.memory_bytes == cached.memory_bytes &&
              fresh.input_paths.size() == cached.input_paths.size();
  for (size_t p = 0; same && p < fresh.input_paths.size(); ++p) {
    same = fresh.input_paths[p].nodes == cached.input_paths[p].nodes &&
           fresh.input_paths[p].edges == cached.input_paths[p].edges;
  }
  if (!same) {
    std::fprintf(stderr,
                 "FATAL: cached summary differs from fresh Summarize call\n");
    std::exit(1);
  }
}

}  // namespace

int main() {
  eval::ExperimentConfig defaults;
  defaults.scale = 0.05;
  defaults.users_per_gender = 8;
  defaults.items_popular = 6;
  defaults.items_unpopular = 6;
  eval::ExperimentRunner runner = bench::MakeRunner(defaults);
  const auto data = bench::ValueOrDie(
      runner.ComputeBaseline(rec::RecommenderKind::kPgpr), "baseline");

  // Distinct task universe: every user unit and user group at every
  // k-prefix — the request shapes panel evaluation and serving repeat.
  std::vector<core::SummaryTask> tasks;
  for (const core::UserRecs& ur : data.users) {
    for (int k = 1; k <= 10; ++k) {
      tasks.push_back(core::MakeUserCentricTask(runner.rec_graph(), ur, k));
    }
  }
  for (const auto& group : data.user_groups) {
    for (int k = 1; k <= 10; ++k) {
      tasks.push_back(core::MakeUserGroupTask(runner.rec_graph(), group, k));
    }
  }
  std::vector<core::SummarizerOptions> methods(2);
  methods[0].method = core::SummaryMethod::kSteiner;
  methods[0].lambda = 1.0;
  methods[1].method = core::SummaryMethod::kPcst;

  // Zipf-skewed stream over (task, method) pairs.
  const size_t num_requests = static_cast<size_t>(
      GetEnvNonNegativeInt("XSUM_REQUESTS", 2000));
  const double skew = GetEnvDouble("XSUM_ZIPF", 1.1);
  const size_t universe = tasks.size() * methods.size();
  ZipfTable zipf(universe, skew);
  Rng rng(runner.config().seed + 99);
  std::vector<Request> stream;
  stream.reserve(num_requests);
  for (size_t r = 0; r < num_requests; ++r) {
    const uint64_t pick = zipf.Sample(&rng);
    stream.push_back({&tasks[pick % tasks.size()],
                      &methods[pick / tasks.size()]});
  }

  std::printf("bench_service: Zipf(s=%.2f) stream of %zu requests over %zu "
              "distinct (task, method) pairs\n",
              skew, stream.size(), universe);
  std::printf("config: %s\n\n", runner.config().Describe().c_str());

  service::GraphSnapshotRegistry registry;
  registry.Publish(
      service::GraphSnapshotRegistry::Alias(runner.rec_graph()));

  const auto replay = [&](service::SummaryService& service) {
    WallTimer timer;
    timer.Start();
    for (const Request& request : stream) {
      const auto result = service.Summarize(*request.task, *request.options);
      bench::CheckOk(result.status(), "service request");
    }
    return timer.ElapsedMillis();
  };

  // Arm 1: cache disabled — every request runs the engine.
  service::ServiceOptions uncached_options;
  uncached_options.enable_cache = false;
  service::SummaryService uncached(&registry, uncached_options);
  const double uncached_ms = replay(uncached);

  // Arm 2: cache enabled — a cold filling pass, then the warm pass the
  // serving steady state looks like.
  service::SummaryService cached(&registry, service::ServiceOptions());
  const double cold_ms = replay(cached);
  const double warm_ms = replay(cached);
  const service::ServiceStats stats = cached.Stats();

  // Arm 3: warm cache with histogram recording off — the control that
  // prices the observability layer. The gate is <2% overhead on the warm
  // path; counters stay on in both arms (they are not optional).
  service::ServiceOptions nometrics_options;
  nometrics_options.enable_metrics = false;
  service::SummaryService nometrics(&registry, nometrics_options);
  replay(nometrics);  // fill
  const double nometrics_warm_ms = replay(nometrics);

  // Safety: cached responses are bit-identical to fresh computation.
  size_t checked = 0;
  for (size_t i = 0; i < tasks.size() && checked < 100; i += 7) {
    for (const core::SummarizerOptions& options : methods) {
      const auto hit = cached.Summarize(tasks[i], options);
      bench::CheckOk(hit.status(), "verify request");
      const auto fresh = core::Summarize(runner.rec_graph(), tasks[i], options);
      bench::CheckOk(fresh.status(), "verify fresh");
      CheckIdentical(*fresh, (*hit)->summary());
      ++checked;
    }
  }

  const size_t n = runner.rec_graph().graph().num_nodes();
  size_t terminal_sum = 0;
  for (const core::SummaryTask& task : tasks) {
    terminal_sum += task.terminals.size();
  }
  const size_t mean_t = tasks.empty() ? 0 : terminal_sum / tasks.size();

  TextTable table({"arm", "requests", "wall ms", "QPS", "hit rate",
                   "p50 ms", "p99 ms"});
  const auto qps = [&](double ms) {
    return ms > 0.0 ? 1000.0 * static_cast<double>(stream.size()) / ms : 0.0;
  };
  table.AddRow({"cache off", FormatCount(static_cast<int64_t>(stream.size())),
                FormatDouble(uncached_ms, 1), FormatDouble(qps(uncached_ms), 0),
                "-", "-", "-"});
  table.AddRow({"cache cold", FormatCount(static_cast<int64_t>(stream.size())),
                FormatDouble(cold_ms, 1), FormatDouble(qps(cold_ms), 0), "-",
                "-", "-"});
  table.AddRow({"cache warm", FormatCount(static_cast<int64_t>(stream.size())),
                FormatDouble(warm_ms, 1), FormatDouble(qps(warm_ms), 0),
                FormatDouble(100.0 * stats.cache.HitRate(), 1) + "%",
                FormatDouble(stats.p50_ms, 4), FormatDouble(stats.p99_ms, 4)});
  table.AddRow({"warm, metrics off",
                FormatCount(static_cast<int64_t>(stream.size())),
                FormatDouble(nometrics_warm_ms, 1),
                FormatDouble(qps(nometrics_warm_ms), 0), "-", "-", "-"});
  table.Print(std::cout);

  const double metrics_overhead_pct =
      nometrics_warm_ms > 0.0
          ? 100.0 * (warm_ms - nometrics_warm_ms) / nometrics_warm_ms
          : 0.0;
  std::printf("\nmetrics-on overhead vs metrics-off (warm cache): %+.2f%% "
              "(gate < 2%%)\n",
              metrics_overhead_pct);

  const double speedup = warm_ms > 0.0 ? uncached_ms / warm_ms : 0.0;
  std::printf(
      "\nwarm-cache speedup vs cache-off: %.1fx (target >= 5x); "
      "%zu cached responses verified bit-identical to fresh Summarize\n",
      speedup, checked);
  std::printf(
      "cache: %zu entries, %s of %s budget, %llu evictions, "
      "%llu single-flight coalesced\n",
      stats.cache.entries, FormatBytes(stats.cache.bytes).c_str(),
      FormatBytes(stats.cache.max_bytes).c_str(),
      static_cast<unsigned long long>(stats.cache.evictions),
      static_cast<unsigned long long>(stats.coalesced));

  const double per_request_uncached =
      uncached_ms / static_cast<double>(stream.size());
  const double per_request_warm =
      warm_ms / static_cast<double>(stream.size());
  bench::EmitPerfJson({"service.zipf", "ST+PCST.uncached", n, mean_t,
                       per_request_uncached, 0});
  bench::EmitPerfJson({"service.zipf", "ST+PCST.cached_warm", n, mean_t,
                       per_request_warm, stats.cache.bytes});
  bench::EmitPerfJson({"service.zipf", "ST+PCST.cached_warm_nometrics", n,
                       mean_t,
                       nometrics_warm_ms / static_cast<double>(stream.size()),
                       0});
  return 0;
}
