/// \file service.h
/// \brief `SummaryService` — the request-serving front end over the batch
/// summarization engine (DESIGN.md §3).
///
/// The batch engine (`core::BatchSummarizer`) answers task *batches* from
/// one driver thread; a serving deployment instead sees a concurrent
/// stream of independent requests with a heavily repeated (Zipf) task mix.
/// The service adds the three serving layers on top:
///
///  1. **Result cache** — a sharded task-keyed LRU (`SummaryCache`); a hit
///     answers without touching the graph.
///  2. **Single-flight deduplication** — concurrent identical misses are
///     coalesced: one leader computes, followers block on the in-flight
///     entry and share its result, so a hot key never computes twice.
///  3. **Snapshot routing** — requests run against the current
///     `GraphSnapshotRegistry` snapshot and pin it for their duration;
///     publishing a new graph hot-swaps the serving state without
///     disturbing in-flight requests, and implicitly invalidates all
///     older-version cache entries (version is part of the key).
///
/// Misses borrow one of `num_workers` `SummarizeContext` slots (blocking
/// when all are busy), so steady-state serving allocates nothing beyond
/// the cached summaries themselves. `Stats()` exposes QPS, hit rate, and
/// p50/p99 latency for dashboards and the service bench.

#ifndef XSUM_SERVICE_SERVICE_H_
#define XSUM_SERVICE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/batch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/snapshot_registry.h"
#include "service/summary_cache.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/timer.h"

namespace xsum::service {

/// \brief Service configuration.
struct ServiceOptions {
  /// Concurrent summarization slots (one reusable `SummarizeContext`
  /// each). Requests beyond this block until a slot frees.
  size_t num_workers = 1;
  /// Serve results from the cache (false = every request computes; the
  /// control arm of the service bench).
  bool enable_cache = true;
  /// Record latency histograms in the obs registry (false = counters
  /// only, no percentile data; the metrics-off control arm of the
  /// service bench that prices the instrumentation).
  bool enable_metrics = true;
  SummaryCache::Options cache;
};

/// \brief One observable service counter snapshot.
struct ServiceStats {
  uint64_t requests = 0;        ///< Summarize calls answered
  uint64_t computed = 0;        ///< answered by running the engine
  /// Computes that actually reused a (task, k−1) chain's closure rows
  /// (hints that reset the chain and ran from scratch are not counted).
  uint64_t incremental = 0;
  uint64_t coalesced = 0;       ///< answered by joining an in-flight leader
  uint64_t errors = 0;          ///< non-OK responses
  uint64_t snapshot_swaps = 0;  ///< serving-state rebuilds observed
  uint64_t snapshot_version = 0;
  /// Chain checkpoints accepted from a draining peer (`ImportChain`).
  uint64_t chains_imported = 0;
  /// Requests currently inside `Summarize` (gauge, not a counter) — the
  /// drain sequence waits for this to reach zero before exporting.
  int64_t in_flight = 0;
  CacheStats cache;
  double uptime_seconds = 0.0;
  double qps = 0.0;     ///< requests / uptime
  double mean_ms = 0.0; ///< mean response latency over all requests
  /// Percentiles over the full request history, read from the obs-layer
  /// log-bucketed histogram (`service_latency_ms`) — mergeable across
  /// shards, unlike the reservoir window they replaced. Well-defined for
  /// every history size: 0 before any traffic, the single sample when
  /// only one request has been served.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// \brief The serving façade. All public methods are thread-safe.
class SummaryService {
 public:
  /// \p registry must outlive the service and have a published snapshot
  /// before the first Summarize call.
  SummaryService(GraphSnapshotRegistry* registry,
                 const ServiceOptions& options = {});
  ~SummaryService();

  SummaryService(const SummaryService&) = delete;
  SummaryService& operator=(const SummaryService&) = delete;

  /// Answers one request: cache hit, coalesced wait, or fresh compute on
  /// the current graph snapshot. The returned record is the one the cache
  /// holds for (snapshot version, task fingerprint) — every hit and
  /// coalesced follower of that key shares it, evaluation slot included.
  /// Its summary is immutable and stays valid independent of cache
  /// eviction or snapshot swaps.
  ///
  /// \p predecessor optionally names the chain-predecessor task (the same
  /// unit at k−1, built by the k-sweep callers). On a cache miss the
  /// service consults the predecessor's cache entry and, when it carries a
  /// chain checkpoint, summarizes *incrementally* from it — reusing its
  /// metric-closure rows where provably safe (core/incremental.h). The
  /// answer is bit-identical with or without the hint; a wrong or stale
  /// hint degrades to a fresh compute.
  ///
  /// \p served_version, when non-null, receives the version of the
  /// snapshot this request was actually pinned to — which a concurrent
  /// Publish can make different from `serving_version()` read before or
  /// after the call. Responses that report a version (the §6 handler)
  /// must use this, not a registry re-read.
  /// \p route_key optionally tags the resulting cache entry with the
  /// request's routing fingerprint (`UnitFingerprint`), which is what
  /// lets a later drain hand this unit's chain checkpoint to the ring
  /// inheritor. 0 = untagged.
  /// \p trace, when non-null, receives spans for the request's cache
  /// lookup, single-flight wait, worker-slot wait, and kernel time.
  Result<std::shared_ptr<const SummaryRecord>> Summarize(
      const core::SummaryTask& task, const core::SummarizerOptions& options,
      const core::SummaryTask* predecessor = nullptr,
      uint64_t* served_version = nullptr, uint64_t route_key = 0,
      obs::Trace* trace = nullptr);

  /// Accepts one chain checkpoint exported by a draining peer: the chain
  /// is re-anchored to *this* process's current graph snapshot (all fleet
  /// processes build bit-identical graphs from the same env knobs and
  /// publish versions in lockstep, so closure rows recorded there are
  /// valid here — DESIGN.md §7) and stored as a summary-less cache entry
  /// that the next (task, k+1) miss extends incrementally.
  /// FailedPrecondition when no snapshot is published; InvalidArgument
  /// when \p key names a different snapshot version than the current one
  /// (stale checkpoints never cross versions).
  Status ImportChain(const CacheKey& key, uint64_t route_key,
                     core::SummaryChain chain);

  /// Every cached chain checkpoint with a route key — the drain export.
  std::vector<SummaryCache::ChainExport> ExportChains() const {
    return cache_.ExportChains();
  }

  /// Requests currently inside `Summarize`.
  int64_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  /// Current counters.
  ServiceStats Stats() const;

  /// The service's live metrics registry. The serving binary hands this
  /// to its `net::HttpServer` too, so one process exposes one registry.
  obs::Registry* metrics_registry() { return &metrics_; }

  /// Mergeable snapshot of everything this process observes: registry
  /// histograms plus the ServiceStats counters and cache counters,
  /// overlaid under `service_*` / `cache_*` names. The router `+=`s these
  /// across shards into the fleet-wide `/metrics` view.
  obs::MetricsSnapshot Metrics() const;

  /// Cache counters only — no latency-lock contention, for callers that
  /// poll a single number (the evaluation runner's accessors).
  CacheStats cache_stats() const { return cache_.stats(); }

  /// Version the next request will be served on (observes the registry).
  uint64_t serving_version() const { return registry_->current_version(); }

  /// The registry's current snapshot, pinned by the returned copy (the
  /// handler evaluates a record's first serve against it — and skips when
  /// a concurrent Publish made the served version differ).
  GraphSnapshot CurrentSnapshot() const { return registry_->Current(); }

  const ServiceOptions& options() const { return options_; }

 private:
  /// Everything tied to one graph version: the pinned snapshot, its
  /// engine, and the free-list of engine worker slots.
  struct ServingState {
    /// Immutable after construction; read without the slot lock.
    GraphSnapshot snapshot;
    std::unique_ptr<core::BatchSummarizer> engine;
    sync::Mutex mutex;
    std::condition_variable slot_cv;
    std::vector<size_t> free_workers XSUM_GUARDED_BY(mutex);
  };

  /// One in-flight computation; followers block on `cv` until `done`.
  struct Flight {
    sync::Mutex mutex;
    std::condition_variable cv;
    bool done XSUM_GUARDED_BY(mutex) = false;
    Status status XSUM_GUARDED_BY(mutex);
    std::shared_ptr<const SummaryRecord> record XSUM_GUARDED_BY(mutex);
  };

  /// Returns the serving state for the registry's current version,
  /// building (and hot-swapping to) a new one when the version moved.
  std::shared_ptr<ServingState> CurrentState();

  /// Leases a worker slot and runs the engine. \p prev_chain (may be null)
  /// seeds the chained summarization; \p out_chain (may be null) receives
  /// the checkpoint the step produced, for caching alongside the summary,
  /// unless its cost signature is an Eq. (1) overlay (no later compute
  /// could carry it).
  Result<std::shared_ptr<const SummaryRecord>> ComputeOn(
      ServingState& state, const core::SummaryTask& task,
      const core::SummarizerOptions& options,
      const core::SummaryChain* prev_chain,
      std::shared_ptr<core::SummaryChain>* out_chain, obs::Trace* trace);

  /// Publishes \p status / \p record on \p flight, deregisters it from
  /// `flights_` under \p key, and wakes its followers.
  void CompleteFlight(const CacheKey& key, Flight& flight,
                      const Status& status,
                      std::shared_ptr<const SummaryRecord> record);

  void RecordLatency(double ms, bool error);

  GraphSnapshotRegistry* registry_;
  ServiceOptions options_;
  SummaryCache cache_;

  /// Lock order within the service (DESIGN.md §9.3): every acquisition
  /// is leaf-like — no service mutex is ever taken while holding another
  /// — but the declared order pins the permitted direction should a
  /// future change need to nest: state → flights → stats.
  mutable sync::Mutex state_mutex_
      XSUM_ACQUIRED_BEFORE(flights_mutex_, stats_mutex_);
  /// Guards the *pointer*; a ServingState returned from CurrentState()
  /// is pinned by the shared_ptr copy and used lock-free (§9.4), its own
  /// slot free-list guarded by its member mutex.
  std::shared_ptr<ServingState> state_ XSUM_GUARDED_BY(state_mutex_);
  uint64_t snapshot_swaps_ XSUM_GUARDED_BY(state_mutex_) = 0;

  sync::Mutex flights_mutex_ XSUM_ACQUIRED_BEFORE(stats_mutex_);
  std::unordered_map<CacheKey, std::shared_ptr<Flight>, CacheKeyHash> flights_
      XSUM_GUARDED_BY(flights_mutex_);

  /// Live metrics. The latency histogram is the percentile source of
  /// truth (PR 7): log-bucketed, constant memory, and — unlike the
  /// reservoir window it replaced — exactly mergeable across shards.
  obs::Registry metrics_;
  obs::Histogram* latency_hist_;    // service_latency_ms
  obs::Histogram* compute_hist_;    // service_compute_ms
  obs::Histogram* slot_wait_hist_;  // service_slot_wait_ms

  mutable sync::Mutex stats_mutex_;
  uint64_t requests_ XSUM_GUARDED_BY(stats_mutex_) = 0;
  uint64_t computed_ XSUM_GUARDED_BY(stats_mutex_) = 0;
  uint64_t incremental_ XSUM_GUARDED_BY(stats_mutex_) = 0;
  uint64_t coalesced_ XSUM_GUARDED_BY(stats_mutex_) = 0;
  uint64_t errors_ XSUM_GUARDED_BY(stats_mutex_) = 0;
  uint64_t chains_imported_ XSUM_GUARDED_BY(stats_mutex_) = 0;
  /// Lock-free (§9.4): polled by the drain sequence while requests run;
  /// a single word with no cross-field invariant.
  std::atomic<int64_t> in_flight_{0};
  WallTimer uptime_;
};

}  // namespace xsum::service

#endif  // XSUM_SERVICE_SERVICE_H_
