#include "service/service.h"

#include <utility>

#include "core/incremental.h"

namespace xsum::service {

SummaryService::SummaryService(GraphSnapshotRegistry* registry,
                               const ServiceOptions& options)
    : registry_(registry), options_(options), cache_(options.cache) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  latency_hist_ = metrics_.GetHistogram("service_latency_ms");
  compute_hist_ = metrics_.GetHistogram("service_compute_ms");
  slot_wait_hist_ = metrics_.GetHistogram("service_slot_wait_ms");
  uptime_.Start();
}

SummaryService::~SummaryService() = default;

std::shared_ptr<SummaryService::ServingState> SummaryService::CurrentState() {
  const uint64_t version = registry_->current_version();
  if (version == 0) return nullptr;
  {
    sync::MutexLock lock(state_mutex_);
    if (state_ != nullptr && state_->snapshot.version == version) {
      return state_;
    }
  }
  // Build the new serving state *outside* the lock: engine construction is
  // O(workers · graph) and must not stall concurrent cache hits during a
  // hot swap. Racing builders are possible and harmless — the loser's
  // state is discarded below.
  auto fresh = std::make_shared<ServingState>();
  fresh->snapshot = registry_->Current();
  if (!fresh->snapshot.valid()) return nullptr;
  fresh->engine = std::make_unique<core::BatchSummarizer>(
      *fresh->snapshot.graph, options_.num_workers,
      /*pool_workers=*/1, fresh->snapshot.views);
  fresh->free_workers.reserve(options_.num_workers);
  for (size_t w = options_.num_workers; w > 0; --w) {
    fresh->free_workers.push_back(w - 1);
  }
  sync::MutexLock lock(state_mutex_);
  if (state_ != nullptr && state_->snapshot.version >= fresh->snapshot.version) {
    return state_;  // someone else installed this (or a newer) version
  }
  if (state_ != nullptr) ++snapshot_swaps_;
  // In-flight requests keep pinning the old state (and through it the old
  // graph snapshot) until they finish; new requests route here.
  state_ = std::move(fresh);
  return state_;
}

Result<std::shared_ptr<const SummaryRecord>> SummaryService::ComputeOn(
    ServingState& state, const core::SummaryTask& task,
    const core::SummarizerOptions& options,
    const core::SummaryChain* prev_chain,
    std::shared_ptr<core::SummaryChain>* out_chain, obs::Trace* trace) {
  size_t worker = 0;
  {
    obs::SpanTimer slot_span(trace, "slot.wait");
    WallTimer slot_timer;
    slot_timer.Start();
    sync::MutexLock lock(state.mutex);
    while (state.free_workers.empty()) lock.Wait(state.slot_cv);
    worker = state.free_workers.back();
    state.free_workers.pop_back();
    if (options_.enable_metrics) {
      slot_wait_hist_->RecordMs(slot_timer.ElapsedMillis());
    }
  }
  // The cached checkpoint is immutable and shared; the step copies what it
  // can carry into a fresh compact chain (no retained trees — checkpoints
  // are byte-budgeted cache residents) and extends that. Chains exist
  // only for the method that can carry state (ST/KMB); everything else
  // computes chain-free and caches no checkpoint.
  const bool chainable =
      options.method == core::SummaryMethod::kSteiner &&
      options.steiner.variant == core::SteinerOptions::Variant::kKmb;
  std::shared_ptr<core::SummaryChain> next_chain;
  if (out_chain != nullptr && chainable) {
    next_chain = std::make_shared<core::SummaryChain>();
    next_chain->closure.retain_trees = false;
  }
  WallTimer compute_timer;
  compute_timer.Start();
  const double compute_start_ms =
      trace != nullptr ? trace->ElapsedMs() : 0.0;
  Result<core::Summary> result = state.engine->RunChainedWith(
      worker, task, options, prev_chain, next_chain.get());
  const double compute_ms = compute_timer.ElapsedMillis();
  if (options_.enable_metrics) compute_hist_->RecordMs(compute_ms);
  {
    sync::MutexLock lock(state.mutex);
    state.free_workers.push_back(worker);
  }
  state.slot_cv.notify_one();
  // A compute counts as incremental only when the predecessor's closure
  // rows were actually consulted — a stale or signature-mismatched hint
  // resets the chain and runs from scratch, and must not be reported as
  // reuse.
  const bool reused = result.ok() && next_chain != nullptr &&
                      next_chain->has_state &&
                      next_chain->closure.last_reused_pairs > 0;
  if (trace != nullptr) {
    trace->AddSpan("compute", compute_start_ms, compute_ms,
                   !result.ok()        ? "error"
                   : reused            ? "incremental"
                                       : "fresh");
  }
  {
    sync::MutexLock lock(stats_mutex_);
    ++computed_;
    if (reused) ++incremental_;
  }
  if (!result.ok()) return result.status();
  // A checkpoint recorded under an Eq. (1) overlay carries only to a step
  // whose overlay is bitwise the same. Over the whole catalog that step is
  // always the same task, which the cache answers by fingerprint before
  // any compute, so such a checkpoint is not cached (DESIGN.md §5.3).
  if (out_chain != nullptr && next_chain != nullptr &&
      next_chain->has_state &&
      next_chain->cost_sig.kind != core::CostSignature::Kind::kOverlay) {
    *out_chain = std::move(next_chain);
  }
  return std::make_shared<const SummaryRecord>(std::move(*result));
}

Result<std::shared_ptr<const SummaryRecord>> SummaryService::Summarize(
    const core::SummaryTask& task, const core::SummarizerOptions& options,
    const core::SummaryTask* predecessor, uint64_t* served_version,
    uint64_t route_key, obs::Trace* trace) {
  WallTimer timer;
  timer.Start();
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  struct InFlightGuard {
    std::atomic<int64_t>* gauge;
    ~InFlightGuard() { gauge->fetch_sub(1, std::memory_order_relaxed); }
  } in_flight_guard{&in_flight_};
  std::shared_ptr<ServingState> state = CurrentState();
  if (state == nullptr) {
    RecordLatency(timer.ElapsedMillis(), /*error=*/true);
    return Status::FailedPrecondition(
        "SummaryService: no graph snapshot published");
  }
  if (served_version != nullptr) {
    *served_version = state->snapshot.version;
  }

  if (!options_.enable_cache) {
    // Without a cache there is no (task, k−1) entry to seed from; the
    // predecessor hint is meaningless here.
    Result<std::shared_ptr<const SummaryRecord>> result =
        ComputeOn(*state, task, options, /*prev_chain=*/nullptr,
                  /*out_chain=*/nullptr, trace);
    RecordLatency(timer.ElapsedMillis(), !result.ok());
    return result;
  }

  CacheKey key;
  key.snapshot_version = state->snapshot.version;
  FingerprintTask(task, options, &key.fp_hi, &key.fp_lo);

  {
    obs::SpanTimer lookup_span(trace, "cache.lookup");
    std::shared_ptr<const SummaryRecord> hit = cache_.Lookup(key);
    if (hit != nullptr) {
      lookup_span.set_note("hit");
      RecordLatency(timer.ElapsedMillis(), /*error=*/false);
      return hit;
    }
    lookup_span.set_note("miss");
  }

  // Single-flight: first miss for this key becomes the leader; concurrent
  // identical misses block on the leader's flight and share its result.
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    sync::MutexLock lock(flights_mutex_);
    auto it = flights_.find(key);
    if (it != flights_.end()) {
      flight = it->second;
    } else {
      flight = std::make_shared<Flight>();
      flights_[key] = flight;
      leader = true;
    }
  }
  if (!leader) {
    Status status;
    std::shared_ptr<const SummaryRecord> record;
    {
      obs::SpanTimer wait_span(trace, "singleflight.wait");
      sync::MutexLock lock(flight->mutex);
      while (!flight->done) lock.Wait(flight->cv);
      status = flight->status;
      record = flight->record;
    }
    // Counters after the flight lock dropped: the service mutexes are
    // leaves, never held while another lock is taken (DESIGN.md §9.3).
    {
      sync::MutexLock stats_lock(stats_mutex_);
      ++coalesced_;
    }
    RecordLatency(timer.ElapsedMillis(), !status.ok());
    if (!status.ok()) return status;
    return record;
  }
  // The leader of an earlier flight for this key may have inserted its
  // record and deregistered between our cache miss and our registration.
  // Its record answers this request, counted once, as coalesced.
  if (std::shared_ptr<const SummaryRecord> landed = cache_.Peek(key)) {
    CompleteFlight(key, *flight, Status::OK(), landed);
    {
      sync::MutexLock stats_lock(stats_mutex_);
      ++coalesced_;
    }
    RecordLatency(timer.ElapsedMillis(), /*error=*/false);
    return landed;
  }

  // Incremental assist: a k-sweep caller names the same unit's k−1 task;
  // its cached chain checkpoint (recorded under the same snapshot version
  // and options) seeds this compute. Validity is re-verified inside the
  // engine (graph + cost signature), so a stale or mismatched hint can
  // only cost the lookup, never change the answer.
  std::shared_ptr<const core::SummaryChain> prev_chain;
  if (predecessor != nullptr) {
    obs::SpanTimer chain_span(trace, "chain.lookup");
    CacheKey pred_key;
    pred_key.snapshot_version = state->snapshot.version;
    FingerprintTask(*predecessor, options, &pred_key.fp_hi, &pred_key.fp_lo);
    prev_chain = cache_.LookupChain(pred_key);
    chain_span.set_note(prev_chain != nullptr ? "reusable" : "absent");
  }

  std::shared_ptr<core::SummaryChain> out_chain;
  Result<std::shared_ptr<const SummaryRecord>> result =
      ComputeOn(*state, task, options, prev_chain.get(), &out_chain, trace);
  if (result.ok()) {
    cache_.Insert(key, *result, std::move(out_chain), route_key);
  }
  CompleteFlight(key, *flight, result.status(),
                 result.ok() ? *result : nullptr);
  RecordLatency(timer.ElapsedMillis(), !result.ok());
  return result;
}

void SummaryService::CompleteFlight(
    const CacheKey& key, Flight& flight, const Status& status,
    std::shared_ptr<const SummaryRecord> record) {
  {
    sync::MutexLock lock(flight.mutex);
    flight.done = true;
    flight.status = status;
    flight.record = std::move(record);
  }
  {
    sync::MutexLock lock(flights_mutex_);
    flights_.erase(key);
  }
  flight.cv.notify_all();
}

Status SummaryService::ImportChain(const CacheKey& key, uint64_t route_key,
                                   core::SummaryChain chain) {
  std::shared_ptr<ServingState> state = CurrentState();
  if (state == nullptr) {
    return Status::FailedPrecondition(
        "SummaryService: no graph snapshot published");
  }
  if (key.snapshot_version != state->snapshot.version) {
    return Status::InvalidArgument(
        "imported chain names snapshot version " +
        std::to_string(key.snapshot_version) + " but this process serves " +
        std::to_string(state->snapshot.version));
  }
  if (route_key == 0) {
    return Status::InvalidArgument("imported chain carries no route key");
  }
  // Re-anchor: the engine's carry check compares graph *pointers*, so the
  // imported closure rows must claim this process's snapshot graph. That
  // claim is sound because fleet processes build bit-identical graphs
  // from the same dataset knobs and the version equality above pins the
  // publish generation (DESIGN.md §7).
  chain.graph = state->snapshot.graph.get();
  chain.has_state = true;
  chain.closure.retain_trees = false;
  cache_.InsertChainOnly(
      key, std::make_shared<const core::SummaryChain>(std::move(chain)),
      route_key);
  {
    sync::MutexLock lock(stats_mutex_);
    ++chains_imported_;
  }
  return Status::OK();
}

void SummaryService::RecordLatency(double ms, bool error) {
  // The histogram is lock-free; only the plain counters take the mutex.
  if (options_.enable_metrics) latency_hist_->RecordMs(ms);
  sync::MutexLock lock(stats_mutex_);
  ++requests_;
  if (error) ++errors_;
}

ServiceStats SummaryService::Stats() const {
  ServiceStats stats;
  stats.cache = cache_.stats();
  {
    sync::MutexLock lock(state_mutex_);
    stats.snapshot_swaps = snapshot_swaps_;
    stats.snapshot_version =
        state_ != nullptr ? state_->snapshot.version : 0;
  }
  stats.in_flight = in_flight_.load(std::memory_order_relaxed);
  sync::MutexLock lock(stats_mutex_);
  stats.requests = requests_;
  stats.computed = computed_;
  stats.incremental = incremental_;
  stats.coalesced = coalesced_;
  stats.errors = errors_;
  stats.chains_imported = chains_imported_;
  stats.uptime_seconds = uptime_.ElapsedSeconds();
  stats.qps = stats.uptime_seconds > 0.0
                  ? static_cast<double>(requests_) / stats.uptime_seconds
                  : 0.0;
  // Percentiles come from the mergeable obs histogram (PR 7), which
  // keeps the service-level contract the old reservoir had: no traffic
  // yet reports 0 for mean/p50/p99, one sample reports that sample for
  // every percentile (the snapshot's observed max collapses the bucket
  // bound), pinned by
  // service_test.StatsWellDefinedBeforeAndAfterFirstRequest.
  const obs::HistogramSnapshot latency = latency_hist_->Snapshot();
  if (latency.empty()) {
    stats.mean_ms = 0.0;
    stats.p50_ms = 0.0;
    stats.p99_ms = 0.0;
  } else {
    stats.mean_ms = latency.MeanMs();
    stats.p50_ms = latency.PercentileMs(50.0);
    stats.p99_ms = latency.PercentileMs(99.0);
  }
  return stats;
}

obs::MetricsSnapshot SummaryService::Metrics() const {
  obs::MetricsSnapshot snap = metrics_.Snapshot();
  const ServiceStats stats = Stats();
  // Overlay the mutex-guarded service counters and the cache counters
  // under stable names: everything here is a monotonic count or an
  // additive gauge, so the router's `+=` over shard snapshots is exact.
  snap.counters["service_requests"] = stats.requests;
  snap.counters["service_computed"] = stats.computed;
  snap.counters["service_incremental"] = stats.incremental;
  snap.counters["service_coalesced"] = stats.coalesced;
  snap.counters["service_errors"] = stats.errors;
  snap.counters["service_snapshot_swaps"] = stats.snapshot_swaps;
  snap.counters["service_chains_imported"] = stats.chains_imported;
  snap.counters["cache_hits"] = stats.cache.hits;
  snap.counters["cache_misses"] = stats.cache.misses;
  snap.counters["cache_insertions"] = stats.cache.insertions;
  snap.counters["cache_evictions"] = stats.cache.evictions;
  snap.gauges["service_in_flight"] = stats.in_flight;
  snap.gauges["service_snapshot_version"] =
      static_cast<int64_t>(stats.snapshot_version);
  snap.gauges["cache_entries"] = static_cast<int64_t>(stats.cache.entries);
  snap.gauges["cache_bytes"] = static_cast<int64_t>(stats.cache.bytes);
  return snap;
}

}  // namespace xsum::service
