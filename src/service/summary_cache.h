/// \file summary_cache.h
/// \brief Sharded, task-keyed LRU cache of computed summary records — the
/// result store of the summary service layer (DESIGN.md §3).
///
/// The paper's workloads are inherently repetitive: the same user/group
/// task recurs across metric panels, λ values, and overlapping k-prefixes,
/// and a serving deployment sees the same hot users over and over (Zipf
/// traffic). Recomputing a Steiner/PCST summary costs graph searches; a
/// cache hit costs one hash and one shard-local list splice.
///
/// Keying. A cache key is the pair (graph snapshot version, 128-bit task
/// fingerprint). The fingerprint covers *everything* that determines the
/// summary bits: scenario, anchors, terminal set, explanation paths, |S|,
/// method, λ, cost mode, and the Steiner/PCST option blocks. Entries for a
/// superseded graph version are invalidated *by construction* — their keys
/// can never match a request carrying the new version — and age out under
/// LRU pressure; no scan ever walks the cache (see
/// `GraphSnapshotRegistry`).
///
/// Sharding. Keys are distributed over `num_shards` independent shards
/// (shard = fingerprint-low bits), each with its own mutex, LRU list, and
/// slice of the byte budget, so concurrent requests for different tasks do
/// not serialize on one lock. Values are `shared_ptr<const SummaryRecord>`:
/// readers share the stored record (the summary plus its write-once
/// evaluation slot); eviction never invalidates a record a caller already
/// holds.
///
/// Budget. `Options::max_bytes` bounds the *accounted* resident size — the
/// `SummaryRecord::MemoryFootprintBytes` of every cached value plus
/// per-entry bookkeeping — enforced per shard (budget / num_shards each);
/// inserting past the budget evicts least-recently-used entries first. A
/// value larger than a whole shard budget is simply not retained.

#ifndef XSUM_SERVICE_SUMMARY_CACHE_H_
#define XSUM_SERVICE_SUMMARY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/summarizer.h"
#include "eval/eval_stats.h"
#include "util/sync.h"

namespace xsum::core {
struct SummaryChain;  // incremental.h
}  // namespace xsum::core

namespace xsum::service {

/// \brief Cache key: graph snapshot version + 128-bit task fingerprint.
struct CacheKey {
  uint64_t snapshot_version = 0;
  uint64_t fp_hi = 0;
  uint64_t fp_lo = 0;

  bool operator==(const CacheKey& other) const {
    return snapshot_version == other.snapshot_version &&
           fp_hi == other.fp_hi && fp_lo == other.fp_lo;
  }
};

/// \brief Hash functor for `CacheKey` (the fingerprint already is a hash).
struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const {
    return static_cast<size_t>(key.fp_lo ^ (key.snapshot_version * 0x9E3779B97F4A7C15ULL));
  }
};

/// Computes the 128-bit fingerprint of (task, options): two independently
/// seeded SplitMix64 chains over the task's scenario/anchors/terminals/
/// paths/|S| and the full option block (method, λ bits, cost mode, Steiner
/// variant+cleanup, PCST policy/flags/slack). Collisions between distinct
/// tasks need both 64-bit lanes to collide simultaneously (~2^-128).
void FingerprintTask(const core::SummaryTask& task,
                     const core::SummarizerOptions& options, uint64_t* fp_hi,
                     uint64_t* fp_lo);

/// Accounted resident bytes of a cached summary (subgraph + paths +
/// terminal/anchor vectors + the struct itself).
size_t SummaryFootprintBytes(const core::Summary& summary);

/// \brief One cached answer: the immutable summary plus a write-once slot
/// for its paper §V-B metric values (DESIGN.md §3.1, §10.5).
///
/// The values depend only on the summary and the snapshot it was computed
/// on, and the record lives under exactly one (snapshot version, task
/// fingerprint) key, so the serving handler evaluates a record at most
/// once and folds the stored values on every later serve. The slot fills
/// lazily: callers that never evaluate (the panel runner, the benches,
/// `XSUM_EVAL_STATS=0`) never pay for it. Thread-safe; share via
/// `shared_ptr<const SummaryRecord>`.
class SummaryRecord {
 public:
  explicit SummaryRecord(core::Summary summary)
      : summary_(std::move(summary)) {}

  SummaryRecord(const SummaryRecord&) = delete;
  SummaryRecord& operator=(const SummaryRecord&) = delete;

  const core::Summary& summary() const { return summary_; }

  /// The stored metric values, or nullptr while the slot is empty.
  const eval::SummaryMetricValues* metric_values() const {
    return filled_.load(std::memory_order_acquire) ? &metric_values_
                                                   : nullptr;
  }

  /// Fills the slot with `evaluate()` unless it is already filled, and
  /// returns the stored values. `evaluate` runs at most once over the
  /// record's lifetime; concurrent callers block until it has returned.
  template <typename Evaluate>
  const eval::SummaryMetricValues& FillMetricValues(
      Evaluate&& evaluate) const {
    std::call_once(fill_once_, [&] {
      metric_values_ = evaluate();
      filled_.store(true, std::memory_order_release);
    });
    return metric_values_;
  }

  /// Accounted resident bytes: the summary's footprint plus the record
  /// itself, slot included.
  size_t MemoryFootprintBytes() const {
    return SummaryFootprintBytes(summary_) - sizeof(core::Summary) +
           sizeof(SummaryRecord);
  }

 private:
  const core::Summary summary_;
  mutable std::once_flag fill_once_;
  /// Set (release) after the slot is written — lets `metric_values()`
  /// observe a filled slot without entering call_once.
  mutable std::atomic<bool> filled_{false};
  mutable eval::SummaryMetricValues metric_values_;
};

/// \brief Aggregated cache counters (summed over shards).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;     ///< LRU evictions (budget pressure)
  uint64_t rejected = 0;      ///< values larger than a whole shard budget
  size_t entries = 0;         ///< currently resident entries
  size_t bytes = 0;           ///< currently accounted bytes
  size_t max_bytes = 0;       ///< configured budget

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// \brief The sharded LRU cache. All methods are thread-safe.
class SummaryCache {
 public:
  struct Options {
    /// Total byte budget across all shards.
    size_t max_bytes = 64ull << 20;
    /// Shard count; rounded up to a power of two, min 1.
    size_t num_shards = 8;
  };

  SummaryCache();
  explicit SummaryCache(const Options& options);

  /// Returns the cached record for \p key and marks it most-recently-used,
  /// or nullptr on miss.
  std::shared_ptr<const SummaryRecord> Lookup(const CacheKey& key);

  /// Returns the cached record for \p key, or nullptr, without touching
  /// the hit/miss counters or the LRU order: the service's re-check after
  /// a request that already missed wins its single-flight registration,
  /// which must not count the request twice.
  std::shared_ptr<const SummaryRecord> Peek(const CacheKey& key);

  /// Returns the chain checkpoint stored alongside \p key's record, or
  /// nullptr when the key is absent or was inserted without one. Does not
  /// touch the hit/miss counters or the LRU order: this is the internal
  /// assist the service uses to summarize a (task, k) miss incrementally
  /// from the (task, k−1) entry, not a cache answer.
  std::shared_ptr<const core::SummaryChain> LookupChain(const CacheKey& key);

  /// Inserts \p record under \p key (no-op if the key already holds a
  /// record — first writer wins, so concurrent single-flight losers
  /// don't churn the LRU list; a chain-only placeholder from a drain
  /// handoff *is* upgraded in place, keeping its imported chain when the
  /// writer brings none). Evicts LRU entries until the shard fits its
  /// budget slice. \p chain optionally attaches the summarization chain
  /// checkpoint that produced the summary (its footprint counts against
  /// the byte budget); \p route_key tags the entry with its routing
  /// fingerprint (`UnitFingerprint`) so a drain can hand the chain to
  /// the ring inheritor (0 = untagged, not exportable).
  void Insert(const CacheKey& key,
              std::shared_ptr<const SummaryRecord> record,
              std::shared_ptr<const core::SummaryChain> chain = nullptr,
              uint64_t route_key = 0);

  /// Inserts \p chain as a record-less placeholder entry (a drained
  /// peer's checkpoint import): `Lookup` misses it, `LookupChain` serves
  /// it, and the next computed record for the key upgrades it in place.
  /// An existing entry that already carries a chain wins over the import.
  void InsertChainOnly(const CacheKey& key,
                       std::shared_ptr<const core::SummaryChain> chain,
                       uint64_t route_key);

  /// \brief One exportable chain checkpoint (drain handoff wire unit).
  struct ChainExport {
    CacheKey key;
    uint64_t route_key = 0;
    std::shared_ptr<const core::SummaryChain> chain;
  };

  /// Every resident entry that carries both a chain checkpoint and a
  /// route key — the state worth handing to ring inheritors on drain.
  std::vector<ChainExport> ExportChains() const;

  /// Drops every entry (counters are kept).
  void Clear();

  /// Aggregated counters over all shards.
  CacheStats stats() const;

  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    CacheKey key;
    /// Null for a chain-only placeholder (imported drain checkpoint).
    std::shared_ptr<const SummaryRecord> record;
    /// Chain checkpoint of the chained-summarization path (may be null).
    std::shared_ptr<const core::SummaryChain> chain;
    /// `UnitFingerprint` of the request that produced the entry; 0 when
    /// unknown (entries inserted outside the routed path).
    uint64_t route_key = 0;
    size_t bytes = 0;
  };
  /// One independently locked LRU slice; front = most recently used.
  /// The shard mutex is a leaf capability: nothing else is ever acquired
  /// under it (DESIGN.md §9.3 lock hierarchy).
  struct Shard {
    mutable sync::Mutex mutex;
    std::list<Entry> lru XSUM_GUARDED_BY(mutex);
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash> map
        XSUM_GUARDED_BY(mutex);
    size_t bytes XSUM_GUARDED_BY(mutex) = 0;
    uint64_t hits XSUM_GUARDED_BY(mutex) = 0;
    uint64_t misses XSUM_GUARDED_BY(mutex) = 0;
    uint64_t insertions XSUM_GUARDED_BY(mutex) = 0;
    uint64_t evictions XSUM_GUARDED_BY(mutex) = 0;
    uint64_t rejected XSUM_GUARDED_BY(mutex) = 0;
  };

  Shard& ShardFor(const CacheKey& key) {
    return *shards_[key.fp_lo & shard_mask_];
  }

  /// Budget check + LRU eviction + front insertion of \p entry (bytes
  /// already computed). Caller holds the shard lock and has removed any
  /// previous entry for the key.
  void EmplaceLocked(Shard& shard, Entry entry) XSUM_REQUIRES(shard.mutex);

  size_t max_bytes_;
  size_t shard_budget_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace xsum::service

#endif  // XSUM_SERVICE_SUMMARY_CACHE_H_
