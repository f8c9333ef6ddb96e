#include "graph/search_workspace.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace xsum::graph {

namespace {

/// Bumps an epoch counter, clearing the given stamp arrays on the (once in
/// 2^32 queries) wraparound so stale stamps can never alias a new epoch.
template <typename... StampVecs>
uint32_t BumpEpoch(uint32_t epoch, StampVecs&... stamps) {
  if (epoch == std::numeric_limits<uint32_t>::max()) {
    (std::fill(stamps.begin(), stamps.end(), 0u), ...);
    return 1;
  }
  return epoch + 1;
}

}  // namespace

// --- IndexedMinHeap --------------------------------------------------------

void IndexedMinHeap::Reset(size_t n) {
  if (n > pos_.size()) {
    pos_.resize(n, 0);
    pos_epoch_.resize(n, 0);
    keys_.resize(n);
    nodes_.resize(n);
  }
  epoch_ = BumpEpoch(epoch_, pos_epoch_);
  size_ = 0;
}

bool IndexedMinHeap::PushOrDecrease(NodeId v, double key) {
  if (pos_epoch_[v] == epoch_) {
    if (pos_[v] == kPopped) return false;  // already extracted this search
    const uint32_t slot = pos_[v];
    if (key >= keys_[slot]) return false;
    keys_[slot] = key;
    SiftUp(slot);
    return true;
  }
  const size_t slot = size_++;
  Place(slot, key, v);
  SiftUp(slot);
  return true;
}

NodeId IndexedMinHeap::PopMin() {
  assert(size_ > 0);
  const NodeId top = nodes_[0];
  pos_[top] = kPopped;
  --size_;
  if (size_ > 0) {
    MoveTo(0, keys_[size_], nodes_[size_]);
    SiftDown(0);
  }
  return top;
}

void IndexedMinHeap::SiftUp(size_t i) {
  const double key = keys_[i];
  const NodeId v = nodes_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (keys_[parent] <= key) break;
    MoveTo(i, keys_[parent], nodes_[parent]);
    i = parent;
  }
  MoveTo(i, key, v);
}

void IndexedMinHeap::SiftDown(size_t i) {
  const double key = keys_[i];
  const NodeId v = nodes_[i];
  while (true) {
    const size_t first_child = 4 * i + 1;
    if (first_child >= size_) break;
    const size_t last_child = std::min(first_child + 4, size_);
    size_t best = first_child;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (keys_[c] < keys_[best]) best = c;
    }
    if (keys_[best] >= key) break;
    MoveTo(i, keys_[best], nodes_[best]);
    i = best;
  }
  MoveTo(i, key, v);
}

// --- BucketFrontier --------------------------------------------------------

void BucketFrontier::Reset(size_t n, double lo, double hi) {
  if (buckets_.empty()) {
    buckets_.resize(kNumBuckets);
    sorted_.resize(kNumBuckets, 0);
  }
  for (size_t w = 0; w < kBitmapWords; ++w) {
    uint64_t word = occupied_[w];
    while (word != 0) {
      const size_t b = 64 * w + static_cast<size_t>(std::countr_zero(word));
      buckets_[b].clear();
      sorted_[b] = 0;
      word &= word - 1;
    }
    occupied_[w] = 0;
  }
  if (n > node_state_.size()) {
    node_state_.resize(n, NodeState{0.0, 0, 0});
  }
  if (epoch_ == std::numeric_limits<uint32_t>::max()) {
    for (NodeState& s : node_state_) s.stamp = 0;
    epoch_ = 1;
  } else {
    ++epoch_;
  }
  lo_ = lo;
  const double range = hi - lo;
  // Map [lo, hi] onto [0, kNumBuckets); a degenerate (or inverted) range
  // collapses everything into bucket 0, which stays correct because pops
  // scan the bucket for the exact minimum.
  bucket_scale_ =
      range > 0.0 ? static_cast<double>(kNumBuckets - 1) / range : 0.0;
  size_ = 0;
}

size_t BucketFrontier::BucketOf(double key) const {
  const double offset = (key - lo_) * bucket_scale_;
  if (!(offset > 0.0)) return 0;  // below range (or NaN): clamp down
  const size_t b = static_cast<size_t>(offset);
  return b >= kNumBuckets ? kNumBuckets - 1 : b;  // above range: clamp up
}

bool BucketFrontier::PushOrDecrease(NodeId v, double key) {
  NodeState& s = node_state_[v];
  if (s.stamp == epoch_) {
    if (s.popped == epoch_) return false;  // already extracted this reset
    if (key >= s.key) return false;
  } else {
    s.stamp = epoch_;
    s.popped = epoch_ - 1;
    ++size_;
  }
  s.key = key;  // the old entry (if any) is now stale
  const size_t b = BucketOf(key);
  buckets_[b].push_back(Entry{key, v});
  occupied_[b / 64] |= uint64_t{1} << (b % 64);
  return true;
}

NodeId BucketFrontier::PopMin() {
  assert(size_ > 0);
  size_t w = 0;
  while (true) {
    while (occupied_[w] == 0) {
      ++w;
      assert(w < kBitmapWords && "PopMin on a frontier with no live entry");
    }
    const size_t b =
        64 * w + static_cast<size_t>(std::countr_zero(occupied_[w]));
    std::vector<Entry>& bucket = buckets_[b];
    // Lower buckets hold no live entry — their bits are cleared when they
    // drain, and a decrease republishes into its (lower) bucket and
    // re-sets that bit — so this bucket's minimum is the global minimum.
    if (bucket.size() != sorted_[b]) {
      // Entries were appended since the last sort: compact stale ones
      // (popped nodes, superseded keys) and re-sort so the exact minimum
      // sits at the back.
      size_t live = 0;
      for (size_t i = 0; i < bucket.size(); ++i) {
        const Entry e = bucket[i];
        const NodeState& s = node_state_[e.node];
        if (s.popped == epoch_ || e.key != s.key) continue;
        bucket[live++] = e;
      }
      bucket.resize(live);
      std::sort(bucket.begin(), bucket.end(),
                [](const Entry& lhs, const Entry& rhs) {
                  if (lhs.key != rhs.key) return lhs.key > rhs.key;
                  // equal keys: smaller id pops first
                  return lhs.node > rhs.node;
                });
      sorted_[b] = static_cast<uint32_t>(live);
    }
    while (!bucket.empty()) {
      const Entry e = bucket.back();
      bucket.pop_back();
      sorted_[b] = static_cast<uint32_t>(bucket.size());
      // Entries sorted before a decrease can still be stale; skip them.
      NodeState& s = node_state_[e.node];
      if (s.popped == epoch_ || e.key != s.key) continue;
      if (bucket.empty()) occupied_[w] &= ~(uint64_t{1} << (b % 64));
      s.popped = epoch_;
      --size_;
      return e.node;
    }
    occupied_[w] &= ~(uint64_t{1} << (b % 64));
  }
}

size_t BucketFrontier::MemoryFootprintBytes() const {
  size_t bytes = buckets_.capacity() * sizeof(std::vector<Entry>) +
                 sorted_.capacity() * sizeof(uint32_t) +
                 node_state_.capacity() * sizeof(NodeState);
  for (const std::vector<Entry>& bucket : buckets_) {
    bytes += bucket.capacity() * sizeof(Entry);
  }
  return bytes;
}

// --- DeltaSteppingFrontier -------------------------------------------------

void DeltaSteppingFrontier::Reset(size_t n, double lo, double hi,
                                  double delta) {
  // Clear only the buckets the previous search dirtied (bitmap scan, like
  // BucketFrontier) before resizing the bucket array for the new width.
  for (size_t w = 0; w < occupied_.size(); ++w) {
    uint64_t word = occupied_[w];
    while (word != 0) {
      const size_t b = 64 * w + static_cast<size_t>(std::countr_zero(word));
      buckets_[b].clear();
      sorted_[b] = 0;
      word &= word - 1;
    }
    occupied_[w] = 0;
  }
  const double range = hi - lo;
  size_t want = 1;
  if (range > 0.0 && delta > 0.0 && std::isfinite(range / delta)) {
    const double count = range / delta + 1.0;
    want = count >= static_cast<double>(kMaxBuckets)
               ? kMaxBuckets
               : static_cast<size_t>(count);
    if (want == 0) want = 1;
  }
  if (want > buckets_.size()) {
    buckets_.resize(want);
    sorted_.resize(want, 0);
  }
  occupied_.assign((want + 63) / 64, 0);
  num_buckets_ = want;
  if (n > node_state_.size()) {
    node_state_.resize(n, NodeState{0.0, 0, 0});
  }
  if (epoch_ == std::numeric_limits<uint32_t>::max()) {
    for (NodeState& s : node_state_) s.stamp = 0;
    epoch_ = 1;
  } else {
    ++epoch_;
  }
  lo_ = lo;
  bucket_scale_ =
      range > 0.0 ? static_cast<double>(num_buckets_ - 1) / range : 0.0;
  size_ = 0;
}

double DeltaSteppingFrontier::CalibrateDelta(double lo, double hi,
                                             size_t expected_settles) {
  const double range = hi - lo;
  if (!(range > 0.0) || !std::isfinite(range)) return 1.0;
  const size_t buckets =
      std::clamp<size_t>(expected_settles, size_t{1}, kMaxBuckets);
  return range / static_cast<double>(buckets);
}

size_t DeltaSteppingFrontier::BucketOf(double key) const {
  const double offset = (key - lo_) * bucket_scale_;
  if (!(offset > 0.0)) return 0;  // below range (or NaN): clamp down
  const size_t b = static_cast<size_t>(offset);
  return b >= num_buckets_ ? num_buckets_ - 1 : b;  // above range: clamp up
}

bool DeltaSteppingFrontier::PushOrDecrease(NodeId v, double key) {
  NodeState& s = node_state_[v];
  if (s.stamp == epoch_) {
    if (s.popped == epoch_) return false;  // already extracted this reset
    if (key >= s.key) return false;
  } else {
    s.stamp = epoch_;
    s.popped = epoch_ - 1;
    ++size_;
  }
  s.key = key;  // the old entry (if any) is now stale
  const size_t b = BucketOf(key);
  buckets_[b].push_back(Entry{key, v});
  occupied_[b / 64] |= uint64_t{1} << (b % 64);
  return true;
}

NodeId DeltaSteppingFrontier::PopMin() {
  assert(size_ > 0);
  size_t w = 0;
  while (true) {
    while (occupied_[w] == 0) {
      ++w;
      assert(w < occupied_.size() && "PopMin on a frontier with no live entry");
    }
    const size_t b =
        64 * w + static_cast<size_t>(std::countr_zero(occupied_[w]));
    std::vector<Entry>& bucket = buckets_[b];
    // Lower buckets hold no live entry (their bits clear as they drain and
    // decreases republish downward), so this bucket's exact minimum is the
    // global minimum — same argument as BucketFrontier::PopMin.
    if (bucket.size() != sorted_[b]) {
      size_t live = 0;
      for (size_t i = 0; i < bucket.size(); ++i) {
        const Entry e = bucket[i];
        const NodeState& s = node_state_[e.node];
        if (s.popped == epoch_ || e.key != s.key) continue;
        bucket[live++] = e;
      }
      bucket.resize(live);
      std::sort(bucket.begin(), bucket.end(),
                [](const Entry& lhs, const Entry& rhs) {
                  if (lhs.key != rhs.key) return lhs.key > rhs.key;
                  // equal keys: smaller id pops first
                  return lhs.node > rhs.node;
                });
      sorted_[b] = static_cast<uint32_t>(live);
    }
    while (!bucket.empty()) {
      const Entry e = bucket.back();
      bucket.pop_back();
      sorted_[b] = static_cast<uint32_t>(bucket.size());
      NodeState& s = node_state_[e.node];
      if (s.popped == epoch_ || e.key != s.key) continue;
      if (bucket.empty()) occupied_[w] &= ~(uint64_t{1} << (b % 64));
      s.popped = epoch_;
      --size_;
      return e.node;
    }
    occupied_[w] &= ~(uint64_t{1} << (b % 64));
  }
}

size_t DeltaSteppingFrontier::MemoryFootprintBytes() const {
  size_t bytes = buckets_.capacity() * sizeof(std::vector<Entry>) +
                 sorted_.capacity() * sizeof(uint32_t) +
                 occupied_.capacity() * sizeof(uint64_t) +
                 node_state_.capacity() * sizeof(NodeState);
  for (const std::vector<Entry>& bucket : buckets_) {
    bytes += bucket.capacity() * sizeof(Entry);
  }
  return bytes;
}

// --- EpochUnionFind --------------------------------------------------------

void EpochUnionFind::Reset(size_t n) {
  if (n > parent_.size()) {
    parent_.resize(n, 0);
    stamp_.resize(n, 0);
  }
  epoch_ = BumpEpoch(epoch_, stamp_);
  touched_ = 0;
}

NodeId EpochUnionFind::Find(NodeId x) {
  if (stamp_[x] != epoch_) {
    stamp_[x] = epoch_;
    parent_[x] = x;
    ++touched_;
    return x;
  }
  NodeId root = x;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[x] != root) {  // path compression
    const NodeId next = parent_[x];
    parent_[x] = root;
    x = next;
  }
  return root;
}

// --- PairMinTable ----------------------------------------------------------

void PairMinTable::Reset() {
  slots_.assign(kMinCapacity, Entry{kVacant, 0.0, kInvalidEdge});
  shift_ = 64 - std::countr_zero(kMinCapacity);
  size_ = 0;
}

void PairMinTable::Offer(uint32_t a, uint32_t b, double weight, EdgeId edge) {
  assert(a != b);
  const uint64_t key =
      a < b ? (uint64_t{a} << 32 | b) : (uint64_t{b} << 32 | a);
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(key);; i = (i + 1) & mask) {
    Entry& slot = slots_[i];
    if (slot.key == key) {
      if (weight < slot.weight) {
        slot.weight = weight;
        slot.edge = edge;
      }
      return;
    }
    if (slot.key == kVacant) {
      if (2 * (size_ + 1) > slots_.size()) {
        Grow();
        Offer(a, b, weight, edge);
        return;
      }
      slot = Entry{key, weight, edge};
      ++size_;
      return;
    }
  }
}

void PairMinTable::Grow() {
  spare_.swap(slots_);
  slots_.assign(2 * spare_.size(), Entry{kVacant, 0.0, kInvalidEdge});
  --shift_;
  const size_t mask = slots_.size() - 1;
  for (const Entry& entry : spare_) {
    if (entry.key == kVacant) continue;
    size_t i = Home(entry.key);
    while (slots_[i].key != kVacant) i = (i + 1) & mask;
    slots_[i] = entry;
  }
}

// --- SearchWorkspace -------------------------------------------------------

void SearchWorkspace::Begin(size_t n) {
  if (n > state_.size()) {
    state_.resize(n, NodeState{0.0, 0, 0});
    parent_.resize(n);
    origin_.resize(n);
    tag_.resize(n);
    mark_stamp_.resize(n, 0);
    tag_stamp_.resize(n, 0);
  }
  if (epoch_ == std::numeric_limits<uint32_t>::max()) {
    for (NodeState& s : state_) s.stamp = 0;
    std::fill(mark_stamp_.begin(), mark_stamp_.end(), 0u);
    std::fill(tag_stamp_.begin(), tag_stamp_.end(), 0u);
    epoch_ = 1;
  } else {
    ++epoch_;
  }
  heap_.Reset(n);
}

size_t SearchWorkspace::MemoryFootprintBytes() const {
  return state_.capacity() * sizeof(NodeState) +
         parent_.capacity() * sizeof(ParentLink) +
         origin_.capacity() * sizeof(NodeId) +
         tag_.capacity() * sizeof(uint32_t) +
         (mark_stamp_.capacity() + tag_stamp_.capacity()) * sizeof(uint32_t) +
         heap_.MemoryFootprintBytes() + bucket_frontier_.MemoryFootprintBytes() +
         delta_frontier_.MemoryFootprintBytes() +
         union_find_.MemoryFootprintBytes() +
         pair_table_.MemoryFootprintBytes() +
         node_scratch_.capacity() * sizeof(NodeId) +
         edge_scratch_.capacity() * sizeof(EdgeId) +
         value_scratch_.capacity() * sizeof(double);
}

}  // namespace xsum::graph
