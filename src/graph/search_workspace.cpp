#include "graph/search_workspace.h"

#include <algorithm>
#include <bit>

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
         heap_.MemoryFootprintBytes() + union_find_.MemoryFootprintBytes() +
         pair_table_.MemoryFootprintBytes() +
         node_scratch_.capacity() * sizeof(NodeId) +
         edge_scratch_.capacity() * sizeof(EdgeId) +
         value_scratch_.capacity() * sizeof(double);
}

}  // namespace xsum::graph
