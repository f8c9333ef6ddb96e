/// \file search_workspace.h
/// \brief Reusable, epoch-stamped scratch state for graph searches — the
/// allocation-free engine under Dijkstra, multi-source Dijkstra, and the
/// PCST growth loop.
///
/// The seed implementation re-allocated (and `assign`-filled) O(|V|)
/// dist/parent/settled arrays on every query, which dominates the cost of
/// searches that settle only a small neighbourhood (every early-exiting
/// terminal-closure Dijkstra, every PCST growth that stops once the
/// terminals connect). A `SearchWorkspace` keeps those arrays alive across
/// queries and resets them in O(1) by bumping an epoch counter: a per-node
/// value is valid only if its stamp equals the current epoch, so stale
/// entries from earlier queries read as "unset" without ever being
/// touched. See DESIGN.md §2 for the full invariants.
///
/// Facilities (each with an independent stamp array, all sharing the
/// workspace epoch bumped by `Begin`):
///  - shortest-path state: dist / parent_node / parent_edge / origin
///  - a settled-node flag set
///  - a mark set (terminal / target membership tests)
///  - a u32 tag map (dense node→index translations, small counters)
///  - an indexed 4-ary min-heap with decrease-key (`IndexedMinHeap`), the
///    one priority queue of every search and of the PCST growth
///  - an epoch-stamped union-find (`EpochUnionFind`, self-resetting)
///  - a pair-keyed min table (`PairMinTable`, self-resetting; Mehlhorn's
///    per-cell-pair bridges)
///  - unstamped scratch vectors callers clear themselves
///
/// A workspace may be reused across graphs of different sizes: `Begin(n)`
/// grows capacity as needed and never shrinks. Workspaces are not
/// thread-safe; use one per worker thread.

#ifndef XSUM_GRAPH_SEARCH_WORKSPACE_H_
#define XSUM_GRAPH_SEARCH_WORKSPACE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/types.h"

namespace xsum::graph {

/// Distance value meaning "unreached" (mirrors dijkstra.h; re-declared here
/// to keep this header dependency-free).
inline constexpr double kUnreachedDistance =
    std::numeric_limits<double>::infinity();

/// \brief Indexed 4-ary min-heap over dense node ids with decrease-key.
///
/// Four-way layout halves the tree depth of a binary heap and keeps the
/// children of a node on one cache line, which benchmarks faster for the
/// relax-heavy workloads here. Each node appears at most once; a cheaper
/// re-insertion is a sift-up instead of a duplicate entry, so a node pops
/// exactly once per search and no stale-entry checks are needed.
///
/// Slot-position lookups are epoch-stamped: `Reset` is O(1) and leaves the
/// slot arrays' capacity in place.
class IndexedMinHeap {
 public:
  /// Prepares the heap for ids in [0, n). O(1) amortized.
  void Reset(size_t n);

  bool Empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// True iff \p v is currently queued.
  bool Contains(NodeId v) const {
    return pos_epoch_[v] == epoch_ && pos_[v] != kPopped;
  }

  /// Key of a queued node; requires `Contains(v)`.
  double KeyOf(NodeId v) const { return keys_[pos_[v]]; }

  /// Inserts \p v with \p key, or lowers its key if already queued with a
  /// larger one. Returns true iff the heap changed (insert or decrease).
  bool PushOrDecrease(NodeId v, double key);

  /// Removes and returns the node with the smallest key; requires
  /// `!Empty()`. Ties broken by heap layout (deterministic).
  NodeId PopMin();

  /// Smallest key; requires `!Empty()`.
  double MinKey() const { return keys_[0]; }

  size_t MemoryFootprintBytes() const {
    return keys_.capacity() * sizeof(double) +
           nodes_.capacity() * sizeof(NodeId) +
           pos_.capacity() * sizeof(uint32_t) +
           pos_epoch_.capacity() * sizeof(uint32_t);
  }

 private:
  static constexpr uint32_t kPopped = std::numeric_limits<uint32_t>::max();

  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void Place(size_t slot, double key, NodeId v) {
    MoveTo(slot, key, v);
    pos_epoch_[v] = epoch_;
  }
  /// Place for a node already stamped this epoch (all sift moves).
  void MoveTo(size_t slot, double key, NodeId v) {
    keys_[slot] = key;
    nodes_[slot] = v;
    pos_[v] = static_cast<uint32_t>(slot);
  }

  std::vector<double> keys_;    // heap slots, parallel to nodes_
  std::vector<NodeId> nodes_;   // heap slots
  std::vector<uint32_t> pos_;   // node -> slot; valid iff pos_epoch_ matches
  std::vector<uint32_t> pos_epoch_;
  uint32_t epoch_ = 0;
  size_t size_ = 0;
};

/// \brief Epoch-stamped disjoint-set forest over dense node ids.
///
/// Replaces the seed's `unordered_map`-backed sparse union-find in the PCST
/// growth loop: `Reset` is O(1), `Find` lazily initializes a node to its own
/// singleton on first touch. The smaller root id wins a union, matching the
/// seed's deterministic merge rule.
class EpochUnionFind {
 public:
  /// Starts a fresh partition over ids [0, n). O(1) amortized.
  void Reset(size_t n);

  NodeId Find(NodeId x);

  /// Merges the sets of \p a and \p b; returns false if already merged.
  bool Union(NodeId a, NodeId b) {
    NodeId ra = Find(a);
    NodeId rb = Find(b);
    if (ra == rb) return false;
    if (ra > rb) std::swap(ra, rb);
    parent_[rb] = ra;
    return true;
  }

  /// Number of nodes touched since the last Reset.
  size_t touched() const { return touched_; }

  size_t MemoryFootprintBytes() const {
    return parent_.capacity() * sizeof(NodeId) +
           stamp_.capacity() * sizeof(uint32_t);
  }

 private:
  std::vector<NodeId> parent_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  size_t touched_ = 0;
};

/// \brief Open-addressing map from an unordered pair of distinct dense ids
/// to the cheapest (weight, edge) offered for it — Mehlhorn's per-cell-pair
/// bridge table.
///
/// The table starts at a small power of two and doubles past half load, so
/// its size follows the number of distinct pairs offered, never ids². An
/// offer replaces the kept entry only on a strictly smaller weight, so on
/// equal weights the first offer wins. Buffers keep their capacity across
/// `Reset`s.
class PairMinTable {
 public:
  struct Entry {
    uint64_t key;  ///< min(a, b) << 32 | max(a, b); `kVacant` if unused
    double weight;
    EdgeId edge;
  };
  static constexpr uint64_t kVacant = std::numeric_limits<uint64_t>::max();

  /// Empties the table back to its smallest size. O(1); the buffers keep
  /// their capacity.
  void Reset();

  /// Keeps (\p weight, \p edge) for the pair {a, b} (a != b) if the pair is
  /// new or \p weight is strictly below the kept one.
  void Offer(uint32_t a, uint32_t b, double weight, EdgeId edge);

  /// Distinct pairs offered since the last `Reset`.
  size_t size() const { return size_; }
  /// Slot count of the current table: a power of two, at least twice
  /// `size()`, and a function of the offers since `Reset` alone (so a
  /// query can charge `capacity() * sizeof(Entry)` deterministically).
  size_t capacity() const { return slots_.size(); }

  /// Calls \p fn(const Entry&) for every kept pair, in slot order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Entry& entry : slots_) {
      if (entry.key != kVacant) fn(entry);
    }
  }

  size_t MemoryFootprintBytes() const {
    return (slots_.capacity() + spare_.capacity()) * sizeof(Entry);
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  /// Doubles the table and re-inserts every kept entry.
  void Grow();
  size_t Home(uint64_t key) const {
    // Fibonacci hashing: the top log2(capacity) bits of key * 2^64/phi.
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  std::vector<Entry> slots_;  // size() is the current power-of-two capacity
  std::vector<Entry> spare_;  // rehash source of `Grow` (capacity reuse)
  size_t size_ = 0;
  unsigned shift_ = 64;
};

/// \brief Reusable per-thread search state (see file comment).
class SearchWorkspace {
 public:
  /// Begins a new logical search over node ids [0, n): invalidates all
  /// stamped state and resets the heap. O(1) unless capacity grows.
  void Begin(size_t n);

  /// Current id capacity (the largest n passed to Begin so far).
  size_t capacity() const { return state_.size(); }

  // --- shortest-path state (one 16-byte record per node) -----------------
  //
  // dist, its validity stamp, and the settled flag share one cache-line
  // record: the Dijkstra scan loop touches a neighbor's entire search
  // state with a single random memory access (the dominant cost on dense
  // graphs). Parent node+edge live in one 8-byte record written once per
  // relax.

  /// True iff \p v was relaxed in the current search.
  bool reached(NodeId v) const { return state_[v].stamp == epoch_; }
  double dist(NodeId v) const {
    const NodeState& s = state_[v];
    return s.stamp == epoch_ ? s.dist : kUnreachedDistance;
  }
  NodeId parent_node(NodeId v) const {
    return reached(v) ? parent_[v].node : kInvalidNode;
  }
  EdgeId parent_edge(NodeId v) const {
    return reached(v) ? parent_[v].edge : kInvalidEdge;
  }
  /// The search source \p v is assigned to (multi-source searches; written
  /// only by `RelaxFrom`).
  NodeId origin(NodeId v) const { return reached(v) ? origin_[v] : kInvalidNode; }

  /// Records an improved path to \p v. Must not be called on a settled
  /// node (Dijkstra never improves one under non-negative costs).
  void Relax(NodeId v, double d, NodeId parent, EdgeId via) {
    state_[v] = NodeState{d, epoch_, 0};
    parent_[v] = ParentLink{parent, via};
  }

  /// Relax for multi-source searches: also records the origin cell.
  void RelaxFrom(NodeId v, double d, NodeId parent, EdgeId via,
                 NodeId source) {
    Relax(v, d, parent, via);
    origin_[v] = source;
  }

  // --- settled flags (stored inside the node state record) ---------------

  bool settled(NodeId v) const {
    const NodeState& s = state_[v];
    return s.stamp == epoch_ && s.settled != 0;
  }
  void SetSettled(NodeId v) {
    NodeState& s = state_[v];
    if (s.stamp != epoch_) {
      // Settling an unreached node (e.g. a PCST seed): give it a valid
      // record with an unreached distance.
      s.dist = kUnreachedDistance;
      s.stamp = epoch_;
    }
    s.settled = 1;
  }

  // --- marks (stamp: mark_stamp_) ----------------------------------------

  bool marked(NodeId v) const { return mark_stamp_[v] == epoch_; }
  /// Marks \p v; returns true iff it was not already marked.
  bool Mark(NodeId v) {
    if (marked(v)) return false;
    mark_stamp_[v] = epoch_;
    return true;
  }
  void Unmark(NodeId v) { mark_stamp_[v] = epoch_ - 1; }

  // --- u32 tags (stamp: tag_stamp_) --------------------------------------

  bool has_tag(NodeId v) const { return tag_stamp_[v] == epoch_; }
  /// Tag of \p v, or \p fallback when unset this epoch.
  uint32_t TagOr(NodeId v, uint32_t fallback) const {
    return has_tag(v) ? tag_[v] : fallback;
  }
  void SetTag(NodeId v, uint32_t t) {
    tag_[v] = t;
    tag_stamp_[v] = epoch_;
  }

  // --- sub-structures ----------------------------------------------------

  IndexedMinHeap& heap() { return heap_; }
  /// Self-resetting: call `union_find().Reset(n)` before each use.
  EpochUnionFind& union_find() { return union_find_; }
  /// Self-resetting: call `pair_table().Reset()` before each use.
  PairMinTable& pair_table() { return pair_table_; }

  /// Unstamped scratch buffers; callers clear() before use (capacity is
  /// retained across queries).
  std::vector<NodeId>& node_scratch() { return node_scratch_; }
  std::vector<EdgeId>& edge_scratch() { return edge_scratch_; }
  std::vector<double>& value_scratch() { return value_scratch_; }

  /// Resident bytes of all retained arrays (the "peak workspace" number
  /// reported by the perf benches). History-dependent: capacity only
  /// grows, so a reused workspace reports its high-water mark.
  size_t MemoryFootprintBytes() const;

  /// Deterministic per-query footprint: the bytes a workspace sized
  /// exactly for \p n ids holds (node state + parents + origins + tags +
  /// stamps + heap + union-find). Query-path memory metrics report this
  /// so results never depend on the workspace's history or the worker
  /// count that served the query.
  static size_t RequiredBytes(size_t n) {
    return n * (sizeof(NodeState) + sizeof(ParentLink) +
                2 * sizeof(NodeId) +        // origin + union-find parents
                5 * sizeof(uint32_t) +      // tag + 2 stamps + uf stamp + heap pos
                sizeof(double) + sizeof(NodeId) +  // heap key/node slots
                sizeof(uint32_t));          // heap pos epoch
  }

 private:
  struct NodeState {
    double dist;
    uint32_t stamp;
    uint32_t settled;
  };
  struct ParentLink {
    NodeId node;
    EdgeId edge;
  };

  std::vector<NodeState> state_;
  std::vector<ParentLink> parent_;
  std::vector<NodeId> origin_;
  std::vector<uint32_t> tag_;
  std::vector<uint32_t> mark_stamp_;
  std::vector<uint32_t> tag_stamp_;
  uint32_t epoch_ = 0;

  IndexedMinHeap heap_;
  EpochUnionFind union_find_;
  PairMinTable pair_table_;

  std::vector<NodeId> node_scratch_;
  std::vector<EdgeId> edge_scratch_;
  std::vector<double> value_scratch_;
};

}  // namespace xsum::graph

#endif  // XSUM_GRAPH_SEARCH_WORKSPACE_H_
