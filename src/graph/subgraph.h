/// \file subgraph.h
/// \brief Summary explanations are weakly connected subgraphs of G
/// (paper §III). `Subgraph` references its parent graph by node/edge ids
/// and offers the invariant checks the summarizers and tests rely on.

#ifndef XSUM_GRAPH_SUBGRAPH_H_
#define XSUM_GRAPH_SUBGRAPH_H_

#include <vector>

#include "graph/knowledge_graph.h"
#include "graph/types.h"

namespace xsum::graph {

/// \brief An edge-induced subgraph: sorted unique edge ids plus the sorted
/// unique node set they span (isolated extra nodes may also be included,
/// e.g. a PCST solution that collects a terminal without connecting it).
class Subgraph {
 public:
  Subgraph() = default;

  /// Builds from edge ids; nodes are derived from edge endpoints plus
  /// \p extra_nodes. Duplicate ids are deduplicated.
  static Subgraph FromEdges(const KnowledgeGraph& graph,
                            std::vector<EdgeId> edges,
                            std::vector<NodeId> extra_nodes = {});

  /// Builds from id lists taken as they are (sorted and deduplicated,
  /// never looked up in a parent graph): for summaries built by hand, such
  /// as rendering tests whose ids exceed any real graph.
  static Subgraph FromIds(std::vector<NodeId> nodes,
                          std::vector<EdgeId> edges);

  /// Sorted unique node ids.
  const std::vector<NodeId>& nodes() const { return nodes_; }
  /// Sorted unique edge ids.
  const std::vector<EdgeId>& edges() const { return edges_; }

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_edges() const { return edges_.size(); }
  bool Empty() const { return nodes_.empty(); }

  /// O(log n) membership tests.
  bool ContainsNode(NodeId v) const;
  bool ContainsEdge(EdgeId e) const;

  /// Number of contained nodes with the given type.
  size_t CountNodesOfType(const KnowledgeGraph& graph, NodeType type) const;

  /// Sum of \p weights over contained edges.
  double TotalWeight(const std::vector<double>& weights) const;

  /// True iff every pair of contained nodes is connected using only
  /// contained edges (ignoring direction) — the paper's weak-connectivity
  /// requirement. The empty subgraph is connected.
  bool IsWeaklyConnected(const KnowledgeGraph& graph) const;

  /// True iff acyclic and weakly connected (|E| == |V|−1 and connected).
  bool IsTree(const KnowledgeGraph& graph) const;

  /// Repeatedly removes degree-1 nodes (and their edge) that are not in
  /// \p required; standard Steiner-tree cleanup so every leaf is a terminal.
  void PruneLeavesNotIn(const KnowledgeGraph& graph,
                        const std::vector<NodeId>& required);

  /// Estimated bytes held by this subgraph (for the memory metric).
  size_t MemoryFootprintBytes() const {
    return nodes_.size() * sizeof(NodeId) + edges_.size() * sizeof(EdgeId);
  }

 private:
  std::vector<NodeId> nodes_;
  std::vector<EdgeId> edges_;
};

}  // namespace xsum::graph

#endif  // XSUM_GRAPH_SUBGRAPH_H_
