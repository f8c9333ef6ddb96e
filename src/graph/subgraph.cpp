#include "graph/subgraph.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "graph/union_find.h"

namespace xsum::graph {

namespace {

template <typename T>
void SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

Subgraph Subgraph::FromEdges(const KnowledgeGraph& graph,
                             std::vector<EdgeId> edges,
                             std::vector<NodeId> extra_nodes) {
  Subgraph s;
  SortUnique(&edges);
  s.edges_ = std::move(edges);
  s.nodes_ = std::move(extra_nodes);
  s.nodes_.reserve(s.nodes_.size() + 2 * s.edges_.size());
  for (EdgeId e : s.edges_) {
    const EdgeRecord& r = graph.edge(e);
    s.nodes_.push_back(r.src);
    s.nodes_.push_back(r.dst);
  }
  SortUnique(&s.nodes_);
  return s;
}

Subgraph Subgraph::FromIds(std::vector<NodeId> nodes,
                           std::vector<EdgeId> edges) {
  Subgraph s;
  SortUnique(&nodes);
  SortUnique(&edges);
  s.nodes_ = std::move(nodes);
  s.edges_ = std::move(edges);
  return s;
}

bool Subgraph::ContainsNode(NodeId v) const {
  return std::binary_search(nodes_.begin(), nodes_.end(), v);
}

bool Subgraph::ContainsEdge(EdgeId e) const {
  return std::binary_search(edges_.begin(), edges_.end(), e);
}

size_t Subgraph::CountNodesOfType(const KnowledgeGraph& graph,
                                  NodeType type) const {
  size_t count = 0;
  for (NodeId v : nodes_) {
    if (graph.node_type(v) == type) ++count;
  }
  return count;
}

double Subgraph::TotalWeight(const std::vector<double>& weights) const {
  double total = 0.0;
  for (EdgeId e : edges_) total += weights[e];
  return total;
}

bool Subgraph::IsWeaklyConnected(const KnowledgeGraph& graph) const {
  if (nodes_.size() <= 1) return true;
  // Local union-find over the subgraph's node positions.
  std::unordered_map<NodeId, size_t> index;
  index.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) index[nodes_[i]] = i;
  UnionFind uf(nodes_.size());
  for (EdgeId e : edges_) {
    const EdgeRecord& r = graph.edge(e);
    uf.Union(index.at(r.src), index.at(r.dst));
  }
  return uf.num_sets() == 1;
}

bool Subgraph::IsTree(const KnowledgeGraph& graph) const {
  if (nodes_.empty()) return true;
  return edges_.size() + 1 == nodes_.size() && IsWeaklyConnected(graph);
}

void Subgraph::PruneLeavesNotIn(const KnowledgeGraph& graph,
                                const std::vector<NodeId>& required) {
  std::unordered_map<NodeId, int> degree;
  degree.reserve(nodes_.size());
  for (EdgeId e : edges_) {
    const EdgeRecord& r = graph.edge(e);
    ++degree[r.src];
    ++degree[r.dst];
  }
  std::vector<char> removed_edge(edges_.size(), 0);
  std::vector<NodeId> frontier;
  auto is_required = [&](NodeId v) {
    return std::find(required.begin(), required.end(), v) != required.end();
  };
  for (NodeId v : nodes_) {
    if (degree[v] <= 1 && !is_required(v)) frontier.push_back(v);
  }

  // Each round removes current non-required leaves; their neighbors may
  // become new leaves.
  std::unordered_map<NodeId, char> node_removed;
  while (!frontier.empty()) {
    std::vector<NodeId> next;
    for (NodeId leaf : frontier) {
      if (node_removed[leaf]) continue;
      node_removed[leaf] = 1;
      for (size_t idx = 0; idx < edges_.size(); ++idx) {
        if (removed_edge[idx]) continue;
        const EdgeRecord& r = graph.edge(edges_[idx]);
        if (r.src != leaf && r.dst != leaf) continue;
        removed_edge[idx] = 1;
        const NodeId other = r.src == leaf ? r.dst : r.src;
        if (--degree[other] <= 1 && !is_required(other) &&
            !node_removed[other]) {
          next.push_back(other);
        }
      }
    }
    frontier = std::move(next);
  }

  std::vector<EdgeId> kept_edges;
  kept_edges.reserve(edges_.size());
  for (size_t idx = 0; idx < edges_.size(); ++idx) {
    if (!removed_edge[idx]) kept_edges.push_back(edges_[idx]);
  }
  std::vector<NodeId> kept_nodes;
  kept_nodes.reserve(nodes_.size());
  for (NodeId v : nodes_) {
    if (!node_removed[v]) kept_nodes.push_back(v);
  }
  edges_ = std::move(kept_edges);
  nodes_ = std::move(kept_nodes);
}

}  // namespace xsum::graph
