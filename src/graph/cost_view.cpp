#include "graph/cost_view.h"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace xsum::graph {

namespace {

/// Commit stamps are process-global so no two committed views (or two
/// commits of one view) ever share a version.
std::atomic<uint64_t> g_next_version{1};

}  // namespace

void CostView::Assign(const KnowledgeGraph& graph,
                      std::span<const double> edge_costs) {
  assert(edge_costs.size() >= graph.num_edges());
  std::vector<double>& out = StartAssign(graph);
  std::copy_n(edge_costs.begin(), graph.num_edges(), out.begin());
  Commit();
}

void CostView::AssignUnit(const KnowledgeGraph& graph) {
  StartAssign(graph).assign(graph.num_edges(), 1.0);
  Commit();
}

std::vector<double>& CostView::StartAssign(const KnowledgeGraph& graph) {
  graph_ = &graph;
  version_ = 0;  // invalid until Commit
  edge_costs_.resize(graph.num_edges());
  return edge_costs_;
}

void CostView::Commit() {
  assert(graph_ != nullptr && "Commit without StartAssign");
  // Interleave: every slot record is rewritten (not just the cost field),
  // so a committed view is consistent with the bound graph even when the
  // buffers were last used for a different one.
  const std::span<const AdjEntry> adj = graph_->adjacency();
  slots_.resize(adj.size());
  for (size_t i = 0; i < adj.size(); ++i) {
    slots_[i] = CostSlot{adj[i].neighbor, adj[i].edge,
                         edge_costs_[adj[i].edge]};
  }
  double min_cost = std::numeric_limits<double>::infinity();
  double max_cost = -std::numeric_limits<double>::infinity();
  for (double c : edge_costs_) {
    min_cost = std::min(min_cost, c);
    max_cost = std::max(max_cost, c);
  }
  CommitWritten(min_cost, max_cost);
}

CostView::WriteBuffers CostView::StartWrite(const KnowledgeGraph& graph) {
  StartAssign(graph);
  slots_.resize(graph.adjacency().size());
  return {edge_costs_, slots_};
}

void CostView::CommitWritten(double min_cost, double max_cost) {
  assert(graph_ != nullptr && "CommitWritten without StartWrite");
  min_cost_ = min_cost;
  max_cost_ = max_cost;
  version_ = g_next_version.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace xsum::graph
