#include "core/weight_adjust.h"

#include <cassert>

namespace xsum::core {

std::vector<uint32_t> CountEdgeOccurrences(
    const graph::KnowledgeGraph& graph,
    const std::vector<graph::Path>& paths) {
  std::vector<uint32_t> counts(graph.num_edges(), 0);
  for (const graph::Path& path : paths) {
    for (graph::EdgeId e : path.edges) {
      if (e == graph::kInvalidEdge) continue;  // hallucinated hop
      assert(e < counts.size());
      ++counts[e];
    }
  }
  return counts;
}

std::vector<double> AdjustWeights(const graph::KnowledgeGraph& graph,
                                  const std::vector<double>& base_weights,
                                  const std::vector<graph::Path>& paths,
                                  double lambda, size_t s_size) {
  std::vector<uint32_t> counts;
  std::vector<graph::EdgeId> touched;
  std::vector<double> adjusted;
  AdjustWeightsInto(graph, base_weights, paths, lambda, s_size, &counts,
                    &touched, &adjusted);
  return adjusted;
}

void AdjustWeightsInto(const graph::KnowledgeGraph& graph,
                       const std::vector<double>& base_weights,
                       const std::vector<graph::Path>& paths, double lambda,
                       size_t s_size, std::vector<uint32_t>* counts_scratch,
                       std::vector<graph::EdgeId>* touched_scratch,
                       std::vector<double>* out) {
  assert(base_weights.size() == graph.num_edges());
  if (counts_scratch->size() < graph.num_edges()) {
    counts_scratch->resize(graph.num_edges(), 0);
  }
  touched_scratch->clear();
  for (const graph::Path& path : paths) {
    for (graph::EdgeId e : path.edges) {
      if (e == graph::kInvalidEdge) continue;  // hallucinated hop
      assert(e < counts_scratch->size());
      if ((*counts_scratch)[e]++ == 0) touched_scratch->push_back(e);
    }
  }
  const double denom = static_cast<double>(s_size == 0 ? 1 : s_size);
  // Most edges carry count 0 and keep their base weight; only the touched
  // ones need the Eq. (1) boost (and a count reset for the next call).
  out->assign(base_weights.begin(), base_weights.end());
  for (graph::EdgeId e : *touched_scratch) {
    const uint32_t count = (*counts_scratch)[e];
    const double freq = static_cast<double>(count) / denom;
    (*out)[e] = base_weights[e] * (1.0 + lambda * freq);
    (*counts_scratch)[e] = 0;
  }
}

}  // namespace xsum::core
