/// \file weight_adjust.h
/// \brief Eq. (1) of the paper (§IV-A): boost the base weights wM of edges
/// that occur in the input explanation paths so the summarizer *summarizes*
/// them instead of inventing new explanations:
///
///   w(e) = wM(e) · (1 + λ · Σ_{x∈S} 1_{e∈P} / |S|)
///
/// λ = 0 nullifies the input paths (the summary becomes a brand-new
/// explanation); λ = 100 makes the summarizer stick to the inputs.

#ifndef XSUM_CORE_WEIGHT_ADJUST_H_
#define XSUM_CORE_WEIGHT_ADJUST_H_

#include <vector>

#include "core/scenario.h"
#include "graph/knowledge_graph.h"

namespace xsum::core {

/// \brief Counts how many input paths contain each edge (hallucinated hops
/// carry no edge id and are skipped). Returned vector is indexed by EdgeId.
std::vector<uint32_t> CountEdgeOccurrences(const graph::KnowledgeGraph& graph,
                                           const std::vector<graph::Path>& paths);

/// \brief Applies Eq. (1): returns the adjusted weight vector.
///
/// \p base_weights is wM/wA indexed by EdgeId; \p s_size is |S| (>= 1).
std::vector<double> AdjustWeights(const graph::KnowledgeGraph& graph,
                                  const std::vector<double>& base_weights,
                                  const std::vector<graph::Path>& paths,
                                  double lambda, size_t s_size);

/// \brief Allocation-free Eq. (1) for the batch engine.
///
/// \p counts_scratch is a persistent all-zero vector (grown to |E| here and
/// returned all-zero: only the path edges recorded in \p touched_scratch
/// are written and cleared), so repeated calls cost O(|E| copy + Σ|path|)
/// instead of an O(|E|) allocation + zero-fill per call. \p touched_scratch
/// receives every path edge once, in first-occurrence order. \p out
/// receives the adjusted weights (same values as `AdjustWeights`).
void AdjustWeightsInto(const graph::KnowledgeGraph& graph,
                       const std::vector<double>& base_weights,
                       const std::vector<graph::Path>& paths, double lambda,
                       size_t s_size, std::vector<uint32_t>* counts_scratch,
                       std::vector<graph::EdgeId>* touched_scratch,
                       std::vector<double>* out);

}  // namespace xsum::core

#endif  // XSUM_CORE_WEIGHT_ADJUST_H_
