#ifndef FLOWCUBE_FLOWGRAPH_SIMILARITY_H_
#define FLOWCUBE_FLOWGRAPH_SIMILARITY_H_

#include "flowgraph/flowgraph.h"

namespace flowcube {

// Which divergence is used to compare per-node distributions. The paper
// (Section 4.3) suggests KL divergence of the induced distributions but
// leaves the metric phi application-defined; Jensen-Shannon is our default
// because it is symmetric and bounded (which makes the redundancy
// threshold tau easy to pick), while smoothed KL is available for fidelity
// with the paper's suggestion.
enum class DivergenceKind {
  kJensenShannon,
  kKullbackLeibler,
};

struct SimilarityOptions {
  DivergenceKind kind = DivergenceKind::kJensenShannon;
  // Additive smoothing applied to KL so that unseen outcomes do not produce
  // infinities. Ignored for Jensen-Shannon.
  double kl_smoothing = 1e-6;
};

// Distance between two flowgraphs: the reach-probability-weighted average of
// the per-node divergences of their transition and duration distributions,
// taken over the union of their trees (a branch present in only one graph
// contributes the maximal divergence, weighted by its reach probability).
//
// Jensen-Shannon divergences are normalized by ln 2, so the distance lies
// in [0, 1]: 0 means the graphs induce identical distributions; 1 means
// they disagree completely. A cell's flowgraph is *redundant* w.r.t. its
// parents when the distance to each parent is <= tau (Definition 4.4,
// phrased as a distance rather than a similarity).
double FlowGraphDistance(const FlowGraph& a, const FlowGraph& b,
                         const SimilarityOptions& options = {});

// FlowGraphDistance(a, b, options) > tau, the test Definition 4.4 applies
// to each parent, always with the same answer. For Jensen-Shannon the walk
// stops as soon as bounds on the unvisited remainder put the distance on
// one side of tau; a distance within a relative 1e-9 of tau is computed in
// full. KL walks in full.
bool FlowGraphDistanceExceeds(const FlowGraph& a, const FlowGraph& b,
                              double tau,
                              const SimilarityOptions& options = {});

}  // namespace flowcube

#endif  // FLOWCUBE_FLOWGRAPH_SIMILARITY_H_
