#ifndef FLOWCUBE_FLOWGRAPH_EXCEPTION_MINER_H_
#define FLOWCUBE_FLOWGRAPH_EXCEPTION_MINER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "flowgraph/flowgraph.h"

namespace flowcube {

// Parameters of exception mining (paper Section 3): epsilon is the minimum
// deviation of a duration or transition probability required to record an
// exception; delta (min_support) is the minimum number of paths that must
// match the conditioning prefix, preventing exceptions dominated by noise.
struct ExceptionMinerOptions {
  double epsilon = 0.2;
  uint32_t min_support = 2;
};

// A flowgraph's member paths resolved into its node space: stage k of path
// i sits at node nodes[begin[i] + k] with duration durations[begin[i] + k].
// The measure counter (flowcube/cell_build.h) resolves every member while
// counting, so the miner never walks the graph per path.
struct ResolvedPaths {
  std::span<const uint32_t> begin;  // size() + 1 offsets
  std::span<const FlowNodeId> nodes;
  std::span<const Duration> durations;

  size_t size() const { return begin.empty() ? 0 : begin.size() - 1; }
};

// Mines the exception set X of a flowgraph — step (3) of the construction
// recipe in Section 3. Given frequent path-prefix patterns (each a chain of
// (node, duration) constraints along one branch), it computes the
// conditional transition distribution at the deepest conditioned node and
// the conditional duration distribution at each of its children, and
// records every probability deviating from the flowgraph's general
// distribution by at least epsilon.
class ExceptionMiner {
 public:
  explicit ExceptionMiner(ExceptionMinerOptions options);

  // Evaluates externally mined patterns (e.g. the per-cell frequent path
  // segments found by algorithm Shared, mapped into `g`'s node space). Each
  // pattern must be sorted by node depth, with all nodes on one branch of
  // `g`. `paths` must be the paths `g` was counted from, resolved into
  // its node space.
  std::vector<FlowException> Mine(
      const FlowGraph& g, const ResolvedPaths& paths,
      const std::vector<std::vector<StageCondition>>& patterns) const;

 private:
  ExceptionMinerOptions options_;
};

}  // namespace flowcube

#endif  // FLOWCUBE_FLOWGRAPH_EXCEPTION_MINER_H_
