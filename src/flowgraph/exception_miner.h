#ifndef FLOWCUBE_FLOWGRAPH_EXCEPTION_MINER_H_
#define FLOWCUBE_FLOWGRAPH_EXCEPTION_MINER_H_

#include <vector>

#include "flowgraph/flowgraph.h"
#include "path/path_view.h"

namespace flowcube {

// Parameters of exception mining (paper Section 3): epsilon is the minimum
// deviation of a duration or transition probability required to record an
// exception; delta (min_support) is the minimum number of paths that must
// match the conditioning prefix, preventing exceptions dominated by noise.
struct ExceptionMinerOptions {
  double epsilon = 0.2;
  uint32_t min_support = 2;
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
  // `g`. `paths` must be the same collection `g` was built from.
  std::vector<FlowException> Mine(
      const FlowGraph& g, PathView paths,
      const std::vector<std::vector<StageCondition>>& patterns) const;

 private:
  ExceptionMinerOptions options_;
};

}  // namespace flowcube

#endif  // FLOWCUBE_FLOWGRAPH_EXCEPTION_MINER_H_
