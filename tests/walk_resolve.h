#ifndef FLOWCUBE_TESTS_WALK_RESOLVE_H_
#define FLOWCUBE_TESTS_WALK_RESOLVE_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "flowgraph/exception_miner.h"
#include "flowgraph/flowgraph.h"
#include "path/path_view.h"

namespace flowcube {

// Member paths resolved into a graph's node space by walking each stage
// with FindChild: the reference that ExceptionMiner tests feed the miner,
// independent of the measure counter's prefix map (flowcube/cell_build.h).
struct WalkResolved {
  std::vector<uint32_t> begin = {0};
  std::vector<FlowNodeId> nodes;
  std::vector<Duration> durations;

  ResolvedPaths view() const { return {begin, nodes, durations}; }
};

inline WalkResolved ResolveByWalk(const FlowGraph& g, PathView paths) {
  WalkResolved out;
  for (const Path& p : paths) {
    FlowNodeId cur = FlowGraph::kRoot;
    for (const Stage& s : p.stages) {
      cur = g.FindChild(cur, s.location);
      FC_CHECK_MSG(cur != FlowGraph::kTerminate,
                   "path does not belong to this flowgraph");
      out.nodes.push_back(cur);
      out.durations.push_back(s.duration);
    }
    out.begin.push_back(static_cast<uint32_t>(out.nodes.size()));
  }
  return out;
}

}  // namespace flowcube

#endif  // FLOWCUBE_TESTS_WALK_RESOLVE_H_
