#include "flowgraph/builder.h"

#include "common/audit.h"
#include "common/metrics.h"

namespace flowcube {

FlowGraph BuildFlowGraph(PathView paths) {
  // BuildFlowGraph may run from parallel loops; two relaxed atomic adds per
  // graph are negligible next to AddPath.
  static Counter& m_graphs =
      MetricRegistry::Global().counter("flowgraph.build.graphs");
  static Counter& m_paths =
      MetricRegistry::Global().counter("flowgraph.build.paths_added");
  FlowGraph g;
  for (const Path& p : paths) {
    g.AddPath(p);
  }
  m_graphs.Increment();
  m_paths.Add(paths.size());
  FC_AUDIT(AuditFlowGraph(g));
  return g;
}

}  // namespace flowcube
