#ifndef FLOWCUBE_FLOWCUBE_DUMP_H_
#define FLOWCUBE_FLOWCUBE_DUMP_H_

#include <string>

#include "flowcube/flowcube.h"

namespace flowcube {

// Canonical text serialization of a full flowcube: every cuboid with its
// cells (sorted by coordinates), each cell's support, redundancy flag,
// complete flowgraph (nodes, counts, duration histograms) and exception
// list. Two cubes over the same database serialize byte-identically iff
// they hold the same cells, measures, exceptions, and flags — this is the
// contract the parallel builder is tested against (serial and N-thread
// builds must produce the same dump), and a convenient golden-file /
// debugging format.
std::string DumpFlowCube(const FlowCube& cube);

// One cell's canonical serialization (dims, support, flags, graph,
// exceptions); exposed for targeted diffing. In printf notation, with the
// field types of FlowCell and FlowGraph (u32 ids and counts, int depth,
// i64 durations, "..." repeating the group before it):
//
//   cell dims=[%u,%u...] support=%u redundant=%d
//     graph nodes=%zu total_paths=%u
//     node %u loc=%u parent=%u depth=%d paths=%u term=%u durs=(%lld:%u)...
//       children=%u %u ...                     (each child id then a space)
//     exc kind=%d node=%u target=%u  (or dur=%lld for a duration exception)
//       p_glob=%.17g p_cond=%.17g support=%u cond={(%u,%lld) (%u,%lld)...}
//
// Each "graph", "node" and "exc" line starts with two spaces, and a node
// or exception is one line: the indented continuations above only wrap
// this comment. Integers are written without padding or signs beyond '-'.
std::string DumpFlowCell(const FlowCell& cell);

// Just the flowgraph block of the cell dump (the "  graph ..."/"  node ..."
// lines plus exceptions). Node tables are rendered in id order, so two
// graphs dump identically iff their numbered representations match — pass
// graphs through FlowGraph::Canonical() first to compare them structurally.
// Used by the shard coordinator to render merged measures.
std::string DumpFlowGraph(const FlowGraph& graph);

}  // namespace flowcube

#endif  // FLOWCUBE_FLOWCUBE_DUMP_H_
