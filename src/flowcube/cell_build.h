#ifndef FLOWCUBE_FLOWCUBE_CELL_BUILD_H_
#define FLOWCUBE_FLOWCUBE_CELL_BUILD_H_

#include <span>
#include <vector>

#include "flowcube/flowcube.h"
#include "flowcube/plan.h"
#include "flowgraph/exception_miner.h"
#include "flowgraph/similarity.h"
#include "mining/mining_result.h"
#include "mining/stage_chains.h"
#include "path/path.h"

namespace flowcube {

// Cell-construction primitives shared by the batch FlowCubeBuilder and the
// streaming IncrementalMaintainer. Both assemble cells through these exact
// functions, so an incrementally maintained cube is bit-identical to a
// from-scratch rebuild by construction rather than by coincidence.

// The parent coordinates of `cell` when dimension `dim` is generalized one
// level. Returns false when the cell has no item of that dimension (already
// at '*').
bool ParentCellKey(const Itemset& cell, size_t dim, const ItemCatalog& cat,
                   const PathSchema& schema, Itemset* parent);

// The cell coordinates of one record at item level `il`: each dimension is
// generalized to its level (levels at 0 and values above the level are
// dropped), and the resulting dimension items are sorted. `key` is an
// in/out buffer so callers can reuse its allocation across records.
void CellKeyAtLevel(const PathRecord& rec, const ItemLevel& il,
                    const ItemCatalog& cat, const PathSchema& schema,
                    Itemset* key);

// True when materialized path level `pl_index` (an index into
// plan.path_levels) views durations at '*' (duration_level 0). Every stage
// item there carries kAnyDuration, so every path segment conditions on
// locations alone; §3 conditions exceptions on durations, and
// ExceptionMiner::Mine drops each such segment as uninformative. The
// builder and the maintainer therefore find no segments at such a level:
// the cell's measure is the same without them.
bool IsDurationStarLevel(const FlowCubePlan& plan, size_t pl_index);

// Reusable state of FillCellMeasure, one per thread: dense maps over the
// prefix trie and the stage items that are all-unset between calls, plus
// growable count buffers, so that counting a cell allocates only the
// cell's own sealed columns.
struct MeasureScratch {
  static constexpr uint32_t kUnset = static_cast<uint32_t>(-1);

  // Prefix -> cell-local node id; stage item (minus num_dim_items) ->
  // index into the per-item vectors below.
  std::vector<uint32_t> node_of_prefix;
  std::vector<uint32_t> slot_of_item;

  // Per node (index = node id; the root is node 0).
  std::vector<PrefixId> prefix;
  std::vector<FlowNodeId> parent;
  std::vector<int32_t> depth;
  std::vector<uint32_t> path_count;
  std::vector<uint32_t> terminate_count;

  // Per distinct stage item, in first-appearance order.
  std::vector<ItemId> items;
  std::vector<FlowNodeId> item_node;
  std::vector<uint32_t> item_count;

  // The members resolved into node space (ExceptionMiner's input).
  std::vector<uint32_t> member_begin;
  std::vector<FlowNodeId> member_nodes;
  std::vector<Duration> member_durations;

  // CSR fill cursors and one mapped segment.
  std::vector<uint32_t> cursor;
  std::vector<StageCondition> pattern;
};

// Fills one cell's measure from its members' stage chains at one path
// level: support, the sealed flowgraph, and (when `exception_miner` is
// non-null) exceptions evaluated against the cell's frequent path
// segments, which must be sorted the way MiningResult::SegmentsForCell
// emits them (support desc, stages asc). `tids` must be ascending. The
// members are resolved into node space for the miner only when there is
// at least one segment: with none, no exception can be conditioned.
//
// The graph is counted straight into its sealed columns: nodes are the
// members' distinct prefixes, numbered in first appearance over ascending
// tids and stage order, which is AddPath's numbering, so the graph equals
// BuildFlowGraph + Seal() over the members' aggregated paths, column by
// column. `cell->dims` must already hold the coordinates. Returns the
// number of exceptions recorded.
size_t FillCellMeasure(const LevelChains& chains,
                       std::span<const uint32_t> tids,
                       const std::vector<SegmentPattern>& segments,
                       const ItemCatalog& cat,
                       const ExceptionMiner* exception_miner,
                       MeasureScratch* scratch, FlowCell* cell);

// Definition 4.4 redundancy of one cell of cuboid <il, path level pl_index>:
// true iff at least one materialized parent exists and the cell's graph is
// within `tau` of every parent's. Reads only other cuboids' finished
// graphs, so it is safe to evaluate cells of one cuboid concurrently.
bool CellIsRedundant(const FlowCube& cube, const ItemLevel& il,
                     size_t pl_index, const FlowCell& cell, double tau,
                     const SimilarityOptions& similarity);

}  // namespace flowcube

#endif  // FLOWCUBE_FLOWCUBE_CELL_BUILD_H_
