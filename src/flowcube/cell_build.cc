#include "flowcube/cell_build.h"

#include <algorithm>

#include "common/audit.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace flowcube {

bool ParentCellKey(const Itemset& cell, size_t dim, const ItemCatalog& cat,
                   const PathSchema& schema, Itemset* parent) {
  *parent = cell;
  for (size_t i = 0; i < parent->size(); ++i) {
    const ItemId id = (*parent)[i];
    if (cat.DimOf(id) != dim) continue;
    const ConceptHierarchy& h = schema.dimensions[dim];
    const NodeId up = h.Parent(cat.NodeOf(id));
    if (h.Level(up) == 0) {
      parent->erase(parent->begin() + static_cast<long>(i));
    } else {
      (*parent)[i] = cat.DimItem(dim, up);
    }
    std::sort(parent->begin(), parent->end());
    return true;
  }
  return false;
}

bool IsDurationStarLevel(const FlowCubePlan& plan, size_t pl_index) {
  FC_CHECK(pl_index < plan.path_levels.size());
  const int pl = plan.path_levels[pl_index];
  return plan.mining.path_levels[static_cast<size_t>(pl)].duration_level == 0;
}

void CellKeyAtLevel(const PathRecord& rec, const ItemLevel& il,
                    const ItemCatalog& cat, const PathSchema& schema,
                    Itemset* key) {
  key->clear();
  for (size_t d = 0; d < rec.dims.size(); ++d) {
    if (il.levels[d] == 0) continue;
    const ConceptHierarchy& h = schema.dimensions[d];
    const NodeId n = h.AncestorAtLevel(rec.dims[d], il.levels[d]);
    if (h.Level(n) == 0) continue;
    key->push_back(cat.DimItem(d, n));
  }
  std::sort(key->begin(), key->end());
}

namespace {

// Maps a mined path segment (stage items) into the cell graph's node space
// through the counter's prefix map, sorted by node depth. Returns false
// when some prefix has no node in the cell (cannot happen for segments
// mined from the cell's own paths, but guards external input).
bool SegmentToPattern(const SegmentPattern& segment, const ItemCatalog& cat,
                      const MeasureScratch& s,
                      std::vector<StageCondition>* pattern) {
  pattern->clear();
  for (ItemId id : segment.stages) {
    const ItemCatalog::StageInfo& info = cat.StageOf(id);
    const uint32_t node = info.prefix < s.node_of_prefix.size()
                              ? s.node_of_prefix[info.prefix]
                              : MeasureScratch::kUnset;
    if (node == MeasureScratch::kUnset) return false;
    pattern->push_back(StageCondition{node, info.duration});
  }
  std::sort(pattern->begin(), pattern->end(),
            [&s](const StageCondition& a, const StageCondition& b) {
              return s.depth[a.node] < s.depth[b.node];
            });
  return true;
}

// Copies a scratch column into a vector of exactly its size, the capacity
// Seal() reserves.
template <typename T>
std::vector<T> Exact(const std::vector<T>& v) {
  return std::vector<T>(v.begin(), v.end());
}

// Counts the members' chains into `s` and returns the sealed columns.
FlowGraph::SealedColumns CountColumns(const LevelChains& chains,
                                      std::span<const uint32_t> tids,
                                      const ItemCatalog& cat, bool resolve,
                                      MeasureScratch* scratch) {
  MeasureScratch& s = *scratch;
  const size_t num_dim_items = cat.num_dim_items();
  if (s.node_of_prefix.size() < cat.trie().size()) {
    s.node_of_prefix.resize(cat.trie().size(), MeasureScratch::kUnset);
  }
  if (s.slot_of_item.size() < cat.num_items() - num_dim_items) {
    s.slot_of_item.resize(cat.num_items() - num_dim_items,
                          MeasureScratch::kUnset);
  }
  s.prefix.assign(1, kEmptyPrefix);
  s.parent.assign(1, FlowGraph::kRoot);
  s.depth.assign(1, 0);
  s.path_count.assign(1, static_cast<uint32_t>(tids.size()));
  s.terminate_count.assign(1, 0);
  s.items.clear();
  s.item_node.clear();
  s.item_count.clear();
  s.member_begin.assign(1, 0);
  s.member_nodes.clear();
  s.member_durations.clear();

  for (uint32_t tid : tids) {
    const std::span<const ItemId> chain = chains[tid];
    FC_DCHECK(!chain.empty());
    FlowNodeId node = FlowGraph::kRoot;
    for (ItemId id : chain) {
      uint32_t& slot = s.slot_of_item[id - num_dim_items];
      if (slot == MeasureScratch::kUnset) {
        const ItemCatalog::StageInfo& info = cat.StageOf(id);
        uint32_t& prefix_node = s.node_of_prefix[info.prefix];
        if (prefix_node == MeasureScratch::kUnset) {
          // First appearance of the prefix: a new node under the previous
          // stage's, exactly where AddPath would create it.
          prefix_node = static_cast<uint32_t>(s.prefix.size());
          s.prefix.push_back(info.prefix);
          s.parent.push_back(node);
          s.depth.push_back(s.depth[node] + 1);
          s.path_count.push_back(0);
          s.terminate_count.push_back(0);
        }
        slot = static_cast<uint32_t>(s.items.size());
        s.items.push_back(id);
        s.item_node.push_back(prefix_node);
        s.item_count.push_back(0);
      }
      node = s.item_node[slot];
      s.path_count[node]++;
      s.item_count[slot]++;
      if (resolve) {
        s.member_nodes.push_back(node);
        s.member_durations.push_back(cat.StageOf(id).duration);
      }
    }
    s.terminate_count[node]++;
    if (resolve) {
      s.member_begin.push_back(static_cast<uint32_t>(s.member_nodes.size()));
    }
  }

  const size_t n = s.prefix.size();
  FlowGraph::SealedColumns c;
  c.location.resize(n);
  c.location[FlowGraph::kRoot] = kInvalidNode;
  for (size_t i = 1; i < n; ++i) {
    c.location[i] = cat.trie().location(s.prefix[i]);
  }
  c.parent = Exact(s.parent);
  c.depth = Exact(s.depth);
  c.path_count = Exact(s.path_count);
  c.terminate_count = Exact(s.terminate_count);

  // Children bucketed by parent; filling in id order keeps each bucket in
  // creation order, AddPath's child order.
  c.child_begin.assign(n + 1, 0);
  for (size_t i = 1; i < n; ++i) c.child_begin[s.parent[i] + 1]++;
  for (size_t i = 0; i < n; ++i) c.child_begin[i + 1] += c.child_begin[i];
  c.child_arena.resize(n - 1);
  s.cursor.assign(c.child_begin.begin(), c.child_begin.end() - 1);
  for (size_t i = 1; i < n; ++i) {
    c.child_arena[s.cursor[s.parent[i]]++] = static_cast<FlowNodeId>(i);
  }

  // One (duration, count) entry per distinct stage item, bucketed by node
  // and sorted by duration within the node: BumpDuration's order.
  const size_t num_items = s.items.size();
  c.duration_begin.assign(n + 1, 0);
  for (size_t k = 0; k < num_items; ++k) {
    c.duration_begin[s.item_node[k] + 1]++;
  }
  for (size_t i = 0; i < n; ++i) {
    c.duration_begin[i + 1] += c.duration_begin[i];
  }
  c.duration_arena.resize(num_items);
  s.cursor.assign(c.duration_begin.begin(), c.duration_begin.end() - 1);
  for (size_t k = 0; k < num_items; ++k) {
    c.duration_arena[s.cursor[s.item_node[k]]++] =
        DurationCount{cat.StageOf(s.items[k]).duration, s.item_count[k]};
  }
  for (size_t i = 1; i < n; ++i) {
    std::sort(c.duration_arena.begin() + c.duration_begin[i],
              c.duration_arena.begin() + c.duration_begin[i + 1],
              [](const DurationCount& a, const DurationCount& b) {
                return a.duration < b.duration;
              });
  }
  return c;
}

}  // namespace

size_t FillCellMeasure(const LevelChains& chains,
                       std::span<const uint32_t> tids,
                       const std::vector<SegmentPattern>& segments,
                       const ItemCatalog& cat,
                       const ExceptionMiner* exception_miner,
                       MeasureScratch* scratch, FlowCell* cell) {
  // Runs once per (cell, path level) from parallel loops; two relaxed
  // atomic adds per graph, shared with BuildFlowGraph.
  static Counter& m_graphs =
      MetricRegistry::Global().counter("flowgraph.build.graphs");
  static Counter& m_paths =
      MetricRegistry::Global().counter("flowgraph.build.paths_added");
  MeasureScratch& s = *scratch;
  const bool mine_exceptions =
      exception_miner != nullptr && !segments.empty();
  cell->support = static_cast<uint32_t>(tids.size());
  cell->graph = FlowGraph::FromSealedColumns(
      CountColumns(chains, tids, cat, mine_exceptions, &s));
  m_graphs.Increment();
  m_paths.Add(tids.size());
  FC_AUDIT(AuditFlowGraph(cell->graph));

  size_t exceptions = 0;
  if (mine_exceptions) {
    std::vector<std::vector<StageCondition>> patterns;
    for (const SegmentPattern& seg : segments) {
      if (SegmentToPattern(seg, cat, s, &s.pattern)) {
        patterns.push_back(s.pattern);
      }
    }
    const ResolvedPaths members{s.member_begin, s.member_nodes,
                                s.member_durations};
    for (FlowException& e :
         exception_miner->Mine(cell->graph, members, patterns)) {
      cell->graph.AddException(std::move(e));
      exceptions++;
    }
  }

  // Leave the dense maps all-unset for the next cell.
  for (size_t i = 1; i < s.prefix.size(); ++i) {
    s.node_of_prefix[s.prefix[i]] = MeasureScratch::kUnset;
  }
  const size_t num_dim_items = cat.num_dim_items();
  for (ItemId id : s.items) {
    s.slot_of_item[id - num_dim_items] = MeasureScratch::kUnset;
  }
  return exceptions;
}

bool CellIsRedundant(const FlowCube& cube, const ItemLevel& il,
                     size_t pl_index, const FlowCell& cell, double tau,
                     const SimilarityOptions& similarity) {
  const FlowCubePlan& plan = cube.plan();
  const ItemCatalog& cat = cube.catalog();
  int parents_found = 0;
  for (size_t d = 0; d < il.levels.size(); ++d) {
    if (il.levels[d] == 0) continue;
    ItemLevel parent_level = il;
    parent_level.levels[d]--;
    const int pil = plan.FindItemLevel(parent_level);
    if (pil < 0) continue;
    Itemset parent_key;
    if (!ParentCellKey(cell.dims, d, cat, cube.schema(), &parent_key)) {
      continue;
    }
    const FlowCell* parent =
        cube.cuboid(static_cast<size_t>(pil), pl_index).Find(parent_key);
    if (parent == nullptr) continue;
    parents_found++;
    if (FlowGraphDistanceExceeds(cell.graph, parent->graph, tau, similarity)) {
      return false;
    }
  }
  return parents_found > 0;
}

}  // namespace flowcube
