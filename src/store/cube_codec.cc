#include "store/cube_codec.h"

#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "mining/item_catalog.h"
#include "mining/transaction.h"

namespace flowcube {

// Friend of FlowGraph: assembles sealed graphs whose column views borrow a
// checkpoint mapping (or any external allocation pinned by `keepalive`).
struct FlowGraphStoreAccess {
  struct GraphSpans {
    std::span<const NodeId> location;
    std::span<const FlowNodeId> parent;
    std::span<const int32_t> depth;
    std::span<const uint32_t> path_count;
    std::span<const uint32_t> terminate_count;
    std::span<const uint32_t> child_begin;
    std::span<const FlowNodeId> child_arena;
    std::span<const uint32_t> duration_begin;
    std::span<const DurationCount> duration_arena;
  };

  static FlowGraph MakeMapped(const GraphSpans& s,
                              std::shared_ptr<const void> keepalive,
                              std::vector<FlowException> exceptions) {
    auto cols = std::make_shared<FlowGraph::Columns>();
    cols->location = s.location;
    cols->parent = s.parent;
    cols->depth = s.depth;
    cols->path_count = s.path_count;
    cols->terminate_count = s.terminate_count;
    cols->child_begin = s.child_begin;
    cols->child_arena = s.child_arena;
    cols->duration_begin = s.duration_begin;
    cols->duration_arena = s.duration_arena;
    cols->keepalive = std::move(keepalive);

    FlowGraph g;
    g.nodes_.clear();
    g.nodes_.shrink_to_fit();
    g.cols_ = std::move(cols);
    g.sealed_ = true;
    g.exceptions_ = std::move(exceptions);
    return g;
  }
};

// Friend of Cuboid: installs pre-sorted cells and a borrowed canonical slot
// table, producing an immutable (mutation-FC_CHECKing) cuboid.
struct CuboidStoreAccess {
  static void Install(Cuboid* cuboid, std::vector<FlowCell> cells,
                      std::span<const uint32_t> slots,
                      std::shared_ptr<const void> keepalive) {
    cuboid->cells_ = std::move(cells);
    cuboid->slots_.Borrow(slots, std::move(keepalive));
  }
};

namespace {

Status Corrupt(const char* what) {
  return Status::InvalidArgument(std::string("corrupt v2 checkpoint: ") +
                                 what);
}

}  // namespace

void EncodeExceptionBlock(const std::vector<FlowException>& exceptions,
                          ByteWriter* w) {
  w->U64(exceptions.size());
  for (const FlowException& e : exceptions) {
    w->U8(e.kind == FlowException::Kind::kTransition ? 0 : 1);
    w->U64(e.condition.size());
    for (const StageCondition& c : e.condition) {
      w->U32(c.node);
      w->I64(c.duration);
    }
    w->U32(e.node);
    w->U32(e.transition_target);
    w->I64(e.duration_value);
    w->F64(e.global_probability);
    w->F64(e.conditional_probability);
    w->U32(e.condition_support);
  }
}

Status DecodeExceptionBlock(ByteReader* r, uint64_t num_nodes,
                            Status (*corrupt)(const char*),
                            std::vector<FlowException>* out) {
  // Every element consumes at least one byte, so a count beyond the
  // remaining bytes is corrupt — and can never drive a huge allocation.
  auto read_count = [&](uint64_t* count) -> Status {
    FC_RETURN_IF_ERROR(r->U64(count));
    if (*count > r->remaining()) {
      return corrupt("element count exceeds section size");
    }
    return Status::OK();
  };
  uint64_t num_exceptions = 0;
  FC_RETURN_IF_ERROR(read_count(&num_exceptions));
  out->clear();
  for (uint64_t i = 0; i < num_exceptions; ++i) {
    FlowException e;
    uint8_t kind = 0;
    FC_RETURN_IF_ERROR(r->U8(&kind));
    if (kind > 1) return corrupt("unknown exception kind");
    e.kind = kind == 0 ? FlowException::Kind::kTransition
                       : FlowException::Kind::kDuration;
    uint64_t num_conditions = 0;
    FC_RETURN_IF_ERROR(read_count(&num_conditions));
    for (uint64_t c = 0; c < num_conditions; ++c) {
      StageCondition cond;
      FC_RETURN_IF_ERROR(r->U32(&cond.node));
      FC_RETURN_IF_ERROR(r->I64(&cond.duration));
      if (cond.node >= num_nodes) {
        return corrupt("exception condition node out of range");
      }
      e.condition.push_back(cond);
    }
    FC_RETURN_IF_ERROR(r->U32(&e.node));
    FC_RETURN_IF_ERROR(r->U32(&e.transition_target));
    FC_RETURN_IF_ERROR(r->I64(&e.duration_value));
    FC_RETURN_IF_ERROR(r->F64(&e.global_probability));
    FC_RETURN_IF_ERROR(r->F64(&e.conditional_probability));
    FC_RETURN_IF_ERROR(r->U32(&e.condition_support));
    if (e.node >= num_nodes) return corrupt("exception node out of range");
    if (e.transition_target != FlowGraph::kTerminate &&
        e.transition_target >= num_nodes) {
      return corrupt("exception transition target out of range");
    }
    if (!std::isfinite(e.global_probability) ||
        !std::isfinite(e.conditional_probability)) {
      return corrupt("exception probability is not finite");
    }
    out->push_back(std::move(e));
  }
  return Status::OK();
}

namespace {

// Canonical slot table for cells installed in sorted order: linear probing
// from the itemset hash at exactly SlotCapacityFor(n). The writer emits
// this table; the loader rebuilds it and memcmps, which both validates the
// mapped table and proves it canonical in one pass.
std::vector<uint32_t> CanonicalSlots(const std::vector<FlowCell>& cells,
                                     size_t slot_count) {
  std::vector<uint32_t> slots(slot_count, Cuboid::kEmptySlot);
  if (slot_count == 0) return slots;
  const size_t mask = slot_count - 1;
  for (size_t i = 0; i < cells.size(); ++i) {
    size_t slot = ItemsetHash{}(cells[i].dims) & mask;
    while (slots[slot] != Cuboid::kEmptySlot) slot = (slot + 1) & mask;
    slots[slot] = static_cast<uint32_t>(i);
  }
  return slots;
}

template <typename T>
std::span<const T> ColumnAt(std::string_view arena, uint64_t offset,
                            uint64_t count) {
  // Offsets come from the canonical layout, so alignment and bounds are
  // already established.
  return {reinterpret_cast<const T*>(arena.data() + offset),
          static_cast<size_t>(count)};
}

}  // namespace

CuboidLayout ExpectedCuboidLayout(const CuboidCounts& c, uint64_t* cursor) {
  auto place = [cursor](uint64_t count, uint64_t elem_size, uint64_t align) {
    *cursor = FcspAlignUp(*cursor, align);
    const uint64_t offset = *cursor;
    *cursor += count * elem_size;
    return offset;
  };
  CuboidLayout l;
  l.dims_begin = place(c.cells + 1, 4, 4);
  l.dims = place(c.total_dims, 4, 4);
  l.support = place(c.cells, 4, 4);
  l.redundant = place(c.cells, 1, 1);
  l.node_begin = place(c.cells + 1, 4, 4);
  l.location = place(c.total_nodes, 4, 4);
  l.parent = place(c.total_nodes, 4, 4);
  l.depth = place(c.total_nodes, 4, 4);
  l.path_count = place(c.total_nodes, 4, 4);
  l.terminate = place(c.total_nodes, 4, 4);
  l.child_begin = place(c.total_nodes + 1, 4, 4);
  l.children = place(c.total_children, 4, 4);
  l.duration_begin = place(c.total_nodes + 1, 4, 4);
  l.durations =
      place(c.total_durations, sizeof(DurationCount), alignof(DurationCount));
  l.slots = place(c.slot_count, 4, 4);
  return l;
}

void EncodeCubeSections(const FlowCube& cube, ByteWriter* meta,
                        ArenaWriter* arena) {
  const FlowCubePlan& plan = cube.plan();
  meta->U32(static_cast<uint32_t>(plan.item_levels.size() *
                                  plan.path_levels.size()));
  uint64_t cursor = arena->size();
  for (size_t i = 0; i < plan.item_levels.size(); ++i) {
    for (size_t p = 0; p < plan.path_levels.size(); ++p) {
      const Cuboid& cuboid = cube.cuboid(i, p);
      const std::vector<const FlowCell*> cells = cuboid.SortedCells();

      CuboidCounts counts;
      counts.cells = cells.size();
      for (const FlowCell* cell : cells) {
        counts.total_dims += cell->dims.size();
        const FlowGraph& g = cell->graph;
        counts.total_nodes += g.num_nodes();
        for (FlowNodeId n = 0; n < g.num_nodes(); ++n) {
          counts.total_children += g.children(n).size();
          counts.total_durations += g.duration_counts(n).size();
        }
      }
      counts.slot_count =
          cells.empty() ? 0 : Cuboid::SlotCapacityFor(cells.size());
      const CuboidLayout layout = ExpectedCuboidLayout(counts, &cursor);

      meta->U32(static_cast<uint32_t>(i));
      meta->U32(static_cast<uint32_t>(p));
      meta->U64(counts.cells);
      meta->U64(counts.total_dims);
      meta->U64(counts.total_nodes);
      meta->U64(counts.total_children);
      meta->U64(counts.total_durations);
      meta->U64(counts.slot_count);
      meta->U64(layout.dims_begin);
      meta->U64(layout.dims);
      meta->U64(layout.support);
      meta->U64(layout.redundant);
      meta->U64(layout.node_begin);
      meta->U64(layout.location);
      meta->U64(layout.parent);
      meta->U64(layout.depth);
      meta->U64(layout.path_count);
      meta->U64(layout.terminate);
      meta->U64(layout.child_begin);
      meta->U64(layout.children);
      meta->U64(layout.duration_begin);
      meta->U64(layout.durations);
      meta->U64(layout.slots);

      // Flatten the cuboid into contiguous columns. The CSR begin columns
      // record absolute element offsets into their cuboid-wide value
      // columns (see cube_codec.h).
      std::vector<uint32_t> dims_begin, dims, support, node_begin, location,
          parent, path_count, terminate, child_begin, children,
          duration_begin;
      std::vector<int32_t> depth;
      std::vector<uint8_t> redundant;
      std::vector<DurationCount> durations;
      for (const FlowCell* cell : cells) {
        dims_begin.push_back(static_cast<uint32_t>(dims.size()));
        dims.insert(dims.end(), cell->dims.begin(), cell->dims.end());
        support.push_back(cell->support);
        redundant.push_back(cell->redundant ? 1 : 0);
        node_begin.push_back(static_cast<uint32_t>(location.size()));
        const FlowGraph& g = cell->graph;
        for (FlowNodeId n = 0; n < g.num_nodes(); ++n) {
          location.push_back(g.location(n));
          parent.push_back(g.parent(n));
          depth.push_back(static_cast<int32_t>(g.depth(n)));
          path_count.push_back(g.path_count(n));
          terminate.push_back(g.terminate_count(n));
          child_begin.push_back(static_cast<uint32_t>(children.size()));
          const std::span<const FlowNodeId> kids = g.children(n);
          children.insert(children.end(), kids.begin(), kids.end());
          duration_begin.push_back(static_cast<uint32_t>(durations.size()));
          const std::span<const DurationCount> durs = g.duration_counts(n);
          durations.insert(durations.end(), durs.begin(), durs.end());
        }
      }
      dims_begin.push_back(static_cast<uint32_t>(dims.size()));
      node_begin.push_back(static_cast<uint32_t>(location.size()));
      child_begin.push_back(static_cast<uint32_t>(children.size()));
      duration_begin.push_back(static_cast<uint32_t>(durations.size()));

      std::vector<uint32_t> slots(counts.slot_count, Cuboid::kEmptySlot);
      if (!cells.empty()) {
        const size_t mask = slots.size() - 1;
        for (size_t idx = 0; idx < cells.size(); ++idx) {
          size_t slot = ItemsetHash{}(cells[idx]->dims) & mask;
          while (slots[slot] != Cuboid::kEmptySlot) slot = (slot + 1) & mask;
          slots[slot] = static_cast<uint32_t>(idx);
        }
      }

      // Append, asserting each column lands at its canonical offset.
      FC_CHECK(arena->Append(std::span<const uint32_t>(dims_begin)) ==
               layout.dims_begin);
      FC_CHECK(arena->Append(std::span<const uint32_t>(dims)) == layout.dims);
      FC_CHECK(arena->Append(std::span<const uint32_t>(support)) ==
               layout.support);
      FC_CHECK(arena->Append(std::span<const uint8_t>(redundant)) ==
               layout.redundant);
      FC_CHECK(arena->Append(std::span<const uint32_t>(node_begin)) ==
               layout.node_begin);
      FC_CHECK(arena->Append(std::span<const uint32_t>(location)) ==
               layout.location);
      FC_CHECK(arena->Append(std::span<const uint32_t>(parent)) ==
               layout.parent);
      FC_CHECK(arena->Append(std::span<const int32_t>(depth)) == layout.depth);
      FC_CHECK(arena->Append(std::span<const uint32_t>(path_count)) ==
               layout.path_count);
      FC_CHECK(arena->Append(std::span<const uint32_t>(terminate)) ==
               layout.terminate);
      FC_CHECK(arena->Append(std::span<const uint32_t>(child_begin)) ==
               layout.child_begin);
      FC_CHECK(arena->Append(std::span<const uint32_t>(children)) ==
               layout.children);
      FC_CHECK(arena->Append(std::span<const uint32_t>(duration_begin)) ==
               layout.duration_begin);
      FC_CHECK(arena->AppendDurations(durations) == layout.durations);
      FC_CHECK(arena->Append(std::span<const uint32_t>(slots)) ==
               layout.slots);
      FC_CHECK(arena->size() == cursor);

      for (const FlowCell* cell : cells) {
        EncodeExceptionBlock(cell->graph.exceptions(), meta);
      }
    }
  }
}

Result<FlowCube> BuildCubeFromSections(
    std::string_view meta, std::string_view arena,
    std::shared_ptr<const void> keepalive, SchemaPtr schema,
    const FlowCubePlan& plan, const IncrementalMaintainerOptions& options) {
  if (reinterpret_cast<uintptr_t>(arena.data()) % alignof(DurationCount) !=
      0) {
    return Status::Internal("v2 arena buffer is insufficiently aligned");
  }

  FlowCube cube(plan, std::move(schema));
  const ItemCatalog& catalog = cube.catalog();
  const PathSchema& sch = cube.schema();

  ByteReader r(meta);
  uint32_t num_cuboids = 0;
  FC_RETURN_IF_ERROR(r.U32(&num_cuboids));
  if (num_cuboids != cube.num_cuboids()) {
    return Corrupt("cuboid count mismatch");
  }

  uint64_t cursor = 0;
  for (size_t i = 0; i < plan.item_levels.size(); ++i) {
    for (size_t p = 0; p < plan.path_levels.size(); ++p) {
      uint32_t il_index = 0;
      uint32_t pl_index = 0;
      FC_RETURN_IF_ERROR(r.U32(&il_index));
      FC_RETURN_IF_ERROR(r.U32(&pl_index));
      if (il_index != i || pl_index != p) {
        return Corrupt("cuboid out of order");
      }

      CuboidCounts counts;
      FC_RETURN_IF_ERROR(r.U64(&counts.cells));
      FC_RETURN_IF_ERROR(r.U64(&counts.total_dims));
      FC_RETURN_IF_ERROR(r.U64(&counts.total_nodes));
      FC_RETURN_IF_ERROR(r.U64(&counts.total_children));
      FC_RETURN_IF_ERROR(r.U64(&counts.total_durations));
      FC_RETURN_IF_ERROR(r.U64(&counts.slot_count));
      // Every column element occupies at least one arena byte, so any count
      // beyond the arena size is corrupt — and bounding the counts first
      // keeps the layout arithmetic below far from u64 overflow.
      if (counts.cells > arena.size() || counts.total_dims > arena.size() ||
          counts.total_nodes > arena.size() ||
          counts.total_children > arena.size() ||
          counts.total_durations > arena.size() ||
          counts.slot_count > arena.size()) {
        return Corrupt("column count exceeds the arena");
      }
      const uint64_t canonical_slots =
          counts.cells == 0 ? 0 : Cuboid::SlotCapacityFor(counts.cells);
      if (counts.slot_count != canonical_slots) {
        return Corrupt("slot table capacity is not canonical");
      }

      const CuboidLayout expected = ExpectedCuboidLayout(counts, &cursor);
      uint64_t stored[15];
      for (uint64_t& offset : stored) FC_RETURN_IF_ERROR(r.U64(&offset));
      const uint64_t canonical[15] = {
          expected.dims_begin, expected.dims,       expected.support,
          expected.redundant,  expected.node_begin, expected.location,
          expected.parent,     expected.depth,      expected.path_count,
          expected.terminate,  expected.child_begin, expected.children,
          expected.duration_begin, expected.durations, expected.slots};
      for (int k = 0; k < 15; ++k) {
        if (stored[k] != canonical[k]) {
          return Corrupt("column layout disagrees with the canonical packing");
        }
      }
      if (cursor > arena.size()) {
        return Corrupt("cuboid columns exceed the arena");
      }

      const CuboidLayout& l = expected;
      const auto dims_begin =
          ColumnAt<uint32_t>(arena, l.dims_begin, counts.cells + 1);
      const auto dims = ColumnAt<uint32_t>(arena, l.dims, counts.total_dims);
      const auto support =
          ColumnAt<uint32_t>(arena, l.support, counts.cells);
      const auto redundant =
          ColumnAt<uint8_t>(arena, l.redundant, counts.cells);
      const auto node_begin =
          ColumnAt<uint32_t>(arena, l.node_begin, counts.cells + 1);
      const auto location =
          ColumnAt<NodeId>(arena, l.location, counts.total_nodes);
      const auto parent =
          ColumnAt<FlowNodeId>(arena, l.parent, counts.total_nodes);
      const auto depth = ColumnAt<int32_t>(arena, l.depth, counts.total_nodes);
      const auto path_count =
          ColumnAt<uint32_t>(arena, l.path_count, counts.total_nodes);
      const auto terminate =
          ColumnAt<uint32_t>(arena, l.terminate, counts.total_nodes);
      const auto child_begin =
          ColumnAt<uint32_t>(arena, l.child_begin, counts.total_nodes + 1);
      const auto children =
          ColumnAt<FlowNodeId>(arena, l.children, counts.total_children);
      const auto duration_begin =
          ColumnAt<uint32_t>(arena, l.duration_begin, counts.total_nodes + 1);
      const auto durations =
          ColumnAt<DurationCount>(arena, l.durations, counts.total_durations);
      const auto slots = ColumnAt<uint32_t>(arena, l.slots, counts.slot_count);

      // CSR begin columns: zero origin, monotone, exact endpoints.
      if (dims_begin[0] != 0 || dims_begin[counts.cells] != counts.total_dims) {
        return Corrupt("cell coordinate offsets malformed");
      }
      for (uint64_t c = 0; c < counts.cells; ++c) {
        if (dims_begin[c + 1] < dims_begin[c]) {
          return Corrupt("cell coordinate offsets malformed");
        }
      }
      if (node_begin[0] != 0 ||
          node_begin[counts.cells] != counts.total_nodes) {
        return Corrupt("node offsets malformed");
      }
      for (uint64_t c = 0; c < counts.cells; ++c) {
        // Strict: every flowgraph has at least its root node.
        if (node_begin[c + 1] <= node_begin[c]) {
          return Corrupt("node offsets malformed");
        }
      }
      if (child_begin[0] != 0 ||
          child_begin[counts.total_nodes] != counts.total_children) {
        return Corrupt("flowgraph child offsets malformed");
      }
      if (duration_begin[0] != 0 ||
          duration_begin[counts.total_nodes] != counts.total_durations) {
        return Corrupt("flowgraph duration offsets malformed");
      }
      for (uint64_t n = 0; n < counts.total_nodes; ++n) {
        if (child_begin[n + 1] < child_begin[n]) {
          return Corrupt("flowgraph child offsets malformed");
        }
        if (duration_begin[n + 1] < duration_begin[n]) {
          return Corrupt("flowgraph duration offsets malformed");
        }
      }
      // Duration records: the 4 pad bytes of every 16-byte record must be
      // zero (they are CRC-covered and canonical form requires zero fill).
      for (uint64_t d = 0; d < counts.total_durations; ++d) {
        uint32_t pad = 0;
        std::memcpy(&pad, arena.data() + l.durations + d * 16 + 12, 4);
        if (pad != 0) return Corrupt("nonzero duration padding");
      }

      std::vector<FlowCell> out_cells;
      out_cells.reserve(counts.cells);
      for (uint64_t c = 0; c < counts.cells; ++c) {
        FlowCell cell;
        cell.dims.assign(dims.begin() + dims_begin[c],
                         dims.begin() + dims_begin[c + 1]);
        for (size_t j = 0; j < cell.dims.size(); ++j) {
          if (!catalog.IsDimItem(cell.dims[j])) {
            return Corrupt("cell dimension item out of range");
          }
          if (j > 0) {
            if (cell.dims[j] <= cell.dims[j - 1]) {
              return Corrupt("cell coordinates out of order");
            }
            if (catalog.DimOf(cell.dims[j]) <= catalog.DimOf(cell.dims[j - 1])) {
              return Corrupt("cell has two items of one dimension");
            }
          }
        }
        if (c > 0 && !(out_cells.back().dims < cell.dims)) {
          return Corrupt("cells out of order");
        }
        cell.support = support[c];
        if (redundant[c] > 1) return Corrupt("redundancy flag out of range");
        cell.redundant = redundant[c] == 1;

        const uint64_t a = node_begin[c];
        const uint64_t num_nodes = node_begin[c + 1] - a;
        if (location[a] != kInvalidNode || parent[a] != FlowGraph::kRoot ||
            depth[a] != 0) {
          return Corrupt("malformed flowgraph root");
        }
        for (uint64_t n = 1; n < num_nodes; ++n) {
          if (location[a + n] >= sch.locations.NodeCount()) {
            return Corrupt("flowgraph node location out of range");
          }
          if (parent[a + n] >= n) {
            return Corrupt("flowgraph parent out of order");
          }
          if (depth[a + n] != depth[a + parent[a + n]] + 1) {
            return Corrupt("flowgraph node depth mismatch");
          }
        }
        for (uint64_t n = 0; n < num_nodes; ++n) {
          for (uint64_t e = child_begin[a + n]; e < child_begin[a + n + 1];
               ++e) {
            // Child ids are graph-local; nodes are created parents-first.
            if (children[e] <= n || children[e] >= num_nodes) {
              return Corrupt("flowgraph child id out of order");
            }
          }
          const uint64_t d0 = duration_begin[a + n];
          const uint64_t d1 = duration_begin[a + n + 1];
          for (uint64_t d = d0 + 1; d < d1; ++d) {
            if (durations[d].duration <= durations[d - 1].duration) {
              return Corrupt("flowgraph duration counts out of order");
            }
          }
        }
        if (path_count[a] != cell.support) {
          return Corrupt("flowgraph path count disagrees with support");
        }
        const bool qualifies = cell.dims.empty()
                                   ? cell.support >= 1
                                   : cell.support >= options.build.min_support;
        if (!qualifies) return Corrupt("cell below the iceberg threshold");

        std::vector<FlowException> exceptions;
        FC_RETURN_IF_ERROR(
            DecodeExceptionBlock(&r, num_nodes, &Corrupt, &exceptions));

        FlowGraphStoreAccess::GraphSpans spans;
        spans.location = location.subspan(a, num_nodes);
        spans.parent = parent.subspan(a, num_nodes);
        spans.depth = depth.subspan(a, num_nodes);
        spans.path_count = path_count.subspan(a, num_nodes);
        spans.terminate_count = terminate.subspan(a, num_nodes);
        spans.child_begin = child_begin.subspan(a, num_nodes + 1);
        spans.child_arena = children;
        spans.duration_begin = duration_begin.subspan(a, num_nodes + 1);
        spans.duration_arena = durations;
        cell.graph = FlowGraphStoreAccess::MakeMapped(spans, keepalive,
                                                      std::move(exceptions));
        out_cells.push_back(std::move(cell));
      }

      const std::vector<uint32_t> canonical_table =
          CanonicalSlots(out_cells, counts.slot_count);
      if (counts.slot_count != 0 &&
          std::memcmp(canonical_table.data(), slots.data(),
                      counts.slot_count * sizeof(uint32_t)) != 0) {
        return Corrupt("slot table is not canonical");
      }

      CuboidStoreAccess::Install(&cube.mutable_cuboid(i, p),
                                 std::move(out_cells), slots, keepalive);
    }
  }
  if (cursor != arena.size()) {
    return Corrupt("arena size disagrees with the column layout");
  }
  if (!r.AtEnd()) return Corrupt("trailing bytes after cube metadata");
  return cube;
}

}  // namespace flowcube
