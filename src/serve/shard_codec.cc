#include "serve/shard_codec.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "serve/protocol.h"
#include "store/cube_codec.h"

namespace flowcube {

namespace {

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed shard body: ") +
                                 what);
}

// Reads a u64 element count and rejects counts that could not possibly fit
// in the remaining bytes (every encoded element consumes at least one
// byte), so a corrupted count can never drive a huge allocation or loop.
Status ReadCount(ByteReader* r, uint64_t* count) {
  FC_RETURN_IF_ERROR(r->U64(count));
  if (*count > r->remaining()) {
    return Malformed("element count exceeds body size");
  }
  return Status::OK();
}

// The u32 variant for the body-level entry counts.
Status ReadCount(ByteReader* r, uint32_t* count) {
  FC_RETURN_IF_ERROR(r->U32(count));
  if (*count > r->remaining()) {
    return Malformed("element count exceeds body size");
  }
  return Status::OK();
}

}  // namespace

// Serializes FlowGraph node tables verbatim — children order, sorted
// duration counts, and the exception list included — so a decoded graph
// merges and renders exactly like the shard's own. Reads through the
// accessor API (both storage forms encode identically); decoding
// accumulates into the mutable form and seals the finished graph. Friend
// of FlowGraph.
struct FlowGraphWireCodec {
  static void Encode(const FlowGraph& g, ByteWriter* w) {
    w->U64(g.num_nodes());
    for (FlowNodeId n = 0; n < g.num_nodes(); ++n) {
      w->U32(g.location(n));
      w->U32(g.parent(n));
      w->U32(static_cast<uint32_t>(g.depth(n)));
      const auto children = g.children(n);
      w->U64(children.size());
      for (FlowNodeId c : children) w->U32(c);
      w->U32(g.path_count(n));
      w->U32(g.terminate_count(n));
      const auto durations = g.duration_counts(n);
      w->U64(durations.size());
      for (const DurationCount& dc : durations) {
        w->I64(dc.duration);
        w->U32(dc.count);
      }
    }
    EncodeExceptionBlock(g.exceptions_, w);
  }

  static Status Decode(ByteReader* r, const PathSchema& schema, FlowGraph* g) {
    uint64_t num_nodes = 0;
    FC_RETURN_IF_ERROR(ReadCount(r, &num_nodes));
    if (num_nodes < 1) return Malformed("flowgraph has no root node");
    g->nodes_.clear();
    g->exceptions_.clear();
    for (uint64_t i = 0; i < num_nodes; ++i) {
      FlowGraph::Node n;
      uint32_t depth = 0;
      FC_RETURN_IF_ERROR(r->U32(&n.location));
      FC_RETURN_IF_ERROR(r->U32(&n.parent));
      FC_RETURN_IF_ERROR(r->U32(&depth));
      n.depth = static_cast<int>(depth);
      if (i == 0) {
        if (n.location != kInvalidNode || n.parent != FlowGraph::kRoot ||
            n.depth != 0) {
          return Malformed("malformed flowgraph root");
        }
      } else {
        if (n.location >= schema.locations.NodeCount()) {
          return Malformed("flowgraph node location out of range");
        }
        // Nodes are created parents-first, so a well-formed table has
        // parent < node < children — which also rules out cycles.
        if (n.parent >= i) return Malformed("flowgraph parent out of order");
        if (n.depth != g->nodes_[n.parent].depth + 1) {
          return Malformed("flowgraph node depth mismatch");
        }
      }
      uint64_t num_children = 0;
      FC_RETURN_IF_ERROR(ReadCount(r, &num_children));
      for (uint64_t c = 0; c < num_children; ++c) {
        uint32_t child = 0;
        FC_RETURN_IF_ERROR(r->U32(&child));
        if (child <= i || child >= num_nodes) {
          return Malformed("flowgraph child id out of order");
        }
        n.children.push_back(child);
      }
      FC_RETURN_IF_ERROR(r->U32(&n.path_count));
      FC_RETURN_IF_ERROR(r->U32(&n.terminate_count));
      uint64_t num_durations = 0;
      FC_RETURN_IF_ERROR(ReadCount(r, &num_durations));
      Duration prev = std::numeric_limits<Duration>::min();
      for (uint64_t d = 0; d < num_durations; ++d) {
        Duration value = 0;
        uint32_t count = 0;
        FC_RETURN_IF_ERROR(r->I64(&value));
        FC_RETURN_IF_ERROR(r->U32(&count));
        if (d > 0 && value <= prev) {
          return Malformed("flowgraph duration counts out of order");
        }
        prev = value;
        n.duration_counts.push_back(DurationCount{value, count});
      }
      g->nodes_.push_back(std::move(n));
    }
    FC_RETURN_IF_ERROR(
        DecodeExceptionBlock(r, num_nodes, &Malformed, &g->exceptions_));
    // Cube-resident graphs are sealed everywhere; sealing here keeps a
    // decoded graph's layout identical to the shard's.
    g->Seal();
    return Status::OK();
  }
};

void EncodeFlowGraph(const FlowGraph& graph, ByteWriter* writer) {
  FlowGraphWireCodec::Encode(graph, writer);
}

Status DecodeFlowGraph(ByteReader* reader, const PathSchema& schema,
                       FlowGraph* graph) {
  return FlowGraphWireCodec::Decode(reader, schema, graph);
}

namespace {

void EncodeKey(const Itemset& key, ByteWriter* w) {
  w->U32(static_cast<uint32_t>(key.size()));
  for (ItemId id : key) w->U32(id);
}

Status DecodeKey(ByteReader* r, Itemset* key) {
  uint32_t n = 0;
  FC_RETURN_IF_ERROR(r->U32(&n));
  if (n > kMaxQueryValues) return Malformed("key too long");
  key->clear();
  key->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t id = 0;
    FC_RETURN_IF_ERROR(r->U32(&id));
    key->push_back(id);
  }
  return Status::OK();
}

void EncodeCell(const FlowCell& cell, ByteWriter* w) {
  w->U32(cell.support);
  EncodeFlowGraph(cell.graph, w);
}

// The (support, flowgraph) pair every cell entry carries. The support must
// be the graph's path count, as it is for every materialized cell.
Status DecodeCell(ByteReader* r, const PathSchema& schema, FetchedCell* cell) {
  cell->found = true;
  FC_RETURN_IF_ERROR(r->U32(&cell->support));
  FC_RETURN_IF_ERROR(DecodeFlowGraph(r, schema, &cell->graph));
  if (cell->graph.total_paths() != cell->support) {
    return Malformed("cell support disagrees with its flowgraph");
  }
  return Status::OK();
}

Status ExpectEnd(const ByteReader& r) {
  return r.AtEnd() ? Status::OK() : Malformed("trailing bytes");
}

}  // namespace

std::string EncodeCellFetchBody(std::span<const FlowCell* const> cells) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(cells.size()));
  for (const FlowCell* cell : cells) {
    w.U8(cell == nullptr ? 0 : 1);
    if (cell != nullptr) EncodeCell(*cell, &w);
  }
  return w.data();
}

std::string EncodeChildrenBody(const FlowCell* parent,
                               std::span<const FlowCell* const> children) {
  ByteWriter w;
  w.U8(parent == nullptr ? 0 : 1);
  if (parent != nullptr) EncodeCell(*parent, &w);
  w.U32(static_cast<uint32_t>(children.size()));
  for (const FlowCell* child : children) {
    EncodeKey(child->dims, &w);
    EncodeCell(*child, &w);
  }
  return w.data();
}

std::string EncodeStatsBody(const FlowCubePlan& plan,
                            const FetchedStats& stats) {
  FC_CHECK(stats.num_cuboids() ==
           plan.item_levels.size() * plan.path_levels.size());
  ByteWriter w;
  w.U64(stats.records);
  w.U32(static_cast<uint32_t>(plan.item_levels.size()));
  w.U32(static_cast<uint32_t>(plan.path_levels.size()));
  for (size_t c = 0; c < stats.num_cuboids(); ++c) {
    w.U32(stats.cuboid_begin[c + 1] - stats.cuboid_begin[c]);
    for (uint32_t i = stats.cuboid_begin[c]; i < stats.cuboid_begin[c + 1];
         ++i) {
      const std::span<const ItemId> key = stats.key(i);
      w.U32(static_cast<uint32_t>(key.size()));
      for (ItemId id : key) w.U32(id);
      w.U32(stats.supports[i]);
    }
  }
  return w.data();
}

Status DecodeCellFetchBody(std::string_view body, const PathSchema& schema,
                           size_t expected, std::vector<FetchedCell>* out) {
  ByteReader r(body);
  uint32_t n = 0;
  FC_RETURN_IF_ERROR(ReadCount(&r, &n));
  if (n != expected) return Malformed("cell count disagrees with the request");
  out->clear();
  out->resize(n);
  for (FetchedCell& cell : *out) {
    uint8_t found = 0;
    FC_RETURN_IF_ERROR(r.U8(&found));
    if (found > 1) return Malformed("found flag out of range");
    if (found == 1) FC_RETURN_IF_ERROR(DecodeCell(&r, schema, &cell));
  }
  return ExpectEnd(r);
}

Status DecodeChildrenBody(std::string_view body, const PathSchema& schema,
                          FetchedChildren* out) {
  ByteReader r(body);
  uint8_t found = 0;
  FC_RETURN_IF_ERROR(r.U8(&found));
  if (found > 1) return Malformed("found flag out of range");
  if (found == 1) FC_RETURN_IF_ERROR(DecodeCell(&r, schema, &out->parent));
  uint32_t n = 0;
  FC_RETURN_IF_ERROR(ReadCount(&r, &n));
  // No parent paths on a shard means no child paths either.
  if (found == 0 && n != 0) return Malformed("children without a parent");
  out->children.resize(n);
  for (auto& [key, cell] : out->children) {
    FC_RETURN_IF_ERROR(DecodeKey(&r, &key));
    FC_RETURN_IF_ERROR(DecodeCell(&r, schema, &cell));
  }
  return ExpectEnd(r);
}

Status DecodeStatsBody(std::string_view body, const FlowCubePlan& plan,
                       FetchedStats* out) {
  ByteReader r(body);
  *out = FetchedStats();
  FC_RETURN_IF_ERROR(r.U64(&out->records));
  uint32_t n_il = 0;
  uint32_t n_pl = 0;
  FC_RETURN_IF_ERROR(r.U32(&n_il));
  FC_RETURN_IF_ERROR(r.U32(&n_pl));
  // A shard running a different plan is a deployment error, not data.
  if (n_il != plan.item_levels.size() || n_pl != plan.path_levels.size()) {
    return Malformed("cuboid grid disagrees with the plan");
  }
  const size_t num_cuboids = static_cast<size_t>(n_il) * n_pl;
  for (size_t c = 0; c < num_cuboids; ++c) {
    uint32_t n = 0;
    FC_RETURN_IF_ERROR(ReadCount(&r, &n));
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t key_size = 0;
      FC_RETURN_IF_ERROR(r.U32(&key_size));
      if (key_size > kMaxQueryValues) return Malformed("key too long");
      for (uint32_t k = 0; k < key_size; ++k) {
        uint32_t id = 0;
        FC_RETURN_IF_ERROR(r.U32(&id));
        out->items.push_back(id);
      }
      uint32_t support = 0;
      FC_RETURN_IF_ERROR(r.U32(&support));
      out->key_begin.push_back(static_cast<uint32_t>(out->items.size()));
      out->supports.push_back(support);
      const size_t cell = out->supports.size() - 1;
      if (i > 0 && !std::ranges::lexicographical_compare(out->key(cell - 1),
                                                         out->key(cell))) {
        return Malformed("cell keys out of order");
      }
    }
    out->EndCuboid();
  }
  return ExpectEnd(r);
}

Status MalformedInternalBody() {
  return Status::Internal("malformed internal response body");
}

}  // namespace flowcube
