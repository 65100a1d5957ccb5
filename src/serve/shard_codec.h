#ifndef FLOWCUBE_SERVE_SHARD_CODEC_H_
#define FLOWCUBE_SERVE_SHARD_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "flowcube/flowcube.h"
#include "flowgraph/flowgraph.h"
#include "io/binary_io.h"

namespace flowcube {

// The shard wire format: the binary bodies of the three shard-internal
// FCQP requests (serve/protocol.h), written by a shard's QueryService and
// read by the ShardCoordinator (shard/coordinator.h) when the shard is
// remote. An in-process shard hands the coordinator the typed results
// below directly (ShardBackend's typed fetches), with no body. Integers are
// io/binary_io little-endian primitives. Each flowgraph is one node table
// (EncodeFlowGraph below):
//
//   kCellFetchBatch:
//     u32 count, then per requested coordinate:
//       u8 found; when found: u32 support, flowgraph
//   kChildrenFetch:
//     u8 parent_found; when found: u32 parent_support, flowgraph
//     u32 num_children, then per child (sorted by coordinates):
//       u32 key_size, u32 key ids..., u32 support, flowgraph
//     (a shard without the parent sends u8 0, u32 0)
//   kStatsFetch:
//     u64 records, u32 num_item_levels, u32 num_path_levels, then per
//     cuboid (item level outer, path level inner):
//       u32 num_cells, then per cell (sorted by coordinates):
//         u32 key_size, u32 key ids..., u32 support
//
// The encoding is canonical: a body the decoders accept re-encodes to the
// same bytes (fuzz/shard_body_harness.cc checks it). The decoders parse
// bytes from another process, so every count, id and tree link is bounds-
// checked, a cell's support must equal its flowgraph's path count, stats
// keys must ascend within each cuboid (the coordinator merges them in one
// pass), and any failure is a plain InvalidArgument (the coordinator
// reports it as the shard's malformed body).

// One flowgraph as a node table: per node location, parent, depth,
// children (in order), path and terminate counts, sorted duration counts;
// then the exception block (store/cube_codec.h EncodeExceptionBlock).
// Encoding reads through the accessor API, so both storage forms encode
// identically; decoding validates the tree against `schema` and returns a
// sealed graph.
void EncodeFlowGraph(const FlowGraph& graph, ByteWriter* writer);
Status DecodeFlowGraph(ByteReader* reader, const PathSchema& schema,
                       FlowGraph* graph);

// One shard's contribution to one coordinate.
struct FetchedCell {
  bool found = false;
  uint32_t support = 0;
  FlowGraph graph;  // sealed
};

struct FetchedChildren {
  FetchedCell parent;
  std::vector<std::pair<Itemset, FetchedCell>> children;
};

// One shard's cell supports in flat columns, with no allocation per key.
// Cuboid c (item level outer, path level inner) holds cells
// [cuboid_begin[c], cuboid_begin[c + 1]) in strictly ascending key order;
// cell i's key is items[key_begin[i], key_begin[i + 1]) and its support is
// supports[i]. DecodeStatsBody fills it from a kStatsFetch body and
// QueryService::CollectStats straight from a snapshot.
struct FetchedStats {
  uint64_t records = 0;
  std::vector<uint32_t> cuboid_begin = {0};
  std::vector<uint32_t> key_begin = {0};
  std::vector<ItemId> items;
  std::vector<uint32_t> supports;

  size_t num_cuboids() const { return cuboid_begin.size() - 1; }
  std::span<const ItemId> key(size_t cell) const {
    return {items.data() + key_begin[cell],
            key_begin[cell + 1] - key_begin[cell]};
  }
  // Appends a cell to the open cuboid; EndCuboid closes it.
  void AddCell(std::span<const ItemId> key, uint32_t support) {
    items.insert(items.end(), key.begin(), key.end());
    key_begin.push_back(static_cast<uint32_t>(items.size()));
    supports.push_back(support);
  }
  void EndCuboid() {
    cuboid_begin.push_back(static_cast<uint32_t>(supports.size()));
  }
};

// Encoders. A null cell is one the shard does not hold; `children` must be
// sorted by coordinates and empty when `parent` is null; `stats` must have
// the cuboid grid of `plan`.
std::string EncodeCellFetchBody(std::span<const FlowCell* const> cells);
std::string EncodeChildrenBody(const FlowCell* parent,
                               std::span<const FlowCell* const> children);
std::string EncodeStatsBody(const FlowCubePlan& plan,
                            const FetchedStats& stats);

// Decoders. A cell-fetch body must answer exactly `expected` coordinates; a
// stats body must have the shape of `plan` and ascending keys per cuboid.
Status DecodeCellFetchBody(std::string_view body, const PathSchema& schema,
                           size_t expected, std::vector<FetchedCell>* out);
Status DecodeChildrenBody(std::string_view body, const PathSchema& schema,
                          FetchedChildren* out);
Status DecodeStatsBody(std::string_view body, const FlowCubePlan& plan,
                       FetchedStats* out);

// What a shard's answer fails with when it breaks this contract: a body
// the decoders reject, or an in-process cell whose support is not its
// flowgraph's path count. The coordinator puts the shard's name in front.
Status MalformedInternalBody();

}  // namespace flowcube

#endif  // FLOWCUBE_SERVE_SHARD_CODEC_H_
