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
// read by the ShardCoordinator (shard/coordinator.h). Integers are
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
// checked, a cell's support must equal its flowgraph's path count, and any
// failure is a plain InvalidArgument (the coordinator reports it as the
// shard's malformed body).

// One flowgraph as a node table: per node location, parent, depth,
// children (in order), path and terminate counts, sorted duration counts;
// then the exception block (store/cube_codec.h EncodeExceptionBlock).
// Encoding reads through the accessor API, so both storage forms encode
// identically; decoding validates the tree against `schema` and returns a
// sealed graph.
void EncodeFlowGraph(const FlowGraph& graph, ByteWriter* writer);
Status DecodeFlowGraph(ByteReader* reader, const PathSchema& schema,
                       FlowGraph* graph);

// Encoders. A null cell is one the shard does not hold; `children` must be
// sorted by coordinates and empty when `parent` is null; `cuboids` holds
// each cuboid's SortedCells() in plan order.
std::string EncodeCellFetchBody(std::span<const FlowCell* const> cells);
std::string EncodeChildrenBody(const FlowCell* parent,
                               std::span<const FlowCell* const> children);
std::string EncodeStatsBody(uint64_t records, const FlowCubePlan& plan,
                            std::span<const std::vector<const FlowCell*>> cuboids);

// One shard's contribution to one coordinate.
struct FetchedCell {
  bool found = false;
  uint32_t support = 0;
  FlowGraph graph;  // sealed (DecodeFlowGraph output)
};

struct FetchedChildren {
  FetchedCell parent;
  std::vector<std::pair<Itemset, FetchedCell>> children;
};

struct FetchedStats {
  uint64_t records = 0;
  // cuboids[il * num_pl + pl] = (key, support) list, sorted by key.
  std::vector<std::vector<std::pair<Itemset, uint32_t>>> cuboids;
};

// Decoders. A cell-fetch body must answer exactly `expected` coordinates; a
// stats body must have the shape of `plan`.
Status DecodeCellFetchBody(std::string_view body, const PathSchema& schema,
                           size_t expected, std::vector<FetchedCell>* out);
Status DecodeChildrenBody(std::string_view body, const PathSchema& schema,
                          FetchedChildren* out);
Status DecodeStatsBody(std::string_view body, const FlowCubePlan& plan,
                       FetchedStats* out);

}  // namespace flowcube

#endif  // FLOWCUBE_SERVE_SHARD_CODEC_H_
