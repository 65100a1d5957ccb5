#ifndef FLOWCUBE_STORE_CUBE_CODEC_H_
#define FLOWCUBE_STORE_CUBE_CODEC_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "flowcube/flowcube.h"
#include "io/binary_io.h"
#include "store/arena_writer.h"
#include "stream/incremental_maintainer.h"

namespace flowcube {

// Encoder/decoder for the cube portion of an FCSP v2 file: the meta stream
// (cuboid shapes, column offsets, per-cell exception lists) and the column
// arena (the relocated sealed forms themselves). The checkpoint framing —
// header, CRCs, resume section — lives in store/format.h,
// stream/checkpoint.cc and store/mapped_cube.cc; this layer only sees the
// two section payloads.
//
// Per cuboid, the arena carries 15 columns in a fixed order, each aligned
// to its element type (see ExpectedCuboidLayout). Cells appear in sorted
// coordinate order. The CSR begin columns (dims_begin, node_begin,
// child_begin, duration_begin) hold offsets that are ABSOLUTE within their
// cuboid-wide value columns; a cell's FlowGraph views the node columns
// through subspans at its node_begin range while viewing the child/duration
// arenas whole, so the sealed accessor arithmetic is unchanged. Child and
// parent VALUES stay graph-local node ids.

// The exception block of one flowgraph: u64 count, then per exception u8
// kind, u64 condition length, (u32 node, i64 duration) per condition, u32
// node, u32 transition target, i64 duration value, f64 global and
// conditional probability, u32 condition support. FCSP v2 stores one per
// cell in the meta stream and the shard wire (serve/shard_codec.h) closes
// every flowgraph with one. Decoding bounds every node reference by
// `num_nodes` and rejects non-finite probabilities; `corrupt` turns a
// message into the caller's error Status.
void EncodeExceptionBlock(const std::vector<FlowException>& exceptions,
                          ByteWriter* w);
Status DecodeExceptionBlock(ByteReader* r, uint64_t num_nodes,
                            Status (*corrupt)(const char*),
                            std::vector<FlowException>* out);

// Element counts of one cuboid's columns.
struct CuboidCounts {
  uint64_t cells = 0;
  uint64_t total_dims = 0;       // sum of per-cell coordinate lengths
  uint64_t total_nodes = 0;      // sum of per-cell flowgraph node counts
  uint64_t total_children = 0;   // sum of child-edge counts
  uint64_t total_durations = 0;  // sum of duration-entry counts
  uint64_t slot_count = 0;       // 0 when empty, else SlotCapacityFor(cells)
};

// Arena-relative byte offsets of one cuboid's columns, in file order.
struct CuboidLayout {
  uint64_t dims_begin = 0;      // u32[cells + 1]
  uint64_t dims = 0;            // u32[total_dims]
  uint64_t support = 0;         // u32[cells]
  uint64_t redundant = 0;       // u8[cells]
  uint64_t node_begin = 0;      // u32[cells + 1]
  uint64_t location = 0;        // u32[total_nodes]
  uint64_t parent = 0;          // u32[total_nodes]
  uint64_t depth = 0;           // i32[total_nodes]
  uint64_t path_count = 0;      // u32[total_nodes]
  uint64_t terminate = 0;       // u32[total_nodes]
  uint64_t child_begin = 0;     // u32[total_nodes + 1]
  uint64_t children = 0;        // u32[total_children]
  uint64_t duration_begin = 0;  // u32[total_nodes + 1]
  uint64_t durations = 0;       // 16-byte records[total_durations]
  uint64_t slots = 0;           // u32[slot_count]
};

// The canonical packing: starting at *cursor, lays the 15 columns out in
// order, aligning each to its element type, and advances *cursor past the
// cuboid. The writer and the loader both call this one function; the loader
// rejects files whose recorded offsets disagree, which is what pins every
// arena byte down to a unique canonical position.
CuboidLayout ExpectedCuboidLayout(const CuboidCounts& counts,
                                  uint64_t* cursor);

// Serializes the cube's cuboid grid into `meta` and `arena`. Cuboids are
// emitted in plan order (item-level major); cells in sorted coordinate
// order; slot tables rebuilt canonically for that order. Works on either
// flowgraph storage form (reads through accessors).
void EncodeCubeSections(const FlowCube& cube, ByteWriter* meta,
                        ArenaWriter* arena);

// Rebuilds a FlowCube whose sealed flowgraph columns and cuboid slot
// tables are read-only views into `arena` — no column data is copied.
// `keepalive` must pin the allocation backing `arena` (a file mapping or a
// heap buffer) and is retained by every graph of the returned cube.
//
// Performs full structural validation before anything is trusted: canonical
// column layout, monotone CSR offsets with exact endpoints, per-graph tree
// invariants, sorted duration entries with zeroed padding, sorted cell
// coordinates, catalog/schema bounds, support and iceberg invariants
// (`options` supplies the threshold), and a memcmp of each slot table
// against its canonical rebuild. Failures are InvalidArgument with a
// distinct "corrupt v2 checkpoint: ..." message. The returned cube is
// immutable — mutating a borrowed cuboid FC_CHECKs.
Result<FlowCube> BuildCubeFromSections(
    std::string_view meta, std::string_view arena,
    std::shared_ptr<const void> keepalive, SchemaPtr schema,
    const FlowCubePlan& plan, const IncrementalMaintainerOptions& options);

}  // namespace flowcube

#endif  // FLOWCUBE_STORE_CUBE_CODEC_H_
