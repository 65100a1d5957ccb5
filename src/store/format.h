#ifndef FLOWCUBE_STORE_FORMAT_H_
#define FLOWCUBE_STORE_FORMAT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "flowgraph/flowgraph.h"
#include "stream/incremental_maintainer.h"

namespace flowcube {

// FCSP v2: the checkpoint layout (DESIGN.md §16). The payload *is* the
// sealed columnar arenas — every internal pointer rewritten as a
// base-relative u64 offset into one aligned, CRC-protected blob — so a
// loader can mmap the file and serve queries straight out of the mapping
// (store/mapped_cube.h), and a pipeline restore (stream/checkpoint.h)
// views the same columns instead of decoding them.
//
// File layout (all integers little-endian; offsets from the file start):
//
//   [0, 96)                 header (fixed size, kFcspV2HeaderSize)
//   [96, 96 + meta_size)    meta stream: cuboid grid shape, per-cuboid
//                           element counts + column offsets, per-cell
//                           exception lists (ByteWriter encoding)
//   [.., arena_offset)      zero padding to a 64-byte boundary
//   [arena_offset, +size)   column arena: the raw little-endian columns,
//                           each aligned to its element type
//   [resume_offset, +size)  resume section: live path records + optional
//                           ingestor state (absent in cube-only files)
//
// Header fields (byte offset, type):
//    0  u32  magic "FCSP"
//    4  u32  version = 2 (every other value is rejected)
//    8  u32  header CRC-32 of bytes [12, 96)
//   12  u32  config fingerprint (schema shape + plan + options)
//   16  u64  file size
//   24  u64  meta offset (always 96)
//   32  u64  meta size
//   40  u32  meta CRC-32
//   44  u32  arena CRC-32
//   48  u64  arena offset (64-byte aligned)
//   56  u64  arena size
//   64  u64  resume offset (0 when the file carries no resume section)
//   72  u64  resume size
//   80  u32  resume CRC-32
//   84  u32  reserved, must be 0
//   88  u64  live record count (equals the resume section's record count)
//
// The layout is *canonical*: every section offset is a pure function of the
// section sizes (meta at 96, arena at the next 64-byte boundary, resume
// immediately after the arena), padding is zeroed, and the arena's column
// offsets are the deterministic packing ExpectedCuboidLayout computes
// (cube_codec.h). Validation enforces canonical form, which is what makes
// "decode then re-encode" byte-identical — the fuzz oracle's fixed point.

inline constexpr uint32_t kFcspMagic = 0x50534346;  // "FCSP"
inline constexpr uint32_t kFcspFormatV2 = 2;
inline constexpr size_t kFcspV2HeaderSize = 96;
inline constexpr size_t kFcspArenaAlignment = 64;

// Mapped columns are reinterpreted in place, so the element layouts are
// part of the on-disk contract. DurationCount is written element-wise
// (i64 duration, u32 count, u32 zero padding) and read back by
// reinterpreting 16-byte records.
static_assert(std::endian::native == std::endian::little,
              "FCSP v2 mapped columns require a little-endian host");
static_assert(sizeof(DurationCount) == 16 && alignof(DurationCount) == 8,
              "DurationCount on-disk layout drifted");
static_assert(offsetof(DurationCount, duration) == 0 &&
                  offsetof(DurationCount, count) == 8,
              "DurationCount field offsets drifted");
static_assert(sizeof(FlowNodeId) == 4 && sizeof(ItemId) == 4 &&
                  sizeof(NodeId) == 4 && sizeof(Duration) == 8,
              "column element widths are part of the FCSP v2 contract");

inline constexpr uint64_t FcspAlignUp(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

// Decoded v2 header (everything but the magic/version/CRC plumbing).
struct FcspV2Header {
  uint32_t config_fingerprint = 0;
  uint64_t file_size = 0;
  uint64_t meta_offset = 0;
  uint64_t meta_size = 0;
  uint32_t meta_crc = 0;
  uint32_t arena_crc = 0;
  uint64_t arena_offset = 0;
  uint64_t arena_size = 0;
  uint64_t resume_offset = 0;
  uint64_t resume_size = 0;
  uint32_t resume_crc = 0;
  uint64_t live_records = 0;
};

// Serializes the fixed 96-byte header, computing the header CRC.
std::string EncodeV2Header(const FcspV2Header& h);

// The one validation every reader of a v2 image runs before parsing a
// section: magic, version, header CRC, declared file size against
// bytes.size(), canonical section layout (meta at 96, 64-aligned arena
// immediately after, resume last or absent), zeroed inter-section padding,
// the reserved word; then the config fingerprint when `fingerprint` is
// given (schema-free inspection passes nullopt); then, when `verify_crc`,
// the meta, arena and resume CRCs in that order. Every failure is an
// InvalidArgument with a distinct message.
Status ValidateV2Image(std::string_view bytes,
                       std::optional<uint32_t> fingerprint, bool verify_crc,
                       FcspV2Header* out);

// Reads a whole checkpoint file: NotFound when it cannot be opened,
// Internal when the read fails.
Result<std::string> ReadCheckpointFile(const std::string& filename);

// Schema-free summary of a checkpoint file — what `fcsp_tool info` prints.
struct CheckpointFileInfo {
  uint64_t file_size = 0;
  uint32_t config_fingerprint = 0;
  uint64_t live_records = 0;
  uint64_t meta_size = 0;
  uint64_t arena_size = 0;
  uint64_t resume_size = 0;  // 0 for a cube-only file
};

// Runs ValidateV2Image over `filename` with every CRC verified but no
// fingerprint, so a checkpoint can be inspected without the writer's
// schema, plan and options. Builds no cube.
Result<CheckpointFileInfo> InspectCheckpointFile(const std::string& filename);

// Fingerprint of (schema shape, plan, maintainer options) — the config a
// checkpoint is only valid against, stored in the header. The byte recipe
// must never change, or existing checkpoints stop validating.
uint32_t CheckpointConfigFingerprint(const PathSchema& schema,
                                     const FlowCubePlan& plan,
                                     const IncrementalMaintainerOptions& opts);

}  // namespace flowcube

#endif  // FLOWCUBE_STORE_FORMAT_H_
