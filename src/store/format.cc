#include "store/format.h"

#include <fstream>
#include <sstream>
#include <string>

#include "common/logging.h"
#include "io/binary_io.h"

namespace flowcube {

namespace {

Status Corrupt(const char* what) {
  return Status::InvalidArgument(std::string("corrupt v2 checkpoint: ") +
                                 what);
}

}  // namespace

std::string EncodeV2Header(const FcspV2Header& h) {
  ByteWriter body;  // bytes [12, 96) — what the header CRC covers
  body.U32(h.config_fingerprint);
  body.U64(h.file_size);
  body.U64(h.meta_offset);
  body.U64(h.meta_size);
  body.U32(h.meta_crc);
  body.U32(h.arena_crc);
  body.U64(h.arena_offset);
  body.U64(h.arena_size);
  body.U64(h.resume_offset);
  body.U64(h.resume_size);
  body.U32(h.resume_crc);
  body.U32(0);  // reserved
  body.U64(h.live_records);
  FC_CHECK(body.size() == kFcspV2HeaderSize - 12);

  ByteWriter out;
  out.U32(kFcspMagic);
  out.U32(kFcspFormatV2);
  out.U32(Crc32(body.data()));
  std::string bytes = out.data();
  bytes += body.data();
  return bytes;
}

Status ValidateV2Image(std::string_view bytes,
                       std::optional<uint32_t> fingerprint, bool verify_crc,
                       FcspV2Header* out) {
  if (bytes.size() < kFcspV2HeaderSize) return Corrupt("truncated header");
  ByteReader r(bytes.substr(0, kFcspV2HeaderSize));
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t header_crc = 0;
  FC_RETURN_IF_ERROR(r.U32(&magic));
  if (magic != kFcspMagic) {
    return Status::InvalidArgument("not a flowcube checkpoint (bad magic)");
  }
  FC_RETURN_IF_ERROR(r.U32(&version));
  if (version != kFcspFormatV2) {
    return Status::InvalidArgument("unsupported checkpoint version");
  }
  FC_RETURN_IF_ERROR(r.U32(&header_crc));
  if (Crc32(bytes.substr(12, kFcspV2HeaderSize - 12)) != header_crc) {
    return Corrupt("header checksum mismatch");
  }

  FcspV2Header h;
  uint32_t reserved = 0;
  FC_RETURN_IF_ERROR(r.U32(&h.config_fingerprint));
  FC_RETURN_IF_ERROR(r.U64(&h.file_size));
  FC_RETURN_IF_ERROR(r.U64(&h.meta_offset));
  FC_RETURN_IF_ERROR(r.U64(&h.meta_size));
  FC_RETURN_IF_ERROR(r.U32(&h.meta_crc));
  FC_RETURN_IF_ERROR(r.U32(&h.arena_crc));
  FC_RETURN_IF_ERROR(r.U64(&h.arena_offset));
  FC_RETURN_IF_ERROR(r.U64(&h.arena_size));
  FC_RETURN_IF_ERROR(r.U64(&h.resume_offset));
  FC_RETURN_IF_ERROR(r.U64(&h.resume_size));
  FC_RETURN_IF_ERROR(r.U32(&h.resume_crc));
  FC_RETURN_IF_ERROR(r.U32(&reserved));
  FC_RETURN_IF_ERROR(r.U64(&h.live_records));

  if (reserved != 0) return Corrupt("reserved header field is not zero");
  if (h.file_size != bytes.size()) {
    return Corrupt("file size disagrees with header");
  }
  if (h.meta_offset != kFcspV2HeaderSize) {
    return Corrupt("meta section is not at the canonical offset");
  }
  if (h.meta_size > bytes.size() - kFcspV2HeaderSize) {
    return Corrupt("meta section exceeds the file");
  }
  // Canonical layout: the arena starts at the first 64-byte boundary after
  // the meta stream, and the resume section (when present) follows it
  // immediately — offsets are a pure function of the section sizes, which
  // is what makes re-encoding a decoded file byte-identical.
  const uint64_t canonical_arena =
      FcspAlignUp(kFcspV2HeaderSize + h.meta_size, kFcspArenaAlignment);
  if (h.arena_offset != canonical_arena) {
    return Corrupt("arena is not at the canonical aligned offset");
  }
  if (h.arena_offset > bytes.size() ||
      h.arena_size > bytes.size() - h.arena_offset) {
    return Corrupt("arena section exceeds the file");
  }
  const uint64_t arena_end = h.arena_offset + h.arena_size;
  if (h.resume_size == 0) {
    if (h.resume_offset != 0 || h.resume_crc != 0) {
      return Corrupt("empty resume section with nonzero offset or checksum");
    }
    if (arena_end != bytes.size()) {
      return Corrupt("file size disagrees with the section sizes");
    }
  } else {
    if (h.resume_offset != arena_end) {
      return Corrupt("resume section is not at the canonical offset");
    }
    if (bytes.size() - h.resume_offset != h.resume_size) {
      return Corrupt("file size disagrees with the section sizes");
    }
  }
  for (uint64_t i = kFcspV2HeaderSize + h.meta_size; i < h.arena_offset; ++i) {
    if (bytes[i] != 0) return Corrupt("nonzero padding between sections");
  }

  if (fingerprint.has_value() && h.config_fingerprint != *fingerprint) {
    return Status::InvalidArgument(
        "checkpoint was written with a different schema, plan, or options");
  }
  if (verify_crc) {
    if (Crc32(bytes.substr(h.meta_offset, h.meta_size)) != h.meta_crc) {
      return Corrupt("meta checksum mismatch");
    }
    if (Crc32(bytes.substr(h.arena_offset, h.arena_size)) != h.arena_crc) {
      return Corrupt("arena checksum mismatch");
    }
    if (h.resume_size != 0 &&
        Crc32(bytes.substr(h.resume_offset, h.resume_size)) != h.resume_crc) {
      return Corrupt("resume checksum mismatch");
    }
  }
  if (out != nullptr) *out = h;
  return Status::OK();
}

Result<std::string> ReadCheckpointFile(const std::string& filename) {
  std::ifstream in(filename, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open " + filename);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::Internal("checkpoint read failed");
  }
  return buffer.str();
}

Result<CheckpointFileInfo> InspectCheckpointFile(const std::string& filename) {
  Result<std::string> bytes = ReadCheckpointFile(filename);
  if (!bytes.ok()) return bytes.status();
  FcspV2Header h;
  FC_RETURN_IF_ERROR(ValidateV2Image(bytes.value(), std::nullopt,
                                     /*verify_crc=*/true, &h));
  CheckpointFileInfo info;
  info.file_size = h.file_size;
  info.config_fingerprint = h.config_fingerprint;
  info.live_records = h.live_records;
  info.meta_size = h.meta_size;
  info.arena_size = h.arena_size;
  info.resume_size = h.resume_size;
  return info;
}

uint32_t CheckpointConfigFingerprint(const PathSchema& schema,
                                     const FlowCubePlan& plan,
                                     const IncrementalMaintainerOptions& opts) {
  ByteWriter w;
  w.U64(schema.num_dimensions());
  for (const ConceptHierarchy& h : schema.dimensions) {
    w.U64(h.NodeCount());
    w.U32(static_cast<uint32_t>(h.MaxLevel()));
  }
  w.U64(schema.locations.NodeCount());
  w.U32(static_cast<uint32_t>(schema.locations.MaxLevel()));
  w.U64(schema.durations.factors().size());
  for (int64_t f : schema.durations.factors()) w.I64(f);

  w.U64(plan.mining.dim_levels.size());
  for (const std::vector<int>& levels : plan.mining.dim_levels) {
    w.U64(levels.size());
    for (int l : levels) w.U32(static_cast<uint32_t>(l));
  }
  w.U64(plan.mining.cuts.size());
  for (const LocationCut& cut : plan.mining.cuts) {
    w.U64(cut.nodes().size());
    for (NodeId n : cut.nodes()) w.U32(n);
  }
  w.U64(plan.mining.path_levels.size());
  for (const PathLevel& pl : plan.mining.path_levels) {
    w.U32(static_cast<uint32_t>(pl.cut_index));
    w.U32(static_cast<uint32_t>(pl.duration_level));
  }
  w.U64(plan.item_levels.size());
  for (const ItemLevel& il : plan.item_levels) {
    w.U64(il.levels.size());
    for (int l : il.levels) w.U32(static_cast<uint32_t>(l));
  }
  w.U64(plan.path_levels.size());
  for (int p : plan.path_levels) w.U32(static_cast<uint32_t>(p));

  w.U32(opts.build.min_support);
  w.U8(opts.build.compute_exceptions ? 1 : 0);
  w.F64(opts.build.exceptions.epsilon);
  w.U32(opts.build.exceptions.min_support);
  w.U8(opts.build.mark_redundant ? 1 : 0);
  w.F64(opts.build.redundancy_tau);
  w.U8(static_cast<uint8_t>(opts.build.similarity.kind));
  w.F64(opts.build.similarity.kl_smoothing);
  w.U32(opts.window_records);
  return Crc32(w.data());
}

}  // namespace flowcube
