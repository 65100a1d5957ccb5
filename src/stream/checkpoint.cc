#include "stream/checkpoint.h"

#include <fstream>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "io/binary_io.h"
#include "path/path_database.h"
#include "store/arena_writer.h"
#include "store/cube_codec.h"
#include "store/format.h"

namespace flowcube {

namespace {

Status Corrupt(const char* what) {
  return Status::InvalidArgument(std::string("corrupt v2 checkpoint: ") +
                                 what);
}

// Reads a u64 element count and rejects counts that could not possibly fit
// in the remaining bytes (every encoded element consumes at least one
// byte), so a corrupted count can never drive a huge allocation or loop.
Status ReadCount(ByteReader* r, uint64_t* count) {
  FC_RETURN_IF_ERROR(r->U64(count));
  if (*count > r->remaining()) {
    return Corrupt("element count exceeds payload size");
  }
  return Status::OK();
}

void EncodeRecord(const PathRecord& rec, ByteWriter* w) {
  w->U64(rec.dims.size());
  for (NodeId d : rec.dims) w->U32(d);
  w->U64(rec.path.stages.size());
  for (const Stage& s : rec.path.stages) {
    w->U32(s.location);
    w->I64(s.duration);
  }
}

Status DecodeRecord(ByteReader* r, PathRecord* rec) {
  uint64_t num_dims = 0;
  FC_RETURN_IF_ERROR(ReadCount(r, &num_dims));
  rec->dims.clear();
  for (uint64_t i = 0; i < num_dims; ++i) {
    uint32_t d = 0;
    FC_RETURN_IF_ERROR(r->U32(&d));
    rec->dims.push_back(d);
  }
  uint64_t num_stages = 0;
  FC_RETURN_IF_ERROR(ReadCount(r, &num_stages));
  rec->path.stages.clear();
  for (uint64_t i = 0; i < num_stages; ++i) {
    Stage s;
    FC_RETURN_IF_ERROR(r->U32(&s.location));
    FC_RETURN_IF_ERROR(r->I64(&s.duration));
    rec->path.stages.push_back(s);
  }
  return Status::OK();
}

// Optional-ingestor tail closing the resume section: u8 presence flag, then
// registrations, open readings, watermark, batch count.
void EncodeIngestorTail(const IngestorState* ing, ByteWriter* w) {
  w->U8(ing != nullptr ? 1 : 0);
  if (ing != nullptr) {
    w->U64(ing->registrations.size());
    for (const auto& [epc, dims] : ing->registrations) {
      w->U64(epc);
      w->U64(dims.size());
      for (NodeId d : dims) w->U32(d);
    }
    w->U64(ing->open_readings.size());
    for (const auto& [epc, readings] : ing->open_readings) {
      w->U64(epc);
      w->U64(readings.size());
      for (const RawReading& r : readings) {
        w->U32(r.location);
        w->I64(r.timestamp);
      }
    }
    w->I64(ing->watermark);
    w->U64(ing->batches_processed);
  }
}

Status DecodeIngestorTail(ByteReader* r, const PathSchema& s,
                          std::optional<IngestorState>* out) {
  uint8_t has_ingestor = 0;
  FC_RETURN_IF_ERROR(r->U8(&has_ingestor));
  if (has_ingestor > 1) return Corrupt("ingestor flag out of range");
  if (has_ingestor == 0) return Status::OK();

  IngestorState state;
  uint64_t num_regs = 0;
  FC_RETURN_IF_ERROR(ReadCount(r, &num_regs));
  for (uint64_t i = 0; i < num_regs; ++i) {
    uint64_t epc = 0;
    FC_RETURN_IF_ERROR(r->U64(&epc));
    uint64_t num_dims = 0;
    FC_RETURN_IF_ERROR(ReadCount(r, &num_dims));
    if (num_dims != s.num_dimensions()) {
      return Corrupt("registration dimension count mismatch");
    }
    std::vector<NodeId> dims;
    for (uint64_t d = 0; d < num_dims; ++d) {
      uint32_t v = 0;
      FC_RETURN_IF_ERROR(r->U32(&v));
      if (v >= s.dimensions[d].NodeCount()) {
        return Corrupt("registration dimension value out of range");
      }
      dims.push_back(v);
    }
    state.registrations[epc] = std::move(dims);
  }
  uint64_t num_open = 0;
  FC_RETURN_IF_ERROR(ReadCount(r, &num_open));
  for (uint64_t i = 0; i < num_open; ++i) {
    uint64_t epc = 0;
    FC_RETURN_IF_ERROR(r->U64(&epc));
    uint64_t num_readings = 0;
    FC_RETURN_IF_ERROR(ReadCount(r, &num_readings));
    std::vector<RawReading>& readings = state.open_readings[epc];
    for (uint64_t j = 0; j < num_readings; ++j) {
      RawReading reading;
      reading.epc = epc;
      FC_RETURN_IF_ERROR(r->U32(&reading.location));
      FC_RETURN_IF_ERROR(r->I64(&reading.timestamp));
      if (reading.location >= s.locations.NodeCount()) {
        return Corrupt("buffered reading location out of range");
      }
      readings.push_back(reading);
    }
  }
  FC_RETURN_IF_ERROR(r->I64(&state.watermark));
  FC_RETURN_IF_ERROR(r->U64(&state.batches_processed));
  *out = std::move(state);
  return Status::OK();
}

}  // namespace

// Friend of IncrementalMaintainer: reads its private indexes to encode, and
// rebuilds them on decode by re-appending the live records (index rebuild is
// linear — no mining replay; the cube's cells install verbatim).
class CheckpointCodec {
 public:
  // The resume section: live records then the ingestor tail. The cube
  // itself lives in the meta/arena sections (store/cube_codec.h).
  static void EncodeResume(const IncrementalMaintainer& m,
                           const IngestorState* ing, ByteWriter* w) {
    const std::vector<PathRecord> live = m.LiveRecords();
    w->U64(live.size());
    for (const PathRecord& rec : live) EncodeRecord(rec, w);
    EncodeIngestorTail(ing, w);
  }

  static std::string Encode(const IncrementalMaintainer& m,
                            const IngestorState* ing) {
    ByteWriter meta;
    ArenaWriter arena;
    EncodeCubeSections(m.cube_, &meta, &arena);
    ByteWriter resume;
    EncodeResume(m, ing, &resume);

    FcspV2Header h;
    h.config_fingerprint =
        CheckpointConfigFingerprint(*m.schema_, m.plan_, m.options_);
    h.meta_offset = kFcspV2HeaderSize;
    h.meta_size = meta.size();
    h.meta_crc = Crc32(meta.data());
    h.arena_offset =
        FcspAlignUp(kFcspV2HeaderSize + meta.size(), kFcspArenaAlignment);
    h.arena_size = arena.size();
    h.arena_crc = Crc32(arena.data());
    h.resume_offset = h.arena_offset + h.arena_size;
    h.resume_size = resume.size();
    h.resume_crc = Crc32(resume.data());
    h.live_records = m.live_record_count();
    h.file_size = h.resume_offset + h.resume_size;

    std::string out;
    out.reserve(h.file_size);
    out += EncodeV2Header(h);
    out += meta.data();
    out.resize(h.arena_offset, '\0');  // canonical zero padding
    out += arena.data();
    out += resume.data();
    FC_CHECK(out.size() == h.file_size);
    return out;
  }

  // Strict restore: ValidateV2Image with every CRC, the cube rebuilt as
  // views into a pinned copy of the file image, live records replayed
  // through the same index path as Apply, and every cell cross-checked
  // against the rebuilt membership index.
  static Result<RestoredPipeline> Decode(std::string_view bytes,
                                         SchemaPtr schema, FlowCubePlan plan,
                                         IncrementalMaintainerOptions options) {
    Result<IncrementalMaintainer> created = IncrementalMaintainer::Create(
        std::move(schema), std::move(plan), options);
    if (!created.ok()) return created.status();
    IncrementalMaintainer m = std::move(created.value());

    FcspV2Header h;
    FC_RETURN_IF_ERROR(ValidateV2Image(
        bytes, CheckpointConfigFingerprint(*m.schema_, m.plan_, m.options_),
        /*verify_crc=*/true, &h));
    if (h.resume_size == 0) {
      return Status::InvalidArgument(
          "v2 checkpoint has no resume section (cube-only file)");
    }

    // Pin a copy of the image; the restored graphs' columns view it, so no
    // per-node structures are re-allocated for unchanged cells.
    auto buffer = std::make_shared<const std::string>(bytes);
    const std::string_view view(*buffer);
    Result<FlowCube> built = BuildCubeFromSections(
        view.substr(h.meta_offset, h.meta_size),
        view.substr(h.arena_offset, h.arena_size), buffer, m.schema_,
        m.plan_, m.options_);
    if (!built.ok()) return built.status();

    // Resume section: live records replayed through AppendToIndexes.
    ByteReader rr(view.substr(h.resume_offset, h.resume_size));
    uint64_t num_records = 0;
    FC_RETURN_IF_ERROR(rr.U64(&num_records));
    if (num_records != h.live_records) {
      return Corrupt("live record count disagrees with the header");
    }
    std::vector<IncrementalMaintainer::KeySet> scratch_dirty(
        m.plan_.item_levels.size());
    for (uint64_t i = 0; i < num_records; ++i) {
      PathRecord rec;
      if (!DecodeRecord(&rr, &rec).ok()) {
        return Corrupt("malformed live record");
      }
      if (const Status s = ValidateRecord(*m.schema_, rec); !s.ok()) {
        return Corrupt("live record fails schema validation");
      }
      m.AppendToIndexes(rec, &scratch_dirty);
    }

    // Install the cells into the maintainer's cube, cross-checking each
    // against the rebuilt membership index. The cells (and their slot
    // tables) are copied into owned cuboids so the maintainer can keep
    // mutating them, but each cell's flowgraph still SHARES the pinned
    // image — continuation replaces only the cells a future batch dirties.
    for (size_t i = 0; i < m.plan_.item_levels.size(); ++i) {
      for (size_t p = 0; p < m.plan_.path_levels.size(); ++p) {
        const Cuboid& src = built.value().cuboid(i, p);
        Cuboid& dst = m.cube_.mutable_cuboid(i, p);
        dst.Reserve(src.size());
        Status install = Status::OK();
        src.ForEach([&](const FlowCell& cell) {
          if (!install.ok()) return;
          const auto member = m.cells_[i].find(cell.dims);
          if (member == m.cells_[i].end() ||
              member->second.tids.size() != cell.support) {
            install = Corrupt("cell support disagrees with the live records");
            return;
          }
          member->second.materialized = true;
          dst.Insert(cell);
        });
        FC_RETURN_IF_ERROR(install);
        if (p == 0) {
          // Converse check: every qualifying membership key must have been
          // installed, or the restored cube would silently miss cells.
          for (const auto& [key, state] : m.cells_[i]) {
            const bool qualifies =
                key.empty() ? !state.tids.empty()
                            : state.tids.size() >=
                                  m.options_.build.min_support;
            if (qualifies && !state.materialized) {
              return Corrupt("cube is missing a qualifying cell");
            }
          }
        }
      }
    }

    RestoredPipeline restored{std::move(m), std::nullopt};
    FC_RETURN_IF_ERROR(DecodeIngestorTail(&rr, *restored.maintainer.schema_,
                                          &restored.ingestor_state));
    if (!rr.AtEnd()) {
      return Corrupt("trailing bytes after resume section");
    }
    return restored;
  }
};

std::string EncodeCheckpoint(const IncrementalMaintainer& maintainer,
                             const IngestorState* ingestor_state) {
  TraceSpan span("stream.checkpoint.save");
  std::string bytes = CheckpointCodec::Encode(maintainer, ingestor_state);
  MetricRegistry& reg = MetricRegistry::Global();
  static Counter& m_saves = reg.counter("stream.checkpoint.saves");
  static Counter& m_bytes = reg.counter("stream.checkpoint.bytes_written");
  m_saves.Increment();
  m_bytes.Add(bytes.size());
  return bytes;
}

Result<RestoredPipeline> DecodeCheckpoint(
    std::string_view bytes, SchemaPtr schema, FlowCubePlan plan,
    IncrementalMaintainerOptions options) {
  TraceSpan span("stream.checkpoint.restore");
  Result<RestoredPipeline> restored = CheckpointCodec::Decode(
      bytes, std::move(schema), std::move(plan), options);
  if (restored.ok()) {
    MetricRegistry::Global().counter("stream.checkpoint.restores").Increment();
  }
  return restored;
}

Status SaveCheckpoint(const IncrementalMaintainer& maintainer,
                      const IngestorState* ingestor_state,
                      const std::string& filename) {
  const std::string bytes = EncodeCheckpoint(maintainer, ingestor_state);
  std::ofstream out(filename, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::Internal("cannot open " + filename + " for writing");
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  return out.good() ? Status::OK()
                    : Status::Internal("checkpoint write failed");
}

Result<RestoredPipeline> LoadCheckpoint(const std::string& filename,
                                        SchemaPtr schema, FlowCubePlan plan,
                                        IncrementalMaintainerOptions options) {
  Result<std::string> bytes = ReadCheckpointFile(filename);
  if (!bytes.ok()) return bytes.status();
  return DecodeCheckpoint(bytes.value(), std::move(schema), std::move(plan),
                          options);
}

}  // namespace flowcube
