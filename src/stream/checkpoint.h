#ifndef FLOWCUBE_STREAM_CHECKPOINT_H_
#define FLOWCUBE_STREAM_CHECKPOINT_H_

#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "stream/incremental_maintainer.h"
#include "stream/stream_ingestor.h"

namespace flowcube {

// Binary checkpoint of a streaming pipeline: the maintainer's live path
// records and its cube's cells (flowgraphs and exceptions verbatim), plus
// optionally the ingestor's resumable state (registrations, buffered
// readings, watermark). A restored pipeline continues exactly where the
// snapshot left off — DumpFlowCube of the restored cube is byte-identical
// to the snapshotted one, and no mining is replayed on restore.
//
// The file is FCSP v2 (store/format.h): a 96-byte header, a meta stream, a
// 64-aligned column arena holding the cube's sealed forms with pointers
// rewritten as base-relative offsets, and a resume section (live records +
// ingestor state). A restore runs full CRC + structural validation, and the
// restored cube's flowgraph columns VIEW a pinned copy of the image instead
// of copying it; the same file can be served zero-copy by
// store/mapped_cube.h without building a maintainer at all.
//
// The reader is strictly bounds-checked: truncated, bit-flipped, or
// otherwise malformed checkpoints are rejected with a Status (never UB),
// and CRCs catch corruption before any structure is parsed.

// A restored pipeline: the maintainer is fully rebuilt; ingestor_state is
// present when the checkpoint captured one and can seed
// StreamIngestor's resume constructor.
struct RestoredPipeline {
  IncrementalMaintainer maintainer;
  std::optional<IngestorState> ingestor_state;
};

// Serializes the pipeline. `ingestor_state` may be null (maintainer-only
// checkpoint); callers snapshotting a live ingestor must Flush() it first.
std::string EncodeCheckpoint(const IncrementalMaintainer& maintainer,
                             const IngestorState* ingestor_state = nullptr);

// Rebuilds a pipeline from checkpoint bytes. The caller supplies the same
// schema, plan, and options the snapshotted pipeline ran with; a config
// fingerprint stored in the checkpoint rejects mismatches.
Result<RestoredPipeline> DecodeCheckpoint(std::string_view bytes,
                                          SchemaPtr schema, FlowCubePlan plan,
                                          IncrementalMaintainerOptions options);

// File variants.
Status SaveCheckpoint(const IncrementalMaintainer& maintainer,
                      const IngestorState* ingestor_state,
                      const std::string& filename);
Result<RestoredPipeline> LoadCheckpoint(const std::string& filename,
                                        SchemaPtr schema, FlowCubePlan plan,
                                        IncrementalMaintainerOptions options);

}  // namespace flowcube

#endif  // FLOWCUBE_STREAM_CHECKPOINT_H_
