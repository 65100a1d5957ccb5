#ifndef FLOWCUBE_STORE_MAPPED_CUBE_H_
#define FLOWCUBE_STORE_MAPPED_CUBE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "flowcube/flowcube.h"
#include "store/format.h"
#include "stream/incremental_maintainer.h"

namespace flowcube {

// Load knobs. Defaults are the safe path: verify every section CRC and map
// the file. FromEnv() reads the operational overrides
// (FLOWCUBE_MMAP_VERIFY=0 skips the meta/arena CRC passes — structural
// validation still runs; FLOWCUBE_MMAP=0 reads the file into anonymous
// memory instead of mmap, for filesystems where mapping is undesirable).
struct MappedCubeOptions {
  bool verify_crc = true;
  bool use_mmap = true;

  static MappedCubeOptions FromEnv();
};

// A FlowCube served straight out of an FCSP v2 checkpoint file: the file is
// mapped read-only (or read into one buffer with use_mmap=false) and the
// cube's sealed flowgraph columns and cuboid slot tables are views into
// that mapping — no column data is copied, so load time is dominated by
// validation, not allocation, and untouched cells never cost resident
// memory (the kernel pages them in on first query).
//
// Lifetime: the mapping is pinned by a shared handle that every graph of
// the cube retains, so a FlowCell copied out of the cube — or the aliased
// shared_cube() pointer published to a SnapshotRegistry — stays valid after
// the MappedCube itself is destroyed. The cube is immutable; mutating one
// of its cuboids FC_CHECKs.
//
// Resume data (live records, ingestor state) is NOT restored here — this is
// the serving-side loader. Use DecodeCheckpoint/LoadCheckpoint to resume a
// maintainer pipeline from a v2 file.
class MappedCube : public std::enable_shared_from_this<MappedCube> {
 public:
  // Maps `filename` and validates it: ValidateV2Image (header, config
  // fingerprint against (schema, plan, options), section CRCs when
  // opts.verify_crc), then the full structural walk of
  // BuildCubeFromSections — the structural pass always runs, so a load that
  // skips CRCs still cannot be driven out of bounds by a corrupt file.
  static Result<std::shared_ptr<const MappedCube>> Load(
      const std::string& filename, SchemaPtr schema, const FlowCubePlan& plan,
      const IncrementalMaintainerOptions& options,
      const MappedCubeOptions& mopts = {});

  // Same validation over an in-memory v2 image (shared so the cube can pin
  // it). The buffer must stay unmodified for the life of the cube.
  static Result<std::shared_ptr<const MappedCube>> FromBuffer(
      std::shared_ptr<const std::string> buffer, SchemaPtr schema,
      const FlowCubePlan& plan, const IncrementalMaintainerOptions& options,
      const MappedCubeOptions& mopts = {});

  const FlowCube& cube() const { return cube_; }

  // The cube as a shareable pointer whose ownership keeps this MappedCube
  // (and the mapping) alive — the shape SnapshotRegistry::Publish takes.
  std::shared_ptr<const FlowCube> shared_cube() const {
    return {shared_from_this(), &cube_};
  }

  // Live record count recorded in the header (the resume section's size —
  // what a registry publication reports as the snapshot's record count).
  uint64_t live_records() const { return header_.live_records; }

  uint32_t config_fingerprint() const { return header_.config_fingerprint; }

  // Size of the backing file image (mapped or buffered).
  size_t bytes_mapped() const;

  // Bytes of the mapping currently resident in memory, sampled with
  // mincore(2); equals bytes_mapped() for buffered (non-mmap) loads. Also
  // refreshes the store.resident_bytes gauge.
  size_t ResidentBytes() const;

  ~MappedCube();

 private:
  struct Mapping;

  MappedCube(std::shared_ptr<const Mapping> mapping,
             const FcspV2Header& header, FlowCube cube)
      : mapping_(std::move(mapping)),
        header_(header),
        cube_(std::move(cube)) {}

  static Result<std::shared_ptr<const MappedCube>> Build(
      std::shared_ptr<const Mapping> mapping, SchemaPtr schema,
      const FlowCubePlan& plan, const IncrementalMaintainerOptions& options,
      const MappedCubeOptions& mopts);

  std::shared_ptr<const Mapping> mapping_;
  FcspV2Header header_;
  FlowCube cube_;
};

}  // namespace flowcube

#endif  // FLOWCUBE_STORE_MAPPED_CUBE_H_
