#include "fuzz/harness.h"

#include <memory>
#include <string>
#include <string_view>

#include "common/logging.h"
#include "common/status.h"
#include "flowcube/dump.h"
#include "fuzz/fixture.h"
#include "store/mapped_cube.h"
#include "stream/checkpoint.h"

namespace flowcube {

int FuzzFcspV2(const uint8_t* data, size_t size) {
  // Both v2 readers validate against the pipeline config the caller loads
  // with, so every input is run against the one fuzz fixture.
  const FuzzFixture& fx = GetFuzzFixture();
  const auto buffer = std::make_shared<const std::string>(
      reinterpret_cast<const char*>(data), size);

  // The mapped loader on both verification settings. Skipping the CRC
  // passes drops a cheap early-reject, so the relaxed load drives mutated
  // bytes deeper into the structural walk — it must still never be driven
  // out of bounds, and it must accept a superset of what strict accepts.
  MappedCubeOptions relaxed_opts;
  relaxed_opts.verify_crc = false;
  Result<std::shared_ptr<const MappedCube>> strict =
      MappedCube::FromBuffer(buffer, fx.schema, fx.plan, fx.options);
  Result<std::shared_ptr<const MappedCube>> relaxed = MappedCube::FromBuffer(
      buffer, fx.schema, fx.plan, fx.options, relaxed_opts);
  if (strict.ok()) {
    FC_CHECK_MSG(relaxed.ok(),
                 "CRC-skipping load rejected a file the strict load accepts: "
                     << relaxed.status().message());
    FC_CHECK(DumpFlowCube(relaxed.value()->cube()) ==
             DumpFlowCube(strict.value()->cube()));
  }

  // The resume reader. Inputs it accepts must re-encode byte-identically
  // (the layout is canonical, so decode∘encode is the identity on accepted
  // files).
  const std::string_view bytes(*buffer);
  Result<RestoredPipeline> restored =
      DecodeCheckpoint(bytes, fx.schema, fx.plan, fx.options);
  if (restored.ok()) {
    const IngestorState* state = restored->ingestor_state.has_value()
                                     ? &*restored->ingestor_state
                                     : nullptr;
    const std::string reencoded =
        EncodeCheckpoint(restored->maintainer, state);
    FC_CHECK_MSG(reencoded == bytes,
                 "accepted checkpoint did not re-encode byte-identically "
                 "(input " << size << " bytes, re-encoded "
                           << reencoded.size() << " bytes)");
    // Every pipeline-restorable file is also mappable, and the two readers
    // must agree on the cube and the live record count.
    FC_CHECK_MSG(strict.ok(),
                 "mapped load rejected a file DecodeCheckpoint accepts: "
                     << strict.status().message());
    FC_CHECK(DumpFlowCube(strict.value()->cube()) ==
             DumpFlowCube(restored->maintainer.cube()));
    FC_CHECK(strict.value()->live_records() ==
             restored->maintainer.live_record_count());
  } else if (strict.ok()) {
    // Mappable but not restorable (cube-only files, or resume-section
    // corruption the serving path never reads): the load must at least be
    // deterministic.
    Result<std::shared_ptr<const MappedCube>> again =
        MappedCube::FromBuffer(buffer, fx.schema, fx.plan, fx.options);
    FC_CHECK(again.ok());
    FC_CHECK(DumpFlowCube(again.value()->cube()) ==
             DumpFlowCube(strict.value()->cube()));
  }
  return 0;
}

}  // namespace flowcube
