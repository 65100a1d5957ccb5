// Checkpoint guarantees, mirroring io_roundtrip_test.cc for the binary
// format: (1) round trips are byte-stable — encode(restore(encode(x))) is
// the identity on the serialized form, and the restored cube dumps
// byte-identically; (2) a restored pipeline continues exactly like the
// original under further batches; (3) malformed inputs — truncations at
// every length, flipped bits, wrong magic/version, config mismatches,
// trailing garbage — are rejected with a clean Status, never a crash (the
// suite runs under asan/ubsan in CI). Field-targeted tampers with pinned
// statuses live in store_malformed_test.cc, except the ingestor flag, which
// only the pipeline restore reads.

#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "flowcube/dump.h"
#include "gen/path_generator.h"
#include "io/binary_io.h"
#include "store/format.h"
#include "store/mapped_cube.h"
#include "stream/checkpoint.h"
#include "stream/incremental_maintainer.h"

namespace flowcube {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig cfg;
    cfg.num_dimensions = 2;
    cfg.dim_distinct_per_level = {2, 2, 2};
    cfg.num_location_groups = 3;
    cfg.locations_per_group = 3;
    cfg.num_sequences = 6;
    cfg.min_sequence_length = 2;
    cfg.max_sequence_length = 5;
    cfg.seed = 909;
    PathGenerator gen(cfg);
    db_ = std::make_unique<PathDatabase>(gen.Generate(60));
    Result<FlowCubePlan> plan = FlowCubePlan::Default(db_->schema());
    ASSERT_TRUE(plan.ok());
    plan_ = plan.value();
    options_.build.min_support = 2;
  }

  IncrementalMaintainer MakeMaintainer(size_t num_records) {
    Result<IncrementalMaintainer> created = IncrementalMaintainer::Create(
        db_->schema_ptr(), plan_, options_);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    IncrementalMaintainer m = std::move(created.value());
    EXPECT_TRUE(m.ApplyRecords(std::span<const PathRecord>(db_->records())
                                   .subspan(0, num_records))
                    .ok());
    return m;
  }

  IngestorState MakeIngestorState() const {
    IngestorState state;
    state.registrations[7] = db_->record(0).dims;
    state.registrations[9] = db_->record(1).dims;
    state.open_readings[7] = {RawReading{7, db_->record(0).path.stages[0].location, 100},
                              RawReading{7, db_->record(0).path.stages[0].location, 700}};
    state.watermark = 700;
    state.batches_processed = 3;
    return state;
  }

  Result<RestoredPipeline> Restore(const std::string& bytes) {
    return DecodeCheckpoint(bytes, db_->schema_ptr(), plan_, options_);
  }

  std::unique_ptr<PathDatabase> db_;
  FlowCubePlan plan_;
  IncrementalMaintainerOptions options_;
};

TEST_F(CheckpointTest, RoundTripIsByteStableAndDumpIdentical) {
  IncrementalMaintainer m = MakeMaintainer(40);
  const IngestorState ingestor = MakeIngestorState();
  const std::string first = EncodeCheckpoint(m, &ingestor);

  Result<RestoredPipeline> restored = Restore(first);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(DumpFlowCube(restored->maintainer.cube()), DumpFlowCube(m.cube()));
  EXPECT_EQ(restored->maintainer.live_record_count(), 40u);

  ASSERT_TRUE(restored->ingestor_state.has_value());
  EXPECT_EQ(restored->ingestor_state->registrations, ingestor.registrations);
  EXPECT_EQ(restored->ingestor_state->open_readings, ingestor.open_readings);
  EXPECT_EQ(restored->ingestor_state->watermark, ingestor.watermark);
  EXPECT_EQ(restored->ingestor_state->batches_processed,
            ingestor.batches_processed);

  const std::string second =
      EncodeCheckpoint(restored->maintainer, &*restored->ingestor_state);
  EXPECT_EQ(first, second) << "re-encoding a restored pipeline must "
                              "reproduce the checkpoint bytes";
}

TEST_F(CheckpointTest, MaintainerOnlyCheckpointHasNoIngestorState) {
  IncrementalMaintainer m = MakeMaintainer(25);
  Result<RestoredPipeline> restored = Restore(EncodeCheckpoint(m, nullptr));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_FALSE(restored->ingestor_state.has_value());
}

TEST_F(CheckpointTest, RestoredPipelineContinuesIdentically) {
  IncrementalMaintainer original = MakeMaintainer(30);
  Result<RestoredPipeline> restored =
      Restore(EncodeCheckpoint(original, nullptr));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  const std::span<const PathRecord> rest =
      std::span<const PathRecord>(db_->records()).subspan(30);
  ASSERT_TRUE(original.ApplyRecords(rest).ok());
  ASSERT_TRUE(restored->maintainer.ApplyRecords(rest).ok());
  EXPECT_EQ(DumpFlowCube(restored->maintainer.cube()),
            DumpFlowCube(original.cube()))
      << "restore must resume without replay drift";
}

TEST_F(CheckpointTest, EmptyPipelineRoundTrips) {
  IncrementalMaintainer m = MakeMaintainer(0);
  Result<RestoredPipeline> restored = Restore(EncodeCheckpoint(m, nullptr));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->maintainer.live_record_count(), 0u);
  EXPECT_EQ(DumpFlowCube(restored->maintainer.cube()), DumpFlowCube(m.cube()));
}

TEST_F(CheckpointTest, SaveAndLoadFileRoundTrip) {
  IncrementalMaintainer m = MakeMaintainer(20);
  const std::string path =
      ::testing::TempDir() + "/flowcube_checkpoint_test.fcsp";
  ASSERT_TRUE(SaveCheckpoint(m, nullptr, path).ok());
  Result<RestoredPipeline> restored =
      LoadCheckpoint(path, db_->schema_ptr(), plan_, options_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(DumpFlowCube(restored->maintainer.cube()), DumpFlowCube(m.cube()));
  std::remove(path.c_str());
  EXPECT_EQ(LoadCheckpoint(path, db_->schema_ptr(), plan_, options_)
                .status()
                .code(),
            Status::Code::kNotFound);
}

// --- Malformed checkpoints --------------------------------------------------

TEST_F(CheckpointTest, RejectsWrongMagicAndVersion) {
  IncrementalMaintainer m = MakeMaintainer(10);
  const std::string good = EncodeCheckpoint(m, nullptr);

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(Restore(bad_magic).ok());

  std::string bad_version = good;
  bad_version[4] = static_cast<char>(0x7f);
  EXPECT_FALSE(Restore(bad_version).ok());

  EXPECT_FALSE(Restore("").ok());
  EXPECT_FALSE(Restore("FCSP").ok());
  EXPECT_FALSE(Restore("not a checkpoint at all").ok());
}

TEST_F(CheckpointTest, RejectsEveryTruncation) {
  IncrementalMaintainer m = MakeMaintainer(8);
  const std::string good = EncodeCheckpoint(m, nullptr);
  ASSERT_TRUE(Restore(good).ok());
  for (size_t len = 0; len < good.size(); ++len) {
    const Result<RestoredPipeline> r = Restore(good.substr(0, len));
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes accepted";
  }
}

TEST_F(CheckpointTest, RejectsBitFlips) {
  IncrementalMaintainer m = MakeMaintainer(8);
  const std::string good = EncodeCheckpoint(m, nullptr);
  // Flip one bit of every byte; the CRC (or the header checks) must catch
  // each corruption. None may crash or be silently accepted as a DIFFERENT
  // pipeline: the rare survivable flips could only hit redundant encoding,
  // so any accepted flip must restore to the identical cube.
  const std::string original_dump = DumpFlowCube(m.cube());
  size_t accepted = 0;
  for (size_t i = 0; i < good.size(); ++i) {
    std::string flipped = good;
    flipped[i] = static_cast<char>(flipped[i] ^ (1 << (i % 8)));
    const Result<RestoredPipeline> r = Restore(flipped);
    if (r.ok()) {
      accepted++;
      EXPECT_EQ(DumpFlowCube(r.value().maintainer.cube()), original_dump);
    }
  }
  EXPECT_EQ(accepted, 0u) << "payload is CRC-protected; header flips are "
                             "structurally rejected";
}

TEST_F(CheckpointTest, RejectsTrailingGarbage) {
  IncrementalMaintainer m = MakeMaintainer(8);
  EXPECT_FALSE(Restore(EncodeCheckpoint(m, nullptr) + "tail").ok());
}

TEST_F(CheckpointTest, RejectsIngestorFlagOutOfRangeEvenWithValidCrc) {
  // The has-ingestor flag is the last byte of a maintainer-only
  // checkpoint's resume section; values other than 0/1 must be rejected,
  // not read. The resume and header CRCs are repaired, so only the flag
  // check can catch it.
  IncrementalMaintainer m = MakeMaintainer(10);
  std::string bad = EncodeCheckpoint(m, nullptr);
  bad.back() = static_cast<char>(2);
  FcspV2Header header;
  ASSERT_TRUE(ValidateV2Image(bad, std::nullopt, /*verify_crc=*/false, &header)
                  .ok());
  header.resume_crc = Crc32(
      std::string_view(bad).substr(header.resume_offset, header.resume_size));
  bad.replace(0, kFcspV2HeaderSize, EncodeV2Header(header));

  const Status s = Restore(bad).status();
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "corrupt v2 checkpoint: ingestor flag out of range");
  // The serving-side loader never reads the resume payload.
  EXPECT_TRUE(MappedCube::FromBuffer(std::make_shared<const std::string>(bad),
                                     db_->schema_ptr(), plan_, options_)
                  .ok());
}

TEST_F(CheckpointTest, RejectsConfigMismatch) {
  IncrementalMaintainer m = MakeMaintainer(10);
  const std::string good = EncodeCheckpoint(m, nullptr);

  IncrementalMaintainerOptions different = options_;
  different.build.min_support = options_.build.min_support + 1;
  Result<RestoredPipeline> r =
      DecodeCheckpoint(good, db_->schema_ptr(), plan_, different);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);

  FlowCubePlan fewer_levels = plan_;
  fewer_levels.item_levels.pop_back();
  EXPECT_FALSE(
      DecodeCheckpoint(good, db_->schema_ptr(), fewer_levels, options_).ok());
}

}  // namespace
}  // namespace flowcube
