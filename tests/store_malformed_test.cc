// Malformed FCSP v2 inputs, each pinned to its exact rejection status, so
// the error surface of the out-of-core loader stays stable: truncation at
// every length (section boundaries included), header/section CRC tampers,
// non-canonical / misaligned / out-of-bounds section offsets, meta layout
// tampers, resume tampers, and fingerprint mismatches. Both untrusted-bytes
// readers are driven over the same corpus: the strict pipeline restore
// (DecodeCheckpoint) and the serving-side loader (MappedCube::FromBuffer).
// None of these may crash — the suite runs under asan/ubsan and the same
// surface is fuzzed by fuzz/fcsp_v2_harness.cc.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/path_generator.h"
#include "io/binary_io.h"
#include "store/format.h"
#include "store/mapped_cube.h"
#include "stream/checkpoint.h"
#include "stream/incremental_maintainer.h"

namespace flowcube {
namespace {

// Header field offsets (store/format.h).
constexpr size_t kHeaderCrcOff = 8;
constexpr size_t kFingerprintOff = 12;
constexpr size_t kFileSizeOff = 16;
constexpr size_t kMetaOffsetOff = 24;
constexpr size_t kMetaSizeOff = 32;
constexpr size_t kMetaCrcOff = 40;
constexpr size_t kArenaCrcOff = 44;
constexpr size_t kArenaOffsetOff = 48;
constexpr size_t kArenaSizeOff = 56;
constexpr size_t kResumeOffsetOff = 64;
constexpr size_t kResumeSizeOff = 72;
constexpr size_t kResumeCrcOff = 80;
constexpr size_t kReservedOff = 84;

void PutU32(std::string* bytes, size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i)
    (*bytes)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void PutU64(std::string* bytes, size_t offset, uint64_t v) {
  for (int i = 0; i < 8; ++i)
    (*bytes)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

uint64_t GetU64(const std::string& bytes, size_t offset) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[offset + i]))
         << (8 * i);
  return v;
}

// Recomputes the header CRC after header fields were tampered, so the
// corruption reaches the structural validators instead of the checksum.
void FixHeaderCrc(std::string* bytes) {
  PutU32(bytes, kHeaderCrcOff,
         Crc32(std::string_view(*bytes).substr(12, kFcspV2HeaderSize - 12)));
}

// Recomputes all three section CRCs (from the current header offsets) and
// then the header CRC — the "CRC-valid but semantically bad" setup.
void FixAllCrcs(std::string* bytes) {
  const std::string_view v(*bytes);
  const uint64_t meta_off = GetU64(*bytes, kMetaOffsetOff);
  const uint64_t meta_size = GetU64(*bytes, kMetaSizeOff);
  const uint64_t arena_off = GetU64(*bytes, kArenaOffsetOff);
  const uint64_t arena_size = GetU64(*bytes, kArenaSizeOff);
  const uint64_t resume_off = GetU64(*bytes, kResumeOffsetOff);
  const uint64_t resume_size = GetU64(*bytes, kResumeSizeOff);
  PutU32(bytes, kMetaCrcOff, Crc32(v.substr(meta_off, meta_size)));
  PutU32(bytes, kArenaCrcOff, Crc32(v.substr(arena_off, arena_size)));
  if (resume_size != 0) {
    PutU32(bytes, kResumeCrcOff, Crc32(v.substr(resume_off, resume_size)));
  }
  FixHeaderCrc(bytes);
}

class StoreMalformedTest : public ::testing::Test {
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

    Result<IncrementalMaintainer> created = IncrementalMaintainer::Create(
        db_->schema_ptr(), plan_, options_);
    ASSERT_TRUE(created.ok());
    IncrementalMaintainer m = std::move(created.value());
    ASSERT_TRUE(m.ApplyRecords(std::span<const PathRecord>(db_->records())
                                   .subspan(0, 40))
                    .ok());
    good_ = EncodeCheckpoint(m, nullptr);
    ASSERT_GE(good_.size(), kFcspV2HeaderSize);
  }

  Status RestoreStatus(const std::string& bytes) const {
    return DecodeCheckpoint(bytes, db_->schema_ptr(), plan_, options_)
        .status();
  }

  Status MapStatus(const std::string& bytes,
                   const MappedCubeOptions& mopts = {}) const {
    return MappedCube::FromBuffer(std::make_shared<const std::string>(bytes),
                                  db_->schema_ptr(), plan_, options_, mopts)
        .status();
  }

  // Asserts both readers reject `bytes` with exactly `message`.
  void ExpectBothReject(const std::string& bytes, const std::string& message) {
    const Status restore = RestoreStatus(bytes);
    EXPECT_EQ(restore.code(), Status::Code::kInvalidArgument);
    EXPECT_EQ(restore.message(), message);
    const Status map = MapStatus(bytes);
    EXPECT_EQ(map.code(), Status::Code::kInvalidArgument);
    EXPECT_EQ(map.message(), message);
  }

  std::unique_ptr<PathDatabase> db_;
  FlowCubePlan plan_;
  IncrementalMaintainerOptions options_;
  std::string good_;
};

TEST_F(StoreMalformedTest, GoodFileLoadsThroughBothReaders) {
  EXPECT_TRUE(RestoreStatus(good_).ok());
  EXPECT_TRUE(MapStatus(good_).ok());
  MappedCubeOptions no_crc;
  no_crc.verify_crc = false;
  EXPECT_TRUE(MapStatus(good_, no_crc).ok());
}

TEST_F(StoreMalformedTest, RejectsEveryTruncation) {
  // Every proper prefix must be rejected — the header's file-size field
  // pins the exact length, so section-boundary truncations (end of meta,
  // arena start, arena end, mid-resume) all fail closed.
  for (size_t len = 0; len < good_.size(); ++len) {
    const std::string t = good_.substr(0, len);
    EXPECT_FALSE(RestoreStatus(t).ok()) << "restore accepted " << len;
    EXPECT_FALSE(MapStatus(t).ok()) << "map accepted " << len;
  }
  // Exact boundary truncations get the pinned statuses.
  EXPECT_EQ(RestoreStatus(good_.substr(0, kFcspV2HeaderSize - 1)).message(),
            "corrupt v2 checkpoint: truncated header");
  const uint64_t arena_end = GetU64(good_, kArenaOffsetOff) +
                             GetU64(good_, kArenaSizeOff);
  EXPECT_EQ(RestoreStatus(good_.substr(0, arena_end)).message(),
            "corrupt v2 checkpoint: file size disagrees with header");
}

TEST_F(StoreMalformedTest, RejectsBadMagicVersionAndTrailingGarbage) {
  std::string bad = good_;
  bad[0] = 'X';
  ExpectBothReject(bad, "not a flowcube checkpoint (bad magic)");

  bad = good_;
  PutU32(&bad, 4, 3);
  EXPECT_EQ(RestoreStatus(bad).message(), "unsupported checkpoint version");
  EXPECT_EQ(MapStatus(bad).message(), "unsupported checkpoint version");

  // Version 1, the retired record-log format, is refused the same way (the
  // version word sits outside the header CRC).
  bad = good_;
  PutU32(&bad, 4, 1);
  ExpectBothReject(bad, "unsupported checkpoint version");

  ExpectBothReject(good_ + "tail",
                   "corrupt v2 checkpoint: file size disagrees with header");
}

TEST_F(StoreMalformedTest, RejectsHeaderCrcTamper) {
  // Any header-field flip without repairing the CRC.
  std::string bad = good_;
  PutU64(&bad, kMetaSizeOff, GetU64(bad, kMetaSizeOff) + 1);
  ExpectBothReject(bad, "corrupt v2 checkpoint: header checksum mismatch");
}

TEST_F(StoreMalformedTest, RejectsReservedFieldTamper) {
  std::string bad = good_;
  PutU32(&bad, kReservedOff, 1);
  FixHeaderCrc(&bad);
  ExpectBothReject(bad,
                   "corrupt v2 checkpoint: reserved header field is not zero");
}

TEST_F(StoreMalformedTest, RejectsNonCanonicalSectionOffsets) {
  // Meta not at 96.
  std::string bad = good_;
  PutU64(&bad, kMetaOffsetOff, kFcspV2HeaderSize + 8);
  FixHeaderCrc(&bad);
  ExpectBothReject(
      bad, "corrupt v2 checkpoint: meta section is not at the canonical offset");

  // Meta size beyond the file.
  bad = good_;
  PutU64(&bad, kMetaSizeOff, bad.size());
  FixHeaderCrc(&bad);
  ExpectBothReject(bad, "corrupt v2 checkpoint: meta section exceeds the file");

  // Arena off the canonical 64-byte boundary.
  bad = good_;
  PutU64(&bad, kArenaOffsetOff, GetU64(bad, kArenaOffsetOff) + 8);
  FixHeaderCrc(&bad);
  ExpectBothReject(
      bad,
      "corrupt v2 checkpoint: arena is not at the canonical aligned offset");

  // Arena size beyond the file.
  bad = good_;
  PutU64(&bad, kArenaSizeOff, bad.size());
  FixHeaderCrc(&bad);
  ExpectBothReject(bad,
                   "corrupt v2 checkpoint: arena section exceeds the file");

  // Resume not immediately after the arena.
  bad = good_;
  PutU64(&bad, kResumeOffsetOff, GetU64(bad, kResumeOffsetOff) + 1);
  FixHeaderCrc(&bad);
  ExpectBothReject(
      bad,
      "corrupt v2 checkpoint: resume section is not at the canonical offset");

  // Declared sizes that do not add up to the file size.
  bad = good_;
  PutU64(&bad, kResumeSizeOff, GetU64(bad, kResumeSizeOff) + 1);
  FixHeaderCrc(&bad);
  ExpectBothReject(
      bad,
      "corrupt v2 checkpoint: file size disagrees with the section sizes");

  // Empty resume section but a dangling offset.
  bad = good_;
  PutU64(&bad, kResumeSizeOff, 0);
  FixHeaderCrc(&bad);
  ExpectBothReject(bad,
                   "corrupt v2 checkpoint: empty resume section with nonzero "
                   "offset or checksum");
}

TEST_F(StoreMalformedTest, RejectsNonzeroPadding) {
  const uint64_t meta_end = kFcspV2HeaderSize + GetU64(good_, kMetaSizeOff);
  const uint64_t arena_off = GetU64(good_, kArenaOffsetOff);
  ASSERT_LT(meta_end, arena_off) << "fixture needs a nonempty pad gap";
  std::string bad = good_;
  bad[meta_end] = 1;
  FixHeaderCrc(&bad);
  ExpectBothReject(bad,
                   "corrupt v2 checkpoint: nonzero padding between sections");
}

TEST_F(StoreMalformedTest, RejectsSectionCrcTampers) {
  // Flip one content byte per section; only that section's CRC must trip.
  std::string bad = good_;
  bad[kFcspV2HeaderSize] = static_cast<char>(bad[kFcspV2HeaderSize] ^ 0x01);
  ExpectBothReject(bad, "corrupt v2 checkpoint: meta checksum mismatch");

  bad = good_;
  const uint64_t arena_off = GetU64(good_, kArenaOffsetOff);
  bad[arena_off] = static_cast<char>(bad[arena_off] ^ 0x01);
  ExpectBothReject(bad, "corrupt v2 checkpoint: arena checksum mismatch");

  bad = good_;
  const uint64_t resume_off = GetU64(good_, kResumeOffsetOff);
  bad[resume_off + 8] = static_cast<char>(bad[resume_off + 8] ^ 0x01);
  EXPECT_EQ(RestoreStatus(bad).message(),
            "corrupt v2 checkpoint: resume checksum mismatch");
  EXPECT_EQ(MapStatus(bad).message(),
            "corrupt v2 checkpoint: resume checksum mismatch");
}

TEST_F(StoreMalformedTest, RejectsFingerprintTamperEvenWithValidCrc) {
  std::string bad = good_;
  bad[kFingerprintOff] = static_cast<char>(bad[kFingerprintOff] ^ 0x01);
  FixHeaderCrc(&bad);
  ExpectBothReject(
      bad, "checkpoint was written with a different schema, plan, or options");
}

TEST_F(StoreMalformedTest, RejectsMetaLayoutTampersEvenWithValidCrc) {
  // Meta stream layout: u32 num_cuboids, then per cuboid u32 il, u32 pl,
  // six u64 counts, fifteen u64 column offsets (store/cube_codec.cc).
  // Tampering any of them breaks the canonical packing.
  const size_t meta = kFcspV2HeaderSize;

  // Cuboid-grid size.
  std::string bad = good_;
  PutU32(&bad, meta, 1);
  FixAllCrcs(&bad);
  ExpectBothReject(bad, "corrupt v2 checkpoint: cuboid count mismatch");

  // First cuboid's plan indices out of order.
  bad = good_;
  PutU32(&bad, meta + 4, 1);
  FixAllCrcs(&bad);
  ExpectBothReject(bad, "corrupt v2 checkpoint: cuboid out of order");

  // First cuboid's total_dims count: the recomputed canonical packing no
  // longer matches the stored offsets. (The cell count is not used here —
  // bumping it can trip the slot-capacity check instead, depending on the
  // load factor; total_dims only moves column offsets.)
  bad = good_;
  PutU64(&bad, meta + 20, GetU64(bad, meta + 20) + 1);
  FixAllCrcs(&bad);
  const Status s = RestoreStatus(bad);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(),
            "corrupt v2 checkpoint: "
            "column layout disagrees with the canonical packing");

  // A stored column offset (first of the fifteen).
  bad = good_;
  PutU64(&bad, meta + 12 + 48, GetU64(bad, meta + 12 + 48) + 4);
  FixAllCrcs(&bad);
  ExpectBothReject(bad,
                   "corrupt v2 checkpoint: "
                   "column layout disagrees with the canonical packing");

  // Structural validation runs even when the CRC pass is skipped.
  MappedCubeOptions no_crc;
  no_crc.verify_crc = false;
  EXPECT_EQ(MapStatus(bad, no_crc).message(),
            "corrupt v2 checkpoint: "
            "column layout disagrees with the canonical packing");
}

TEST_F(StoreMalformedTest, RejectsResumeTampersEvenWithValidCrc) {
  const uint64_t resume_off = GetU64(good_, kResumeOffsetOff);

  // Resume record count disagrees with the header's live_records.
  std::string bad = good_;
  PutU64(&bad, resume_off, GetU64(bad, resume_off) + 1);
  FixAllCrcs(&bad);
  Status s = RestoreStatus(bad);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(),
            "corrupt v2 checkpoint: "
            "live record count disagrees with the header");

  // Trailing bytes inside the resume section.
  bad = good_;
  bad.push_back('\0');
  PutU64(&bad, kFileSizeOff, bad.size());
  PutU64(&bad, kResumeSizeOff, GetU64(bad, kResumeSizeOff) + 1);
  FixAllCrcs(&bad);
  s = RestoreStatus(bad);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(),
            "corrupt v2 checkpoint: trailing bytes after resume section");
  // The serving-side loader ignores the resume payload beyond its CRC.
  EXPECT_TRUE(MapStatus(bad).ok());
}

TEST_F(StoreMalformedTest, RejectsSupportTamperEvenWithValidCrc) {
  // Meta stream: u32 num_cuboids, then the first cuboid's u32 il, u32 pl,
  // six u64 counts (cells first) and fifteen u64 column offsets; the
  // support column is the third, path_count the ninth. The first cuboid's
  // first cell has its root at path_count[0].
  const size_t meta = kFcspV2HeaderSize;
  ASSERT_GT(GetU64(good_, meta + 12), 0u) << "first cuboid must be nonempty";
  const uint64_t arena_off = GetU64(good_, kArenaOffsetOff);
  const size_t support_off = arena_off + GetU64(good_, meta + 60 + 2 * 8);
  const size_t root_paths_off = arena_off + GetU64(good_, meta + 60 + 8 * 8);

  // An inflated support alone disagrees with the cell's own flowgraph.
  std::string bad = good_;
  PutU32(&bad, support_off, 1000000);
  FixAllCrcs(&bad);
  ExpectBothReject(
      bad, "corrupt v2 checkpoint: flowgraph path count disagrees with support");

  // Inflating the root's path count with it keeps the cell self-consistent;
  // only the restore's cross-check against the live records catches it (the
  // serving loader never reads the records).
  PutU32(&bad, root_paths_off, 1000000);
  FixAllCrcs(&bad);
  const Status s = RestoreStatus(bad);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(),
            "corrupt v2 checkpoint: cell support disagrees with the live "
            "records");
  EXPECT_TRUE(MapStatus(bad).ok());
}

TEST_F(StoreMalformedTest, CubeOnlyFileMapsButDoesNotRestore) {
  // Strip the resume section: a cube-only v2 file is valid for the serving
  // loader but cannot resume a pipeline.
  const uint64_t arena_end = GetU64(good_, kArenaOffsetOff) +
                             GetU64(good_, kArenaSizeOff);
  std::string cube_only = good_.substr(0, arena_end);
  PutU64(&cube_only, kFileSizeOff, cube_only.size());
  PutU64(&cube_only, kResumeOffsetOff, 0);
  PutU64(&cube_only, kResumeSizeOff, 0);
  PutU32(&cube_only, kResumeCrcOff, 0);
  PutU64(&cube_only, 88, 0);  // live_records
  FixHeaderCrc(&cube_only);

  EXPECT_TRUE(MapStatus(cube_only).ok());
  const Status s = RestoreStatus(cube_only);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(),
            "v2 checkpoint has no resume section (cube-only file)");
}

}  // namespace
}  // namespace flowcube
