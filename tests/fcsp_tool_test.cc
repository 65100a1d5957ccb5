// End-to-end test of the fcsp_tool CLI (tools/fcsp_tool.cc), driven as a
// subprocess the way an operator runs it. The binary path comes in via the
// FLOWCUBE_FCSP_TOOL_PATH compile definition (tests/CMakeLists.txt): `info`
// and `verify` accept a good checkpoint and fail on a corrupt one, a
// retired-version one, a missing file, and bad usage.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "gen/path_generator.h"
#include "stream/checkpoint.h"
#include "stream/incremental_maintainer.h"

namespace flowcube {
namespace {

class FcspToolTest : public ::testing::Test {
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
    cfg.seed = 909;  // the tool's --seed default — no flags needed below
    PathGenerator gen(cfg);
    db_ = std::make_unique<PathDatabase>(gen.Generate(40));
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

  std::string TempFile(const std::string& name) const {
    return ::testing::TempDir() + "/fcsp_tool_test_" + name + ".fcsp";
  }

  // Runs the tool with `args`, returns its exit code; output is discarded
  // (operators read it; the test asserts on exit codes and file effects).
  static int RunTool(const std::string& args) {
    const std::string cmd =
        std::string(FLOWCUBE_FCSP_TOOL_PATH) + " " + args + " >/dev/null 2>&1";
    // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded test driver
    const int rc = std::system(cmd.c_str());
    return rc;
  }

  std::unique_ptr<PathDatabase> db_;
  FlowCubePlan plan_;
  IncrementalMaintainerOptions options_;
};

TEST_F(FcspToolTest, InfoAndVerifyAcceptV2) {
  IncrementalMaintainer m = MakeMaintainer(24);
  const std::string v2 = TempFile("cli_v2");
  ASSERT_TRUE(SaveCheckpoint(m, nullptr, v2).ok());

  EXPECT_EQ(RunTool("info " + v2), 0);
  EXPECT_EQ(RunTool("verify " + v2), 0);

  std::remove(v2.c_str());
}

TEST_F(FcspToolTest, RejectsCorruptFilesAndBadUsage) {
  IncrementalMaintainer m = MakeMaintainer(24);
  const std::string v2 = TempFile("cli_corrupt");
  ASSERT_TRUE(SaveCheckpoint(m, nullptr, v2).ok());
  std::string bytes;
  {
    std::ifstream in(v2, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  auto write = [&v2](const std::string& contents) {
    std::ofstream out(v2, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  };

  // The version word is outside the header CRC: set to 1 (the retired
  // record-log format), the file must still be refused.
  std::string retired = bytes;
  retired[4] = 1;
  write(retired);
  EXPECT_NE(RunTool("info " + v2), 0);
  EXPECT_NE(RunTool("verify " + v2), 0);

  bytes[bytes.size() / 2] ^= 0x01;
  write(bytes);
  EXPECT_NE(RunTool("info " + v2), 0);
  EXPECT_NE(RunTool("verify " + v2), 0);
  EXPECT_NE(RunTool("info " + TempFile("does_not_exist")), 0);
  EXPECT_NE(RunTool("frobnicate " + v2), 0);
  EXPECT_NE(RunTool("verify " + v2 + " " + v2), 0);  // extra operand

  std::remove(v2.c_str());
}

}  // namespace
}  // namespace flowcube
