// Replays every checked-in fuzz corpus input byte-for-byte through the
// fuzz harnesses (fuzz/harness.h) in the plain tier-1 build. This keeps the
// corpora from rotting — a decoder change that crashes or breaks a
// round-trip invariant on any historical input (including future minimized
// crashers promoted into fuzz/corpus/) fails here, without needing clang,
// libFuzzer, or the fuzz preset.

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/harness.h"

namespace flowcube {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> CorpusFiles(const char* surface) {
  const fs::path dir = fs::path(FLOWCUBE_FUZZ_CORPUS_DIR) / surface;
  std::vector<fs::path> files;
  if (fs::is_directory(dir)) {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void Replay(const char* surface,
            int (*harness)(const uint8_t*, size_t)) {
  const std::vector<fs::path> files = CorpusFiles(surface);
  ASSERT_FALSE(files.empty())
      << "no corpus under " << FLOWCUBE_FUZZ_CORPUS_DIR << "/" << surface
      << " — regenerate with fuzz_make_seeds (fuzz preset)";
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.filename().string());
    const std::string bytes = ReadBytes(file);
    // The harness FC_CHECKs the decode invariants internally; reaching the
    // return at all means no crash, no sanitizer report, invariants held.
    EXPECT_EQ(harness(reinterpret_cast<const uint8_t*>(bytes.data()),
                      bytes.size()),
              0);
  }
}

TEST(FuzzRegressionTest, TextIoCorpusReplaysCleanly) {
  Replay("text_io", &FuzzTextIo);
}

TEST(FuzzRegressionTest, FcspV2CorpusReplaysCleanly) {
  Replay("fcsp_v2", &FuzzFcspV2);
}

TEST(FuzzRegressionTest, ShardBodyCorpusReplaysCleanly) {
  Replay("shard_body", &FuzzShardBody);
}

TEST(FuzzRegressionTest, ServeFrameCorpusReplaysCleanly) {
  Replay("serve", &FuzzServeFrame);
}

}  // namespace
}  // namespace flowcube
