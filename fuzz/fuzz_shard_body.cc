// libFuzzer entry point for the shard wire decoders. The harness logic
// lives in shard_body_harness.cc so the corpus regression test can link
// every harness into one gtest binary without colliding entry points.

#include <cstddef>
#include <cstdint>

#include "fuzz/harness.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return flowcube::FuzzShardBody(data, size);
}
