// fcsp_tool — operator CLI for FCSP checkpoint files.
//
//   fcsp_tool info <file>
//       Schema-free summary: section sizes and checksum verification,
//       config fingerprint, live record count. Works on a foreign
//       checkpoint (no pipeline config needed).
//
//   fcsp_tool verify <file> [config flags]
//       Full read validation against a pipeline config: the resume path
//       (LoadCheckpoint) and the zero-copy mapped load. Exit 0 iff both
//       readers accept the file (a cube-only file needs only the mapped
//       load).
//
// Config flags (verify must match the writer's pipeline config — every
// checkpoint read validates a fingerprint over it; the defaults are the
// synthetic fixture the tests and seed corpora use):
//   --dims=N         schema dimensions        (default 2)
//   --seed=N         generator seed           (default 909)
//   --min-support=N  iceberg threshold        (default 2)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/status.h"
#include "gen/path_generator.h"
#include "store/format.h"
#include "store/mapped_cube.h"
#include "stream/checkpoint.h"
#include "stream/incremental_maintainer.h"

namespace flowcube {
namespace {

struct ToolConfig {
  int dims = 2;
  uint64_t seed = 909;
  uint32_t min_support = 2;
};

// The same fixture config as fuzz/fixture.h / tests — the schema a
// checkpoint validates against is derived from the generator config, so
// the flags must mirror what produced the file.
struct Pipeline {
  SchemaPtr schema;
  FlowCubePlan plan;
  IncrementalMaintainerOptions options;
};

Pipeline MakePipeline(const ToolConfig& tool) {
  GeneratorConfig cfg;
  cfg.num_dimensions = tool.dims;
  cfg.dim_distinct_per_level = {2, 2, 2};
  cfg.num_location_groups = 3;
  cfg.locations_per_group = 3;
  cfg.num_sequences = 6;
  cfg.min_sequence_length = 2;
  cfg.max_sequence_length = 5;
  cfg.seed = tool.seed;
  PathGenerator gen(cfg);
  PathDatabase db = gen.Generate(1);
  Pipeline p;
  p.schema = db.schema_ptr();
  Result<FlowCubePlan> plan = FlowCubePlan::Default(db.schema());
  if (!plan.ok()) {
    std::fprintf(stderr, "fcsp_tool: cannot build plan: %s\n",
                 plan.status().ToString().c_str());
    std::exit(2);
  }
  p.plan = plan.value();
  p.options.build.min_support = tool.min_support;
  return p;
}

bool ParseFlag(const char* arg, const char* name, uint64_t* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(arg + len + 1, &end, 10);
  if (end == nullptr || *end != '\0') {
    std::fprintf(stderr, "fcsp_tool: bad value in %s\n", arg);
    std::exit(2);
  }
  *out = v;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: fcsp_tool info <file>\n"
               "       fcsp_tool verify <file> [--dims=N] [--seed=N] "
               "[--min-support=N]\n");
  return 2;
}

int RunInfo(const std::string& file) {
  Result<CheckpointFileInfo> info = InspectCheckpointFile(file);
  if (!info.ok()) {
    std::fprintf(stderr, "fcsp_tool: %s: %s\n", file.c_str(),
                 info.status().ToString().c_str());
    return 1;
  }
  std::printf("file:               %s\n", file.c_str());
  std::printf("format:             FCSP v%u\n", kFcspFormatV2);
  std::printf("file_size:          %llu\n",
              static_cast<unsigned long long>(info->file_size));
  std::printf("config_fingerprint: 0x%08x\n", info->config_fingerprint);
  std::printf("live_records:       %llu\n",
              static_cast<unsigned long long>(info->live_records));
  std::printf("meta_size:          %llu\n",
              static_cast<unsigned long long>(info->meta_size));
  std::printf("arena_size:         %llu\n",
              static_cast<unsigned long long>(info->arena_size));
  std::printf("resume_size:        %llu%s\n",
              static_cast<unsigned long long>(info->resume_size),
              info->resume_size == 0 ? " (cube-only)" : "");
  std::printf("checksums:          OK\n");
  return 0;
}

int RunVerify(const std::string& file, const ToolConfig& tool) {
  Result<CheckpointFileInfo> info = InspectCheckpointFile(file);
  if (!info.ok()) {
    std::fprintf(stderr, "fcsp_tool: %s: %s\n", file.c_str(),
                 info.status().ToString().c_str());
    return 1;
  }
  const Pipeline p = MakePipeline(tool);
  int rc = 0;

  Result<RestoredPipeline> restored =
      LoadCheckpoint(file, p.schema, p.plan, p.options);
  if (restored.ok()) {
    std::printf("resume load:        OK (%llu live records)\n",
                static_cast<unsigned long long>(
                    restored->maintainer.live_record_count()));
  } else if (info->resume_size == 0) {
    std::printf("resume load:        n/a (cube-only file)\n");
  } else {
    std::fprintf(stderr, "resume load:        FAILED: %s\n",
                 restored.status().ToString().c_str());
    rc = 1;
  }

  Result<std::shared_ptr<const MappedCube>> mapped =
      MappedCube::Load(file, p.schema, p.plan, p.options);
  if (mapped.ok()) {
    std::printf("mapped load:        OK (%zu bytes mapped)\n",
                mapped.value()->bytes_mapped());
  } else {
    std::fprintf(stderr, "mapped load:        FAILED: %s\n",
                 mapped.status().ToString().c_str());
    rc = 1;
  }
  if (rc == 0) std::printf("verify:             OK\n");
  return rc;
}

int Run(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string cmd = argv[1];

  ToolConfig tool;
  std::string file;
  int npos = 0;
  for (int i = 2; i < argc; ++i) {
    uint64_t v = 0;
    if (ParseFlag(argv[i], "--dims", &v)) {
      tool.dims = static_cast<int>(v);
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      tool.seed = v;
    } else if (ParseFlag(argv[i], "--min-support", &v)) {
      tool.min_support = static_cast<uint32_t>(v);
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "fcsp_tool: unknown flag %s\n", argv[i]);
      return Usage();
    } else if (npos++ == 0) {
      file = argv[i];
    } else {
      return Usage();
    }
  }

  if (cmd == "info" && npos == 1) return RunInfo(file);
  if (cmd == "verify" && npos == 1) return RunVerify(file, tool);
  return Usage();
}

}  // namespace
}  // namespace flowcube

int main(int argc, char** argv) { return flowcube::Run(argc, argv); }
