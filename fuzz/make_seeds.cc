// Regenerates the checked-in seed corpora under fuzz/corpus/. Every seed is
// produced by the library's own writers from seeded generator configs, so
// the corpus is reproducible: same binary, same bytes.
//
//   fuzz_make_seeds <corpus-dir>
//       # writes <dir>/{text_io,fcsp_v2,shard_body,serve}/
//
// The checkpoint and shard-body seeds are built from the fuzz fixture's
// generator config (fuzz/fixture.h), which their harnesses decode against.

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "fuzz/fixture.h"
#include "gen/path_generator.h"
#include "io/binary_io.h"
#include "io/text_io.h"
#include "serve/protocol.h"
#include "serve/query_service.h"
#include "serve/snapshot_registry.h"
#include "stream/checkpoint.h"
#include "stream/incremental_maintainer.h"

namespace flowcube {
namespace {

void WriteFile(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  FC_CHECK_MSG(out.good(), "cannot open " << path.string());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  FC_CHECK(out.good());
}

void MakeTextIoSeeds(const std::filesystem::path& dir) {
  // A spread of schema shapes and record counts; plus the two degenerate
  // grammars a mutator discovers slowly on its own.
  struct Spec {
    int dims;
    int records;
    uint64_t seed;
  };
  const Spec specs[] = {{1, 1, 7}, {2, 10, 909}, {3, 25, 31}, {2, 0, 5}};
  int n = 0;
  for (const Spec& spec : specs) {
    GeneratorConfig cfg = FuzzFixtureConfig();
    cfg.num_dimensions = spec.dims;
    cfg.seed = spec.seed;
    PathGenerator gen(cfg);
    PathDatabase db = gen.Generate(spec.records);
    Status wrote = WritePathDatabaseFile(
        db, (dir / ("seed_" + std::to_string(n++) + ".txt")).string());
    FC_CHECK(wrote.ok());
  }
  WriteFile(dir / "seed_header_only.txt", "flowcube-paths v1\n");
  WriteFile(dir / "seed_empty.txt", "");
}

void MakeFcspV2Seeds(const std::filesystem::path& dir) {
  PathGenerator gen(FuzzFixtureConfig());
  PathDatabase db = gen.Generate(60);
  Result<FlowCubePlan> plan = FlowCubePlan::Default(db.schema());
  FC_CHECK(plan.ok());
  IncrementalMaintainerOptions options;
  options.build.min_support = 2;

  int n = 0;
  std::string forty;
  for (size_t records : {size_t{0}, size_t{8}, size_t{40}}) {
    Result<IncrementalMaintainer> m =
        IncrementalMaintainer::Create(db.schema_ptr(), plan.value(), options);
    FC_CHECK(m.ok());
    FC_CHECK(m->ApplyRecords(std::span<const PathRecord>(db.records())
                                 .subspan(0, records))
                 .ok());
    forty = EncodeCheckpoint(m.value(), nullptr);
    WriteFile(dir / ("seed_" + std::to_string(n++) + ".fcsp"), forty);
  }

  // One seed with the resumable-ingestor tail in the resume section.
  Result<IncrementalMaintainer> m =
      IncrementalMaintainer::Create(db.schema_ptr(), plan.value(), options);
  FC_CHECK(m.ok());
  FC_CHECK(m->ApplyRecords(std::span<const PathRecord>(db.records())
                               .subspan(0, 12))
               .ok());
  IngestorState state;
  state.registrations[7] = db.record(0).dims;
  state.registrations[9] = db.record(1).dims;
  state.open_readings[7] = {
      RawReading{7, db.record(0).path.stages[0].location, 100},
      RawReading{7, db.record(0).path.stages[0].location, 700}};
  state.watermark = 700;
  state.batches_processed = 3;
  WriteFile(dir / ("seed_" + std::to_string(n++) + ".fcsp"),
            EncodeCheckpoint(m.value(), &state));

  // A cube-only variant of the 40-record seed: resume section stripped,
  // resume header fields and live count zeroed, header CRC refreshed. The
  // mapped loader accepts it; the resume reader rejects it — keeping both
  // sides of that boundary in the corpus.
  std::string cube_only = forty;
  uint64_t resume_offset = 0;
  std::memcpy(&resume_offset, cube_only.data() + 64, sizeof resume_offset);
  FC_CHECK(resume_offset != 0 && resume_offset < cube_only.size());
  cube_only.resize(resume_offset);
  const uint64_t file_size = cube_only.size();
  std::memcpy(cube_only.data() + 16, &file_size, sizeof file_size);
  const uint64_t zero64 = 0;
  const uint32_t zero32 = 0;
  std::memcpy(cube_only.data() + 64, &zero64, sizeof zero64);  // resume off
  std::memcpy(cube_only.data() + 72, &zero64, sizeof zero64);  // resume size
  std::memcpy(cube_only.data() + 80, &zero32, sizeof zero32);  // resume crc
  std::memcpy(cube_only.data() + 88, &zero64, sizeof zero64);  // live count
  const uint32_t header_crc =
      Crc32(std::string_view(cube_only).substr(12, 96 - 12));
  std::memcpy(cube_only.data() + 8, &header_crc, sizeof header_crc);
  WriteFile(dir / ("seed_" + std::to_string(n++) + ".fcsp"), cube_only);

  // Degenerate shapes the mutator finds slowly: a truncated header and a
  // full-size file with a foreign magic.
  WriteFile(dir / ("seed_" + std::to_string(n++) + ".fcsp"),
            forty.substr(0, 17));
  std::string bad_magic = forty;
  bad_magic[0] = 'X';
  WriteFile(dir / ("seed_" + std::to_string(n++) + ".fcsp"), bad_magic);
}

void MakeShardBodySeeds(const std::filesystem::path& dir) {
  // Real bodies: a shard's QueryService answering each internal request
  // over a 40-record cube of the fixture (exceptions on, so flowgraphs
  // carry exception blocks).
  PathGenerator gen(FuzzFixtureConfig());
  PathDatabase db = gen.Generate(60);
  Result<FlowCubePlan> plan = FlowCubePlan::Default(db.schema());
  FC_CHECK(plan.ok());
  IncrementalMaintainerOptions options;
  options.build.min_support = 2;
  Result<IncrementalMaintainer> m =
      IncrementalMaintainer::Create(db.schema_ptr(), plan.value(), options);
  FC_CHECK(m.ok());
  FC_CHECK(m->ApplyRecords(std::span<const PathRecord>(db.records())
                               .subspan(0, 40))
               .ok());
  CubeSnapshot snapshot;
  snapshot.epoch = 1;
  snapshot.records = m->live_record_count();
  snapshot.cube = std::make_shared<const FlowCube>(m->cube().Clone());
  const FlowCube& cube = *snapshot.cube;

  const int apex = plan->FindItemLevel(ItemLevel{{0, 0}});
  FC_CHECK(apex >= 0);
  const WireCellCoord apex_coord{static_cast<uint32_t>(apex), {}};
  const WireCellCoord absent{static_cast<uint32_t>(apex), {0xFFFFFFF0u}};

  std::vector<QueryRequest> requests;
  for (uint32_t pl : {0u, 1u}) {
    QueryRequest fetch;
    fetch.type = RequestType::kCellFetchBatch;
    fetch.pl_index = pl;
    fetch.coords = {apex_coord, absent};
    for (uint32_t il = 0; il < 3; ++il) {
      const std::vector<const FlowCell*> cells =
          cube.cuboid(il, pl).SortedCells();
      if (!cells.empty()) fetch.coords.push_back({il, cells.back()->dims});
    }
    requests.push_back(fetch);
  }
  for (uint32_t dim : {0u, 1u}) {
    QueryRequest children;
    children.type = RequestType::kChildrenFetch;
    children.dim = dim;
    children.coords = {apex_coord};
    requests.push_back(children);
  }
  QueryRequest orphan;
  orphan.type = RequestType::kChildrenFetch;
  orphan.coords = {absent};
  requests.push_back(orphan);
  QueryRequest stats;
  stats.type = RequestType::kStatsFetch;
  requests.push_back(stats);

  int n = 0;
  for (const QueryRequest& request : requests) {
    const QueryResponse response = QueryService::ExecuteOn(snapshot, request);
    FC_CHECK_MSG(response.code == Status::Code::kOk, response.message);
    WriteFile(dir / ("seed_" + std::to_string(n++) + ".bin"), response.body);
  }
}

void MakeServeSeeds(const std::filesystem::path& dir) {
  // One framed request per type, exercising every payload field, plus a
  // framed response and an empty-payload frame (valid frame, invalid
  // request — keeps the frame/payload error boundary in the corpus).
  QueryRequest point;
  point.type = RequestType::kPointLookup;
  point.request_id = 1;
  point.values = {"d0l1v0", "d1l1v1"};
  QueryRequest ancestor;
  ancestor.type = RequestType::kCellOrAncestor;
  ancestor.request_id = 2;
  ancestor.pl_index = 1;
  ancestor.values = {"d0l2v0", "*"};
  QueryRequest drill;
  drill.type = RequestType::kDrillDown;
  drill.request_id = 3;
  drill.dim = 1;
  drill.values = {"*", "*"};
  QueryRequest similarity;
  similarity.type = RequestType::kSimilarity;
  similarity.request_id = 4;
  similarity.values = {"d0l1v0", "*"};
  similarity.values_b = {"d0l1v1", "*"};
  QueryRequest stats;
  stats.type = RequestType::kStats;
  stats.request_id = 5;

  int n = 0;
  for (const QueryRequest* req :
       {&point, &ancestor, &drill, &similarity, &stats}) {
    WriteFile(dir / ("seed_" + std::to_string(n++) + ".fcqp"),
              EncodeFrame(EncodeRequest(*req)));
  }

  QueryResponse response;
  response.request_id = 1;
  response.epoch = 3;
  response.code = Status::Code::kNotFound;
  response.message = "cell not materialized";
  WriteFile(dir / ("seed_" + std::to_string(n++) + ".fcqp"),
            EncodeFrame(EncodeResponse(response)));
  WriteFile(dir / ("seed_" + std::to_string(n++) + ".fcqp"), EncodeFrame(""));
}

}  // namespace
}  // namespace flowcube

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  std::filesystem::create_directories(root / "text_io");
  std::filesystem::create_directories(root / "fcsp_v2");
  std::filesystem::create_directories(root / "shard_body");
  std::filesystem::create_directories(root / "serve");
  flowcube::MakeTextIoSeeds(root / "text_io");
  flowcube::MakeFcspV2Seeds(root / "fcsp_v2");
  flowcube::MakeShardBodySeeds(root / "shard_body");
  flowcube::MakeServeSeeds(root / "serve");
  std::fprintf(stderr, "seed corpora written under %s\n", argv[1]);
  return 0;
}
