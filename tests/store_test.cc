// Store guarantees (src/store): a FlowCube served out of a mapped FCSP v2
// checkpoint answers the entire public FCQP surface byte-identically to
// the heap-built cube it was written from; v2 files round-trip byte-stably
// through the pipeline reader; a mapped load publishes the mapped image
// itself; and a cold-started shard resumes at its checkpointed state and
// continues ingestion without drift.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "flowcube/dump.h"
#include "gen/path_generator.h"
#include "serve/query_service.h"
#include "serve/snapshot_registry.h"
#include "shard/shard_node.h"
#include "store/format.h"
#include "store/mapped_cube.h"
#include "stream/checkpoint.h"
#include "stream/incremental_maintainer.h"

namespace flowcube {
namespace {

class StoreTest : public ::testing::Test {
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
    // Exceptions and redundancy flags ride through the v2 meta stream;
    // keep them on so the mapped differential covers those columns too.
    options_.build.compute_exceptions = true;
    options_.build.mark_redundant = true;
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
    return ::testing::TempDir() + "/store_test_" + name + ".fcsp";
  }

  Result<std::shared_ptr<const MappedCube>> LoadMapped(
      const std::string& path, const MappedCubeOptions& mopts = {}) const {
    return MappedCube::Load(path, db_->schema_ptr(), plan_, options_, mopts);
  }

  std::unique_ptr<PathDatabase> db_;
  FlowCubePlan plan_;
  IncrementalMaintainerOptions options_;
};

// A cell coordinate expressed as request value names.
struct Candidate {
  std::vector<std::string> values;
  uint32_t pl_index = 0;
};

std::vector<Candidate> HarvestCells(const FlowCube& cube) {
  std::vector<Candidate> out;
  const FlowCubePlan& plan = cube.plan();
  for (size_t il = 0; il < plan.item_levels.size(); ++il) {
    for (size_t pl = 0; pl < plan.path_levels.size(); ++pl) {
      for (const FlowCell* cell : cube.cuboid(il, pl).SortedCells()) {
        Candidate c;
        c.pl_index = static_cast<uint32_t>(pl);
        c.values.assign(cube.schema().num_dimensions(), "*");
        for (ItemId id : cell->dims) {
          const size_t d = cube.catalog().DimOf(id);
          c.values[d] =
              cube.schema().dimensions[d].Name(cube.catalog().NodeOf(id));
        }
        out.push_back(std::move(c));
      }
    }
  }
  return out;
}

// The entire public FCQP request surface against every materialized cell:
// point lookups, ancestor fallbacks from leaf coordinates, drill-downs
// along both dimensions, similarity between consecutive cells, stats, and
// a guaranteed miss (error responses must match too).
std::vector<QueryRequest> FullQuerySurface(const PathDatabase& db,
                                           const FlowCube& cube) {
  const std::vector<Candidate> pool = HarvestCells(cube);
  std::vector<QueryRequest> out;
  uint64_t id = 0;
  for (const Candidate& c : pool) {
    QueryRequest req;
    req.request_id = ++id;
    req.type = RequestType::kPointLookup;
    req.values = c.values;
    req.pl_index = c.pl_index;
    out.push_back(req);
    for (uint32_t dim = 0; dim < cube.schema().num_dimensions(); ++dim) {
      req.request_id = ++id;
      req.type = RequestType::kDrillDown;
      req.dim = dim;
      out.push_back(req);
    }
  }
  for (size_t i = 0; i + 1 < pool.size(); i += 2) {
    QueryRequest req;
    req.request_id = ++id;
    req.type = RequestType::kSimilarity;
    req.values = pool[i].values;
    req.values_b = pool[i + 1].values;
    req.pl_index = pool[i].pl_index;
    out.push_back(req);
  }
  for (size_t r = 0; r < db.size(); ++r) {
    QueryRequest req;
    req.request_id = ++id;
    req.type = RequestType::kCellOrAncestor;
    for (size_t d = 0; d < db.record(r).dims.size(); ++d) {
      req.values.push_back(
          db.schema().dimensions[d].Name(db.record(r).dims[d]));
    }
    out.push_back(req);
  }
  QueryRequest stats;
  stats.request_id = ++id;
  stats.type = RequestType::kStats;
  out.push_back(stats);
  QueryRequest miss;
  miss.request_id = ++id;
  miss.type = RequestType::kPointLookup;
  miss.values = {"no-such-value", "*"};
  out.push_back(miss);
  return out;
}

TEST_F(StoreTest, MappedCubeServesByteIdenticalQueries) {
  IncrementalMaintainer m = MakeMaintainer(40);
  const std::string path = TempFile("differential");
  ASSERT_TRUE(SaveCheckpoint(m, nullptr, path).ok());

  Result<std::shared_ptr<const MappedCube>> mapped = LoadMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  CubeSnapshot heap_snap;
  heap_snap.epoch = 1;
  heap_snap.records = 40;
  heap_snap.cube = std::make_shared<const FlowCube>(m.cube().Clone());
  CubeSnapshot mapped_snap;
  mapped_snap.epoch = 1;
  mapped_snap.records = 40;
  mapped_snap.cube = mapped.value()->shared_cube();

  const std::vector<QueryRequest> surface =
      FullQuerySurface(*db_, *heap_snap.cube);
  ASSERT_GT(surface.size(), 20u);
  for (const QueryRequest& req : surface) {
    const QueryResponse from_heap = QueryService::ExecuteOn(heap_snap, req);
    const QueryResponse from_map = QueryService::ExecuteOn(mapped_snap, req);
    EXPECT_EQ(from_heap, from_map)
        << "request " << req.request_id << " diverged";
  }

  std::remove(path.c_str());
}

TEST_F(StoreTest, MappedCubeDumpAndMetadataMatch) {
  IncrementalMaintainer m = MakeMaintainer(40);
  const std::string path = TempFile("dump");
  ASSERT_TRUE(SaveCheckpoint(m, nullptr, path).ok());

  std::shared_ptr<const FlowCube> cube;
  std::string before;
  {
    Result<std::shared_ptr<const MappedCube>> mapped = LoadMapped(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_EQ(DumpFlowCube(mapped.value()->cube()), DumpFlowCube(m.cube()));
    EXPECT_EQ(mapped.value()->live_records(), 40u);
    EXPECT_GT(mapped.value()->bytes_mapped(), kFcspV2HeaderSize);
    // The dump touched every page; residency is sampled, but stays bounded.
    EXPECT_LE(mapped.value()->ResidentBytes(),
              mapped.value()->bytes_mapped());
    cube = mapped.value()->shared_cube();
    before = DumpFlowCube(*cube);
  }
  // The cube pins the mapping: cells stay valid after the handle drops.
  EXPECT_EQ(DumpFlowCube(*cube), before);

  std::remove(path.c_str());
}

TEST_F(StoreTest, BufferedLoadMatchesMmap) {
  IncrementalMaintainer m = MakeMaintainer(30);
  const std::string path = TempFile("buffered");
  ASSERT_TRUE(SaveCheckpoint(m, nullptr, path).ok());

  MappedCubeOptions no_mmap;
  no_mmap.use_mmap = false;
  Result<std::shared_ptr<const MappedCube>> buffered =
      LoadMapped(path, no_mmap);
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  Result<std::shared_ptr<const MappedCube>> mmapped = LoadMapped(path);
  ASSERT_TRUE(mmapped.ok()) << mmapped.status().ToString();
  EXPECT_EQ(DumpFlowCube(buffered.value()->cube()),
            DumpFlowCube(mmapped.value()->cube()));
  // Buffered loads report full residency by definition.
  EXPECT_EQ(buffered.value()->ResidentBytes(),
            buffered.value()->bytes_mapped());

  std::remove(path.c_str());
}

TEST_F(StoreTest, MappedCubeIsImmutable) {
  IncrementalMaintainer m = MakeMaintainer(20);
  const std::string path = TempFile("immutable");
  ASSERT_TRUE(SaveCheckpoint(m, nullptr, path).ok());
  Result<std::shared_ptr<const MappedCube>> mapped = LoadMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  // Store-loaded cuboids borrow their slot tables from the mapping — a
  // borrow the Clone preserves — so erasing a present cell must die on the
  // borrowed-column check (the death test keeps the contract honest).
  FlowCube copy = mapped.value()->cube().Clone();
  EXPECT_DEATH(
      {
        copy.ForEachCuboidMutable([](Cuboid* cuboid) {
          if (cuboid->size() == 0) return;
          const Itemset dims = cuboid->SortedCells().front()->dims;
          cuboid->Erase(dims);
        });
      },
      "borrowed");
  std::remove(path.c_str());
}

TEST_F(StoreTest, V2CheckpointRoundTripIsByteStable) {
  IncrementalMaintainer m = MakeMaintainer(40);
  const std::string first = EncodeCheckpoint(m, nullptr);
  Result<RestoredPipeline> restored =
      DecodeCheckpoint(first, db_->schema_ptr(), plan_, options_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(DumpFlowCube(restored->maintainer.cube()), DumpFlowCube(m.cube()));
  const std::string second = EncodeCheckpoint(restored->maintainer, nullptr);
  EXPECT_EQ(first, second) << "v2 is canonical: decode∘encode is the "
                              "identity on the serialized form";
}

TEST_F(StoreTest, V2RestoreContinuesIdentically) {
  IncrementalMaintainer original = MakeMaintainer(30);
  Result<RestoredPipeline> restored = DecodeCheckpoint(
      EncodeCheckpoint(original, nullptr), db_->schema_ptr(), plan_, options_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  const std::span<const PathRecord> rest =
      std::span<const PathRecord>(db_->records()).subspan(30);
  ASSERT_TRUE(original.ApplyRecords(rest).ok());
  ASSERT_TRUE(restored->maintainer.ApplyRecords(rest).ok());
  EXPECT_EQ(DumpFlowCube(restored->maintainer.cube()),
            DumpFlowCube(original.cube()))
      << "a v2 restore must keep ingesting without replay drift";
}

TEST_F(StoreTest, MappedLoadPublishesZeroCopySnapshot) {
  // A warm start is MappedCube::Load plus SnapshotRegistry::Publish: the
  // published snapshot is the mapped image itself, not a copy.
  IncrementalMaintainer m = MakeMaintainer(40);
  const std::string path = TempFile("warm");
  ASSERT_TRUE(SaveCheckpoint(m, nullptr, path).ok());

  Result<std::shared_ptr<const MappedCube>> mapped = LoadMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  SnapshotRegistry registry;
  EXPECT_EQ(registry.Publish(mapped.value()->shared_cube(),
                             mapped.value()->live_records()),
            1u);

  SnapshotPtr snap = registry.Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->records, 40u);
  EXPECT_EQ(snap->cube.get(), &mapped.value()->cube());
  EXPECT_EQ(DumpFlowCube(*snap->cube), DumpFlowCube(m.cube()));
  std::remove(path.c_str());
}

TEST_F(StoreTest, ShardColdStartResumesCheckpointedState) {
  ShardNodeOptions shard_options;
  shard_options.global_build = options_.build;

  Result<std::unique_ptr<ShardNode>> original =
      ShardNode::Create(db_->schema_ptr(), plan_, shard_options);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  ASSERT_TRUE((*original)
                  ->Apply(std::span<const PathRecord>(db_->records())
                              .subspan(0, 40))
                  .ok());

  const std::string path = TempFile("shard");
  ASSERT_TRUE((*original)->SaveCheckpoint(path).ok());

  Result<std::unique_ptr<ShardNode>> cold =
      ShardNode::ColdStart(db_->schema_ptr(), plan_, shard_options, path);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ((*cold)->live_record_count(), 40u);
  EXPECT_EQ((*cold)->current_epoch(), 1u);

  SnapshotPtr cold_snap = (*cold)->registry().Acquire();
  SnapshotPtr orig_snap = (*original)->registry().Acquire();
  ASSERT_NE(cold_snap, nullptr);
  EXPECT_EQ(cold_snap->records, 40u);
  EXPECT_EQ(DumpFlowCube(*cold_snap->cube), DumpFlowCube(*orig_snap->cube))
      << "a cold-started shard must serve its pre-restart state";

  // And ingestion continues without drift.
  const std::span<const PathRecord> rest =
      std::span<const PathRecord>(db_->records()).subspan(40);
  ASSERT_TRUE((*original)->Apply(rest).ok());
  ASSERT_TRUE((*cold)->Apply(rest).ok());
  EXPECT_EQ(DumpFlowCube(*(*cold)->registry().Acquire()->cube),
            DumpFlowCube(*(*original)->registry().Acquire()->cube));

  // A monolithic (non-shard) checkpoint is rejected: the fingerprint covers
  // the derived shard-local options.
  IncrementalMaintainer mono = MakeMaintainer(10);
  ASSERT_TRUE(SaveCheckpoint(mono, nullptr, path).ok());
  EXPECT_FALSE(
      ShardNode::ColdStart(db_->schema_ptr(), plan_, shard_options, path)
          .ok());
  std::remove(path.c_str());
}

TEST_F(StoreTest, InspectReportsV2Sections) {
  IncrementalMaintainer m = MakeMaintainer(40);
  const std::string path = TempFile("inspect");
  ASSERT_TRUE(SaveCheckpoint(m, nullptr, path).ok());

  Result<CheckpointFileInfo> info = InspectCheckpointFile(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->live_records, 40u);
  EXPECT_GT(info->meta_size, 0u);
  EXPECT_GT(info->arena_size, 0u);
  EXPECT_GT(info->resume_size, 0u);
  EXPECT_EQ(info->config_fingerprint,
            CheckpointConfigFingerprint(db_->schema(), plan_, options_));
  std::remove(path.c_str());
}

TEST_F(StoreTest, StoreMetricsTrackLoads) {
  IncrementalMaintainer m = MakeMaintainer(20);
  const std::string path = TempFile("metrics");
  ASSERT_TRUE(SaveCheckpoint(m, nullptr, path).ok());

  MetricRegistry& reg = MetricRegistry::Global();
  const uint64_t loads_before = reg.counter("store.mapped_loads").value();
  const uint64_t failures_before = reg.counter("store.load_failures").value();

  {
    Result<std::shared_ptr<const MappedCube>> mapped = LoadMapped(path);
    ASSERT_TRUE(mapped.ok());
    EXPECT_GE(reg.gauge("store.bytes_mapped").value(),
              static_cast<int64_t>(mapped.value()->bytes_mapped()));
  }
  // The mapping is gone; its bytes were subtracted from the gauge.
  EXPECT_EQ(reg.counter("store.mapped_loads").value(), loads_before + 1);

  EXPECT_FALSE(LoadMapped(path + ".missing").ok());
  EXPECT_EQ(reg.counter("store.load_failures").value(), failures_before + 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace flowcube
