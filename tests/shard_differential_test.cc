// Shard differential: the coordinator's responses are byte-identical to a
// single-shard deployment, across seeds, shard counts, and both transports
// — and under live per-shard ingestion every response is explained exactly
// by its pinned epoch vector.
//
// Two oracles:
//  * Static phase: a 1-shard local-transport deployment. The coordinator
//    canonicalizes every merged flowgraph, so its output is a pure function
//    of the global cube content — N shards over any transport must produce
//    the same bytes as one shard.
//  * Live phase: recorded (request, response, epoch-vector) triples are
//    replayed through a FixedBackend whose per-shard snapshots are
//    from-scratch FlowCubeBuilder rebuilds (with ShardNode::ShardLocalBuild
//    options) of exactly the record prefix each shard held at its recorded
//    epoch. The splitter applies non-empty sub-batches only, so shard s at
//    epoch e holds precisely the records of its first e-1 non-empty
//    sub-batches — re-partitioning the stream offline reproduces it.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "flowcube/builder.h"
#include "gen/path_generator.h"
#include "path/path_database.h"
#include "serve/protocol.h"
#include "serve/query_service.h"
#include "serve/snapshot_registry.h"
#include "shard/backend.h"
#include "shard/coordinator.h"
#include "shard/ingest_splitter.h"
#include "shard/partitioner.h"
#include "shard/shard_node.h"

namespace flowcube {
namespace {

constexpr size_t kBatchSize = 10;

GeneratorConfig FixtureConfig(uint64_t seed) {
  GeneratorConfig cfg;
  cfg.num_dimensions = 2;
  cfg.dim_distinct_per_level = {2, 2, 2};
  cfg.num_location_groups = 3;
  cfg.locations_per_group = 3;
  cfg.num_sequences = 6;
  cfg.min_sequence_length = 2;
  cfg.max_sequence_length = 5;
  cfg.seed = seed;
  return cfg;
}

FlowCubeBuilderOptions GlobalOptions() {
  // The sharded deployment's contract: global iceberg threshold applied by
  // the coordinator; exceptions and redundancy (whole-cube passes) off.
  FlowCubeBuilderOptions options;
  options.min_support = 2;
  options.compute_exceptions = false;
  options.mark_redundant = false;
  return options;
}

// A cell coordinate expressed as the value names a request carries.
struct Candidate {
  std::vector<std::string> values;
  uint32_t pl_index = 0;
};

// Decodes every materialized cell of `cube` into request value names.
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

std::vector<std::string> LeafValues(const PathSchema& schema,
                                    const PathRecord& rec) {
  std::vector<std::string> values;
  values.reserve(rec.dims.size());
  for (size_t d = 0; d < rec.dims.size(); ++d) {
    values.push_back(schema.dimensions[d].Name(rec.dims[d]));
  }
  return values;
}

// Deterministic request mix over every public type: materialized-cell
// lookups, leaf lookups falling back to ancestors, drill-downs, similarity
// pairs, stats, and one guaranteed name miss (errors must be identical
// across deployments too).
QueryRequest MakeRequest(const PathDatabase& db,
                         const std::vector<Candidate>& pool, int lane,
                         int i) {
  QueryRequest req;
  req.request_id =
      static_cast<uint64_t>(lane) * 100000 + static_cast<uint64_t>(i);
  const size_t pick =
      (static_cast<size_t>(lane) * 13 + static_cast<size_t>(i) * 7) %
      pool.size();
  switch ((lane + i) % 6) {
    case 0:
      req.type = RequestType::kPointLookup;
      req.values = pool[pick].values;
      req.pl_index = pool[pick].pl_index;
      break;
    case 1:
      req.type = RequestType::kCellOrAncestor;
      req.values = LeafValues(
          db.schema(),
          db.record((static_cast<size_t>(lane) * 31 +
                     static_cast<size_t>(i) * 11) %
                    db.size()));
      break;
    case 2:
      req.type = RequestType::kDrillDown;
      req.values = pool[pick].values;
      req.pl_index = pool[pick].pl_index;
      req.dim = static_cast<uint32_t>((lane + i) % 2);
      break;
    case 3:
      req.type = RequestType::kSimilarity;
      req.values = pool[pick].values;
      req.values_b = pool[(pick + 1) % pool.size()].values;
      req.pl_index = pool[pick].pl_index;
      break;
    case 4:
      req.type = RequestType::kStats;
      break;
    default:
      req.type = RequestType::kPointLookup;
      req.values = {"no-such-value", "*"};
      break;
  }
  return req;
}

// One sharded deployment: N nodes, a splitter, one backend (in-process or
// FCQP-over-loopback), and the coordinator on top.
struct Deployment {
  SchemaPtr schema;
  FlowCubePlan plan;
  std::unique_ptr<ShardPartitioner> partitioner;
  std::vector<std::unique_ptr<ShardNode>> nodes;
  std::unique_ptr<ShardIngestSplitter> splitter;
  std::unique_ptr<ShardBackend> backend;
  std::unique_ptr<ShardCoordinator> coordinator;
};

void BuildDeployment(const PathDatabase& db, size_t num_shards, bool remote,
                     Deployment* d) {
  d->schema = db.schema_ptr();
  d->plan = FlowCubePlan::Default(db.schema()).value();
  d->partitioner = std::make_unique<DimsHashPartitioner>(num_shards);
  std::vector<ShardNode*> raw;
  std::vector<const QueryService*> services;
  std::vector<uint16_t> ports;
  for (size_t s = 0; s < num_shards; ++s) {
    ShardNodeOptions options;
    options.global_build = GlobalOptions();
    options.serve_remote = remote;
    Result<std::unique_ptr<ShardNode>> node =
        ShardNode::Create(d->schema, d->plan, options);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    d->nodes.push_back(std::move(node).value());
    raw.push_back(d->nodes.back().get());
    services.push_back(&d->nodes.back()->service());
    if (remote) {
      ASSERT_NE(d->nodes.back()->port(), 0u);
      ports.push_back(d->nodes.back()->port());
    }
  }
  d->splitter =
      std::make_unique<ShardIngestSplitter>(d->partitioner.get(), raw);
  if (remote) {
    d->backend = std::make_unique<RemoteShardBackend>(std::move(ports));
  } else {
    d->backend = std::make_unique<LocalShardBackend>(std::move(services));
  }
  ShardCoordinatorOptions coordinator_options;
  coordinator_options.min_support = GlobalOptions().min_support;
  d->coordinator = std::make_unique<ShardCoordinator>(
      d->schema, d->plan, d->backend.get(), coordinator_options);
}

void IngestAll(const PathDatabase& db, Deployment* d) {
  const std::span<const PathRecord> records(db.records());
  for (size_t offset = 0; offset < records.size(); offset += kBatchSize) {
    const size_t n = std::min(kBatchSize, records.size() - offset);
    ASSERT_TRUE(d->splitter->Apply(records.subspan(offset, n)).ok());
  }
}

std::vector<Candidate> PoolFromMonolithicBuild(const PathDatabase& db,
                                               const FlowCubePlan& plan) {
  const FlowCubeBuilder builder(GlobalOptions());
  Result<FlowCube> cube = builder.Build(db, plan);
  EXPECT_TRUE(cube.ok()) << cube.status().ToString();
  return HarvestCells(cube.value());
}

TEST(ShardDifferentialTest, ByteIdenticalAcrossSeedsShardCountsTransports) {
  for (const uint64_t seed : {11u, 29u, 53u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    PathGenerator gen(FixtureConfig(seed));
    const PathDatabase db = gen.Generate(160);

    Deployment oracle;
    BuildDeployment(db, 1, /*remote=*/false, &oracle);
    if (HasFatalFailure()) return;
    IngestAll(db, &oracle);

    const std::vector<Candidate> pool =
        PoolFromMonolithicBuild(db, oracle.plan);
    ASSERT_FALSE(pool.empty());

    for (const size_t num_shards : {2u, 4u, 8u}) {
      for (const bool remote : {false, true}) {
        SCOPED_TRACE("shards " + std::to_string(num_shards) +
                     (remote ? " remote" : " local"));
        Deployment d;
        BuildDeployment(db, num_shards, remote, &d);
        if (HasFatalFailure()) return;
        IngestAll(db, &d);

        for (int lane = 0; lane < 4; ++lane) {
          for (int i = 0; i < 12; ++i) {
            const QueryRequest request = MakeRequest(db, pool, lane, i);
            const CoordinatorResult want = oracle.coordinator->Execute(request);
            const CoordinatorResult got = d.coordinator->Execute(request);
            // The coordinator's public epoch is always 0; per-shard truth
            // travels in the epoch vector.
            EXPECT_EQ(got.response.epoch, 0u);
            ASSERT_EQ(EncodeResponse(got.response),
                      EncodeResponse(want.response))
                << "request type "
                << static_cast<int>(request.type) << " id "
                << request.request_id << "\n--- oracle ---\n"
                << want.response.body << "\n--- sharded ---\n"
                << got.response.body;
            // Errors raised before the fan-out carry no epochs; anything
            // that fanned out pins exactly one epoch per shard.
            EXPECT_TRUE(got.epochs.empty() ||
                        got.epochs.size() == num_shards);
          }
        }
      }
    }
  }
}

// Replay backend: answers shard s from one fixed snapshot, exactly like a
// shard whose registry is frozen at the recorded epoch. It implements only
// Call, so the replay goes through the wire codec while the live
// deployment's LocalShardBackend hands out the shards' sealed graphs.
class FixedBackend : public ShardBackend {
 public:
  explicit FixedBackend(std::vector<CubeSnapshot> snapshots)
      : snapshots_(std::move(snapshots)) {}

  Result<QueryResponse> Call(size_t shard,
                             const QueryRequest& request) override {
    return QueryService::ExecuteOn(snapshots_[shard], request);
  }
  size_t num_shards() const override { return snapshots_.size(); }

 private:
  std::vector<CubeSnapshot> snapshots_;
};

TEST(ShardDifferentialTest, LiveIngestionResponsesMatchPinnedEpochVector) {
  constexpr size_t kNumShards = 4;
  constexpr size_t kNumRecords = 240;
  constexpr int kNumLanes = 3;
  constexpr int kRequestsPerLane = 40;

  PathGenerator gen(FixtureConfig(61));
  const PathDatabase db = gen.Generate(kNumRecords);

  Deployment d;
  BuildDeployment(db, kNumShards, /*remote=*/false, &d);
  if (HasFatalFailure()) return;

  // The pool comes from the full database: early queries simply miss cells
  // that are not yet above the (global) threshold, which is itself a case
  // the replay must explain.
  const std::vector<Candidate> pool = PoolFromMonolithicBuild(db, d.plan);
  ASSERT_FALSE(pool.empty());

  struct Recorded {
    QueryRequest request;
    CoordinatorResult result;
  };
  std::vector<std::vector<Recorded>> recorded(kNumLanes);

  // Lanes hammer the coordinator while the main thread keeps splitting
  // batches into the shards; each response must be one consistent
  // epoch-vector's worth of cube state, never a half-applied batch.
  std::vector<std::thread> lanes;
  lanes.reserve(kNumLanes);
  for (int lane = 0; lane < kNumLanes; ++lane) {
    lanes.emplace_back([&, lane] {
      for (int i = 0; i < kRequestsPerLane; ++i) {
        Recorded r;
        r.request = MakeRequest(db, pool, lane, i);
        r.result = d.coordinator->Execute(r.request);
        recorded[lane].push_back(std::move(r));
      }
    });
  }
  {
    const std::span<const PathRecord> records(db.records());
    for (size_t offset = 0; offset < records.size(); offset += kBatchSize) {
      const size_t n = std::min(kBatchSize, records.size() - offset);
      ASSERT_TRUE(d.splitter->Apply(records.subspan(offset, n)).ok());
    }
  }
  for (std::thread& t : lanes) t.join();

  // Offline re-partition of the stream: per shard, the record prefix after
  // each non-empty sub-batch. prefixes[s][k] = records shard s held at
  // epoch k+1 (epoch 1 = the empty cube published at creation).
  std::vector<std::vector<std::vector<PathRecord>>> prefixes(kNumShards);
  for (size_t s = 0; s < kNumShards; ++s) {
    prefixes[s].push_back({});  // epoch 1
  }
  {
    const std::span<const PathRecord> records(db.records());
    for (size_t offset = 0; offset < records.size(); offset += kBatchSize) {
      const size_t n = std::min(kBatchSize, records.size() - offset);
      std::vector<std::vector<PathRecord>> buckets(kNumShards);
      for (const PathRecord& record : records.subspan(offset, n)) {
        buckets[d.partitioner->ShardOf(record)].push_back(record);
      }
      for (size_t s = 0; s < kNumShards; ++s) {
        if (buckets[s].empty()) continue;
        std::vector<PathRecord> next = prefixes[s].back();
        next.insert(next.end(), buckets[s].begin(), buckets[s].end());
        prefixes[s].push_back(std::move(next));
      }
    }
    for (size_t s = 0; s < kNumShards; ++s) {
      ASSERT_EQ(d.nodes[s]->current_epoch(), prefixes[s].size());
      ASSERT_EQ(d.nodes[s]->live_record_count(), prefixes[s].back().size());
    }
  }

  // Snapshot cache: shard s at epoch e, rebuilt from scratch with the
  // shard-local build options — exactly what the live shard ran.
  const FlowCubeBuilder shard_builder(
      ShardNode::ShardLocalBuild(GlobalOptions()));
  std::map<std::pair<size_t, uint64_t>, CubeSnapshot> cache;
  const auto snapshot_at = [&](size_t s, uint64_t epoch) -> CubeSnapshot {
    const auto key = std::make_pair(s, epoch);
    auto it = cache.find(key);
    if (it != cache.end()) return it->second;
    const std::vector<PathRecord>& prefix = prefixes[s][epoch - 1];
    PathDatabase shard_db(db.schema_ptr());
    for (const PathRecord& record : prefix) {
      EXPECT_TRUE(shard_db.Append(record).ok());
    }
    Result<FlowCube> cube = shard_builder.Build(shard_db, d.plan);
    EXPECT_TRUE(cube.ok()) << cube.status().ToString();
    CubeSnapshot snapshot;
    snapshot.epoch = epoch;
    snapshot.records = prefix.size();
    snapshot.cube = std::make_shared<const FlowCube>(std::move(cube.value()));
    cache[key] = snapshot;
    return snapshot;
  };

  size_t replayed = 0;
  for (int lane = 0; lane < kNumLanes; ++lane) {
    ASSERT_EQ(recorded[lane].size(), static_cast<size_t>(kRequestsPerLane));
    for (const Recorded& r : recorded[lane]) {
      SCOPED_TRACE("lane " + std::to_string(lane) + " request " +
                   std::to_string(r.request.request_id));
      std::vector<CubeSnapshot> snapshots;
      if (r.result.epochs.size() == kNumShards) {
        for (size_t s = 0; s < kNumShards; ++s) {
          const uint64_t epoch = r.result.epochs[s];
          ASSERT_GE(epoch, 1u);
          ASSERT_LE(epoch, prefixes[s].size());
          snapshots.push_back(snapshot_at(s, epoch));
        }
      } else {
        // The coordinator failed before fanning out (e.g. a name error):
        // the response is snapshot-independent, so replay against empty
        // shards and expect the same pre-fan-out error with no epochs.
        ASSERT_TRUE(r.result.epochs.empty());
        for (size_t s = 0; s < kNumShards; ++s) {
          snapshots.push_back(snapshot_at(s, 1));
        }
      }
      FixedBackend fixed(std::move(snapshots));
      ShardCoordinatorOptions options;
      options.min_support = GlobalOptions().min_support;
      const ShardCoordinator oracle(d.schema, d.plan, &fixed, options);
      const CoordinatorResult want = oracle.Execute(r.request);
      ASSERT_EQ(EncodeResponse(r.result.response),
                EncodeResponse(want.response))
          << "--- live ---\n"
          << r.result.response.body << "\n--- replay ---\n"
          << want.response.body;
      EXPECT_EQ(want.epochs, r.result.epochs);
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, static_cast<size_t>(kNumLanes * kRequestsPerLane));
}

}  // namespace
}  // namespace flowcube
