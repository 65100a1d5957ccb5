// Unit tests of the sharding layer (src/shard/): partitioner determinism
// and bounds, shard-local build-option derivation, ingest splitting with
// epoch accounting, shard-node lifecycle, and the coordinator's dispatch /
// merge / partial-failure semantics against small fixtures. The heavy
// byte-identity sweeps live in shard_differential_test.cc (label: shard).

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "flowcube/builder.h"
#include "flowcube/dump.h"
#include "gen/path_generator.h"
#include "io/binary_io.h"
#include "path/path_database.h"
#include "serve/query_service.h"
#include "shard/backend.h"
#include "shard/coordinator.h"
#include "shard/ingest_splitter.h"
#include "shard/partitioner.h"
#include "shard/shard_node.h"

namespace flowcube {
namespace {

GeneratorConfig FixtureConfig() {
  GeneratorConfig cfg;
  cfg.num_dimensions = 2;
  cfg.dim_distinct_per_level = {2, 2, 2};
  cfg.num_location_groups = 3;
  cfg.locations_per_group = 3;
  cfg.num_sequences = 6;
  cfg.min_sequence_length = 2;
  cfg.max_sequence_length = 5;
  cfg.seed = 909;
  return cfg;
}

FlowCubeBuilderOptions GlobalOptions() {
  // Exceptions and redundancy are whole-cube passes a sharded deployment
  // does not run; the coordinator's contract is defined against a
  // monolithic build with them off.
  FlowCubeBuilderOptions options;
  options.min_support = 2;
  options.compute_exceptions = false;
  options.mark_redundant = false;
  return options;
}

PathRecord RecordWithLeadingId(NodeId id) {
  PathRecord record;
  record.dims = {id, 0};
  record.path = Path{{Stage{1, 1}}};
  return record;
}

// --- Partitioners ----------------------------------------------------------

TEST(PartitionerTest, DimsHashIsDeterministicInRangeAndSpreads) {
  PathGenerator gen(FixtureConfig());
  const PathDatabase db = gen.Generate(200);
  DimsHashPartitioner partitioner(4);
  const DimsHashPartitioner again(4);
  std::set<size_t> used;
  for (const PathRecord& record : db.records()) {
    const size_t shard = partitioner.ShardOf(record);
    ASSERT_LT(shard, 4u);
    // Pure function of the record: a second instance agrees on every call.
    ASSERT_EQ(again.ShardOf(record), shard);
    used.insert(shard);
  }
  // 200 records over 4 hash buckets must touch more than one shard.
  EXPECT_GT(used.size(), 1u);
  // Records with equal dims co-locate regardless of their paths.
  PathRecord a = db.record(0);
  PathRecord b = db.record(0);
  b.path = Path{{Stage{42, 7}}};
  EXPECT_EQ(partitioner.ShardOf(a), partitioner.ShardOf(b));
}

TEST(PartitionerTest, RangePartitionerMapsContiguousRangesInOrder) {
  RangePartitioner partitioner(4, 100);
  EXPECT_EQ(partitioner.ShardOf(RecordWithLeadingId(0)), 0u);
  EXPECT_EQ(partitioner.ShardOf(RecordWithLeadingId(24)), 0u);
  EXPECT_EQ(partitioner.ShardOf(RecordWithLeadingId(25)), 1u);
  EXPECT_EQ(partitioner.ShardOf(RecordWithLeadingId(50)), 2u);
  EXPECT_EQ(partitioner.ShardOf(RecordWithLeadingId(99)), 3u);
  // Ids beyond the declared space clamp into the last shard.
  EXPECT_EQ(partitioner.ShardOf(RecordWithLeadingId(1000)), 3u);
  // Shard index is monotone in the leading id — contiguous ranges.
  size_t prev = 0;
  for (NodeId id = 0; id < 100; ++id) {
    const size_t shard = partitioner.ShardOf(RecordWithLeadingId(id));
    ASSERT_GE(shard, prev);
    ASSERT_LT(shard, 4u);
    prev = shard;
  }
}

TEST(PartitionerTest, MakePartitionerResolvesNamesAndRejectsUnknown) {
  Result<std::unique_ptr<ShardPartitioner>> dflt = MakePartitioner("", 2, 10);
  ASSERT_TRUE(dflt.ok());
  EXPECT_EQ((*dflt)->name(), "dims_hash");
  Result<std::unique_ptr<ShardPartitioner>> hash =
      MakePartitioner("dims_hash", 3, 10);
  ASSERT_TRUE(hash.ok());
  EXPECT_EQ((*hash)->num_shards(), 3u);
  Result<std::unique_ptr<ShardPartitioner>> range =
      MakePartitioner("range", 2, 10);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ((*range)->name(), "range");
  Result<std::unique_ptr<ShardPartitioner>> bad =
      MakePartitioner("bogus", 2, 10);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(bad.status().message(), "unknown partitioner kind: bogus");
}

// --- Shard-local options ---------------------------------------------------

TEST(ShardNodeTest, ShardLocalBuildKeepsEverythingExceptGlobalPasses) {
  FlowCubeBuilderOptions global = GlobalOptions();
  global.min_support = 5;
  const FlowCubeBuilderOptions local = ShardNode::ShardLocalBuild(global);
  EXPECT_EQ(local.min_support, 1u);
  EXPECT_FALSE(local.compute_exceptions);
  EXPECT_FALSE(local.mark_redundant);
}

TEST(ShardNodeTest, FreshShardPublishesTheEmptyCubeAtEpochOne) {
  PathGenerator gen(FixtureConfig());
  const PathDatabase db = gen.Generate(1);
  const FlowCubePlan plan = FlowCubePlan::Default(db.schema()).value();
  ShardNodeOptions options;
  options.global_build = GlobalOptions();
  Result<std::unique_ptr<ShardNode>> node =
      ShardNode::Create(db.schema_ptr(), plan, options);
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  EXPECT_EQ((*node)->current_epoch(), 1u);
  EXPECT_EQ((*node)->live_record_count(), 0u);
  EXPECT_EQ((*node)->port(), 0u);

  // A record-less shard answers queries instead of failing the fan-out.
  QueryRequest stats;
  stats.type = RequestType::kStats;
  const QueryResponse response = (*node)->service().Execute(stats);
  EXPECT_EQ(response.code, Status::Code::kOk);
  EXPECT_EQ(response.epoch, 1u);
  EXPECT_EQ(response.body.substr(0, 10), "records 0\n");
}

// --- Deployment helper -----------------------------------------------------

struct Deployment {
  SchemaPtr schema;
  FlowCubePlan plan;
  std::unique_ptr<ShardPartitioner> partitioner;
  std::vector<std::unique_ptr<ShardNode>> nodes;
  std::unique_ptr<ShardIngestSplitter> splitter;
  std::unique_ptr<ShardBackend> backend;
  std::unique_ptr<ShardCoordinator> coordinator;
};

void BuildLocalDeployment(const PathDatabase& db, size_t num_shards,
                          Deployment* d) {
  d->schema = db.schema_ptr();
  d->plan = FlowCubePlan::Default(db.schema()).value();
  d->partitioner = std::make_unique<DimsHashPartitioner>(num_shards);
  std::vector<ShardNode*> raw;
  std::vector<const QueryService*> services;
  for (size_t s = 0; s < num_shards; ++s) {
    ShardNodeOptions options;
    options.global_build = GlobalOptions();
    Result<std::unique_ptr<ShardNode>> node =
        ShardNode::Create(d->schema, d->plan, options);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    d->nodes.push_back(std::move(node).value());
    raw.push_back(d->nodes.back().get());
    services.push_back(&d->nodes.back()->service());
  }
  d->splitter =
      std::make_unique<ShardIngestSplitter>(d->partitioner.get(), raw);
  d->backend = std::make_unique<LocalShardBackend>(services);
  ShardCoordinatorOptions coordinator_options;
  coordinator_options.min_support = GlobalOptions().min_support;
  d->coordinator = std::make_unique<ShardCoordinator>(
      d->schema, d->plan, d->backend.get(), coordinator_options);
}

void IngestAll(const PathDatabase& db, Deployment* d, size_t batch = 16) {
  const std::span<const PathRecord> records(db.records());
  for (size_t offset = 0; offset < records.size(); offset += batch) {
    const size_t n = std::min(batch, records.size() - offset);
    ASSERT_TRUE(d->splitter->Apply(records.subspan(offset, n)).ok());
  }
}

// --- Ingest splitter -------------------------------------------------------

TEST(SplitterTest, RoutesEveryRecordAndAdvancesOnlyTouchedShards) {
  PathGenerator gen(FixtureConfig());
  const PathDatabase db = gen.Generate(60);
  Deployment d;
  BuildLocalDeployment(db, 2, &d);

  SplitStats stats;
  ASSERT_TRUE(
      d.splitter->Apply(std::span<const PathRecord>(db.records()), &stats)
          .ok());
  ASSERT_EQ(stats.per_shard.size(), 2u);
  EXPECT_EQ(stats.per_shard[0] + stats.per_shard[1], db.size());
  EXPECT_EQ(d.nodes[0]->live_record_count(), stats.per_shard[0]);
  EXPECT_EQ(d.nodes[1]->live_record_count(), stats.per_shard[1]);

  // A batch containing only shard-0 records must not advance shard 1's
  // epoch: empty sub-batches are skipped, not applied.
  std::vector<PathRecord> only_zero;
  for (const PathRecord& record : db.records()) {
    if (d.partitioner->ShardOf(record) == 0) only_zero.push_back(record);
    if (only_zero.size() == 5) break;
  }
  ASSERT_FALSE(only_zero.empty());
  const uint64_t epoch0 = d.nodes[0]->current_epoch();
  const uint64_t epoch1 = d.nodes[1]->current_epoch();
  SplitStats skewed;
  ASSERT_TRUE(
      d.splitter->Apply(std::span<const PathRecord>(only_zero), &skewed)
          .ok());
  EXPECT_EQ(skewed.per_shard[1], 0u);
  EXPECT_EQ(d.nodes[0]->current_epoch(), epoch0 + 1);
  EXPECT_EQ(d.nodes[1]->current_epoch(), epoch1);
}

// --- Coordinator -----------------------------------------------------------

// The monolithic oracle: one cube over the whole database, served through
// the single-node execution path.
CubeSnapshot MonolithicSnapshot(const PathDatabase& db,
                                const FlowCubePlan& plan) {
  const FlowCubeBuilder builder(GlobalOptions());
  Result<FlowCube> cube = builder.Build(db, plan);
  EXPECT_TRUE(cube.ok()) << cube.status().ToString();
  CubeSnapshot snapshot;
  snapshot.epoch = 1;
  snapshot.records = db.size();
  snapshot.cube = std::make_shared<const FlowCube>(std::move(cube.value()));
  return snapshot;
}

TEST(ShardCoordinatorTest, StatsMatchMonolithicBuildByteForByte) {
  PathGenerator gen(FixtureConfig());
  const PathDatabase db = gen.Generate(120);
  Deployment d;
  BuildLocalDeployment(db, 3, &d);
  IngestAll(db, &d);

  QueryRequest request;
  request.type = RequestType::kStats;
  request.request_id = 5;
  const CoordinatorResult result = d.coordinator->Execute(request);
  ASSERT_EQ(result.response.code, Status::Code::kOk);
  EXPECT_EQ(result.response.request_id, 5u);
  EXPECT_EQ(result.response.epoch, 0u);  // epoch vector carries the truth
  EXPECT_EQ(result.epochs.size(), 3u);

  const CubeSnapshot mono = MonolithicSnapshot(db, d.plan);
  const QueryResponse expected = QueryService::ExecuteOn(mono, request);
  EXPECT_EQ(result.response.body, expected.body);
}

TEST(ShardCoordinatorTest, PointLookupSupportMatchesMonolithicCell) {
  PathGenerator gen(FixtureConfig());
  const PathDatabase db = gen.Generate(120);
  Deployment d;
  BuildLocalDeployment(db, 3, &d);
  IngestAll(db, &d);

  const CubeSnapshot mono = MonolithicSnapshot(db, d.plan);
  // The apex cell aggregates every record, so it is always materialized.
  QueryRequest request;
  request.type = RequestType::kPointLookup;
  request.values = {"*", "*"};
  const CoordinatorResult result = d.coordinator->Execute(request);
  ASSERT_EQ(result.response.code, Status::Code::kOk)
      << result.response.message;
  const QueryResponse expected = QueryService::ExecuteOn(mono, request);
  ASSERT_EQ(expected.code, Status::Code::kOk) << expected.message;
  // Graph node numbering differs between a merged and a monolithic build,
  // but the header lines and the cell's support must agree exactly.
  const auto header_and_support = [](const std::string& body) {
    size_t p = body.find('\n');
    EXPECT_NE(p, std::string::npos);
    p = body.find('\n', p + 1);
    EXPECT_NE(p, std::string::npos);
    const size_t s = body.find("support=", p);
    EXPECT_NE(s, std::string::npos);
    const size_t e = body.find(' ', s);
    return body.substr(0, p + 1) + body.substr(s, e - s);
  };
  EXPECT_EQ(header_and_support(result.response.body),
            header_and_support(expected.body));
}

TEST(ShardCoordinatorTest, ErrorVocabularyMatchesTheSingleNodeService) {
  PathGenerator gen(FixtureConfig());
  const PathDatabase db = gen.Generate(40);
  Deployment d;
  BuildLocalDeployment(db, 2, &d);
  IngestAll(db, &d);

  QueryRequest bad_pl;
  bad_pl.type = RequestType::kPointLookup;
  bad_pl.values = {"*", "*"};
  bad_pl.pl_index = 99;
  CoordinatorResult r = d.coordinator->Execute(bad_pl);
  EXPECT_EQ(r.response.code, Status::Code::kInvalidArgument);
  EXPECT_EQ(r.response.message, "pl_index out of range");
  EXPECT_TRUE(r.epochs.empty());  // failed before any fan-out

  QueryRequest bad_dim;
  bad_dim.type = RequestType::kDrillDown;
  bad_dim.values = {"*", "*"};
  bad_dim.dim = 99;
  r = d.coordinator->Execute(bad_dim);
  EXPECT_EQ(r.response.code, Status::Code::kInvalidArgument);
  EXPECT_EQ(r.response.message, "dimension index out of range");

  QueryRequest bad_name;
  bad_name.type = RequestType::kPointLookup;
  bad_name.values = {"no-such-value", "*"};
  r = d.coordinator->Execute(bad_name);
  EXPECT_EQ(r.response.code, Status::Code::kNotFound);
  EXPECT_NE(r.response.message.find("no concept named"), std::string::npos);

  QueryRequest internal;
  internal.type = RequestType::kCellFetchBatch;
  r = d.coordinator->Execute(internal);
  EXPECT_EQ(r.response.code, Status::Code::kInvalidArgument);
  EXPECT_NE(r.response.message.find("internal request types"),
            std::string::npos);
}

// A backend whose shard 1 is dead: calls to it fail with kUnavailable.
class OneDeadShardBackend : public ShardBackend {
 public:
  explicit OneDeadShardBackend(ShardBackend* inner) : inner_(inner) {}
  Result<QueryResponse> Call(size_t shard,
                             const QueryRequest& request) override {
    if (shard == 1) {
      return Status::Unavailable("connect: Connection refused");
    }
    return inner_->Call(shard, request);
  }
  size_t num_shards() const override { return inner_->num_shards(); }

 private:
  ShardBackend* inner_;
};

TEST(ShardCoordinatorTest, DeadShardSurfacesAsPartialFailureStatus) {
  PathGenerator gen(FixtureConfig());
  const PathDatabase db = gen.Generate(40);
  Deployment d;
  BuildLocalDeployment(db, 3, &d);
  IngestAll(db, &d);

  OneDeadShardBackend flaky(d.backend.get());
  ShardCoordinatorOptions options;
  options.min_support = GlobalOptions().min_support;
  const ShardCoordinator coordinator(d.schema, d.plan, &flaky, options);

  QueryRequest request;
  request.type = RequestType::kStats;
  const CoordinatorResult result = coordinator.Execute(request);
  EXPECT_EQ(result.response.code, Status::Code::kUnavailable);
  EXPECT_EQ(result.response.message,
            "shard 1: connect: Connection refused");
  EXPECT_TRUE(result.response.body.empty());
  // Shard 0 answered before the failure: the epoch vector is partial.
  EXPECT_EQ(result.epochs.size(), 1u);
}

// A backend whose shards answer every request with fixed, hand-written
// bodies, so the coordinator's decode and merge checks see exactly them.
class CraftedBodyBackend : public ShardBackend {
 public:
  explicit CraftedBodyBackend(std::vector<std::string> bodies)
      : bodies_(std::move(bodies)) {}
  Result<QueryResponse> Call(size_t shard,
                             const QueryRequest& request) override {
    QueryResponse response;
    response.request_id = request.request_id;
    response.epoch = 1;
    response.body = bodies_[shard];
    return response;
  }
  size_t num_shards() const override { return bodies_.size(); }

 private:
  std::vector<std::string> bodies_;
};

// Appends a (support, flowgraph) cell entry (serve/shard_codec.h) whose
// flowgraph is a bare root on which all `paths` paths terminate.
void PutRootOnlyCell(uint32_t support, uint32_t paths, ByteWriter* w) {
  w->U32(support);
  w->U64(1);  // node count
  w->U32(kInvalidNode);
  w->U32(FlowGraph::kRoot);
  w->U32(0);  // depth
  w->U64(0);  // children
  w->U32(paths);
  w->U32(paths);  // terminate count
  w->U64(0);      // duration entries
  w->U64(0);      // exceptions
}

// A kCellFetchBatch body of `count` found cells, each as above.
std::string CellFetchBody(uint32_t count, uint32_t support, uint32_t paths) {
  ByteWriter w;
  w.U32(count);
  for (uint32_t i = 0; i < count; ++i) {
    w.U8(1);
    PutRootOnlyCell(support, paths, &w);
  }
  return w.data();
}

TEST(ShardCoordinatorTest, RejectsMalformedAndOverflowingShardBodies) {
  PathGenerator gen(FixtureConfig());
  const PathDatabase db = gen.Generate(1);
  const FlowCubePlan plan = FlowCubePlan::Default(db.schema()).value();
  ShardCoordinatorOptions options;
  options.min_support = GlobalOptions().min_support;
  const auto execute = [&](std::vector<std::string> bodies,
                           const QueryRequest& request) {
    CraftedBodyBackend backend(std::move(bodies));
    const ShardCoordinator coordinator(db.schema_ptr(), plan, &backend,
                                       options);
    return coordinator.Execute(request).response;
  };
  QueryRequest apex;
  apex.type = RequestType::kPointLookup;
  apex.values = {"*", "*"};

  // Control: well-formed bodies from two shards merge and render.
  const std::string good = CellFetchBody(1, 3, 3);
  QueryResponse r = execute({good, good}, apex);
  ASSERT_EQ(r.code, Status::Code::kOk) << r.message;
  EXPECT_NE(r.body.find("support=6"), std::string::npos) << r.body;

  const std::string malformed = "shard 1: malformed internal response body";
  // A support the cell's own flowgraph does not carry.
  r = execute({good, CellFetchBody(1, 3, 2)}, apex);
  EXPECT_EQ(r.code, Status::Code::kInternal);
  EXPECT_EQ(r.message, malformed);
  // A truncated body.
  r = execute({good, good.substr(0, good.size() - 1)}, apex);
  EXPECT_EQ(r.code, Status::Code::kInternal);
  EXPECT_EQ(r.message, malformed);
  // An answer for two cells to a request for one.
  r = execute({good, CellFetchBody(2, 3, 3)}, apex);
  EXPECT_EQ(r.code, Status::Code::kInternal);
  EXPECT_EQ(r.message, malformed);

  // Supports that are each valid but sum past the u32 range of a rendered
  // cell: refused instead of wrapping.
  const std::string half = CellFetchBody(1, 1u << 31, 1u << 31);
  r = execute({half, half}, apex);
  EXPECT_EQ(r.code, Status::Code::kInternal);
  EXPECT_EQ(r.message, "cell (*, *): merged support exceeds the u32 range");

  // The same for a drilled-down child.
  const FlowCube skeleton(plan, db.schema_ptr());
  const Result<NodeId> value = db.schema().dimensions[0].Find("d0_0");
  ASSERT_TRUE(value.ok());
  ByteWriter children;
  children.U8(1);
  PutRootOnlyCell(1u << 31, 1u << 31, &children);
  children.U32(1);
  children.U32(1);  // key size
  children.U32(skeleton.catalog().DimItem(0, value.value()));
  PutRootOnlyCell(1u << 31, 1u << 31, &children);
  QueryRequest drill;
  drill.type = RequestType::kDrillDown;
  drill.values = {"*", "*"};
  drill.dim = 0;
  r = execute({children.data(), children.data()}, drill);
  EXPECT_EQ(r.code, Status::Code::kInternal);
  EXPECT_EQ(r.message,
            "cell (d0_0, *): merged support exceeds the u32 range");
}

TEST(ShardCoordinatorTest, RemoteTransportAnswersThroughRealServers) {
  PathGenerator gen(FixtureConfig());
  const PathDatabase db = gen.Generate(60);
  const FlowCubePlan plan = FlowCubePlan::Default(db.schema()).value();

  std::vector<std::unique_ptr<ShardNode>> nodes;
  std::vector<ShardNode*> raw;
  std::vector<uint16_t> ports;
  for (size_t s = 0; s < 2; ++s) {
    ShardNodeOptions options;
    options.global_build = GlobalOptions();
    options.serve_remote = true;
    Result<std::unique_ptr<ShardNode>> node =
        ShardNode::Create(db.schema_ptr(), plan, options);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    ASSERT_NE((*node)->port(), 0u);
    ports.push_back((*node)->port());
    nodes.push_back(std::move(node).value());
    raw.push_back(nodes.back().get());
  }
  DimsHashPartitioner partitioner(2);
  ShardIngestSplitter splitter(&partitioner, raw);
  ASSERT_TRUE(splitter.Apply(std::span<const PathRecord>(db.records())).ok());

  RemoteShardBackend backend(ports);
  ShardCoordinatorOptions options;
  options.min_support = GlobalOptions().min_support;
  const ShardCoordinator coordinator(db.schema_ptr(), plan, &backend,
                                     options);
  QueryRequest request;
  request.type = RequestType::kStats;
  const CoordinatorResult result = coordinator.Execute(request);
  ASSERT_EQ(result.response.code, Status::Code::kOk)
      << result.response.message;
  const CubeSnapshot mono = MonolithicSnapshot(db, plan);
  EXPECT_EQ(result.response.body,
            QueryService::ExecuteOn(mono, request).body);
}

}  // namespace
}  // namespace flowcube
