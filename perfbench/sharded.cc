// Workload `sharded`: records are routed by ShardIngestSplitter (dims_hash)
// into four in-process ShardNodes, then one closed-loop caller sends a
// seeded mix of the public requests through ShardCoordinator over
// LocalShardBackend. Fan-out, the flowgraph codec, merge and
// canonicalisation do the work; no other workload reaches the shard layer.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "bench.h"
#include "common/logging.h"
#include "shard/backend.h"
#include "shard/coordinator.h"
#include "shard/ingest_splitter.h"
#include "shard/partitioner.h"
#include "shard/shard_node.h"
#include "trace.h"

namespace perfbench {
namespace {

using flowcube::QueryRequest;
using flowcube::QueryResponse;

// d=2 keeps kStats (every cell key of every shard, on every request) near
// 7 ms, so a 20-second run completes several thousand requests.
constexpr int kDims = 2;
constexpr size_t kPaths = 10000;
constexpr size_t kShards = 4;
constexpr size_t kIngestBatch = 500;
// At about 300 requests a second, a run sends each pool request a dozen
// times or more and keeps its fastest.
constexpr size_t kPoolSize = 500;
constexpr size_t kWarmupRequests = 50;

const char* const kExecuteSpans[] = {
    "shard.execute.point", "shard.execute.ancestor", "shard.execute.drilldown",
    "shard.execute.similarity", "shard.execute.stats"};

// Times and sizes every coordinator-to-shard call of the traced run.
class TracedBackend : public flowcube::ShardBackend {
 public:
  explicit TracedBackend(flowcube::ShardBackend* inner) : inner_(inner) {}

  flowcube::Result<QueryResponse> Call(size_t shard,
                                       const QueryRequest& request) override {
    ScopedSpan span("shard.call", request.request_id);
    flowcube::Result<QueryResponse> response = inner_->Call(shard, request);
    if (response.ok()) {
      Tracer::Count("shard.internal_bytes",
                    static_cast<double>(response->body.size()));
    }
    return response;
  }
  size_t num_shards() const override { return inner_->num_shards(); }

 private:
  flowcube::ShardBackend* inner_;
};

std::unique_ptr<flowcube::ShardNode> MakeShard(
    const flowcube::PathDatabase& db, const flowcube::FlowCubePlan& plan,
    uint32_t min_support) {
  flowcube::ShardNodeOptions options;
  options.global_build = BuildOptions(min_support);
  return flowcube::ShardNode::Create(db.schema_ptr(), plan, options).value();
}

}  // namespace

RunResult RunSharded(const RunOptions& options) {
  RunResult result;
  std::optional<flowcube::PathDatabase> db;
  {
    ScopedSpan span("gen.generate");
    db.emplace(GenerateInputs(options.seed, kDims, kPaths));
  }
  const std::span<const flowcube::PathRecord> records(db->records());
  const flowcube::FlowCubePlan plan =
      flowcube::FlowCubePlan::Default(db->schema()).value();
  const uint32_t min_support = static_cast<uint32_t>(kPaths / 100);
  const BruteForceSupports truth(db->schema(), plan, records);
  const std::vector<QueryRequest> pool = RequestPool(
      truth, plan, records, min_support, kPoolSize, options.seed);

  const flowcube::DimsHashPartitioner partitioner(kShards);
  std::vector<std::unique_ptr<flowcube::ShardNode>> nodes;
  std::vector<flowcube::ShardNode*> raw;
  std::vector<const flowcube::QueryService*> services;
  for (size_t s = 0; s < kShards; ++s) {
    nodes.push_back(MakeShard(*db, plan, min_support));
    raw.push_back(nodes.back().get());
    services.push_back(&nodes.back()->service());
  }
  flowcube::ShardIngestSplitter splitter(&partitioner, raw);
  for (size_t at = 0; at < records.size(); at += kIngestBatch) {
    const size_t n = std::min(kIngestBatch, records.size() - at);
    ScopedSpan span("shard.splitter_apply");
    FC_CHECK(splitter.Apply(records.subspan(at, n)).ok());
    Tracer::Count("shard.ingest_records", static_cast<double>(n));
  }
  flowcube::LocalShardBackend local(services);
  TracedBackend traced(&local);
  flowcube::ShardCoordinatorOptions copts;
  copts.min_support = min_support;
  const flowcube::ShardCoordinator coordinator(
      db->schema_ptr(), plan,
      Tracer::enabled() ? static_cast<flowcube::ShardBackend*>(&traced)
                        : &local,
      copts);

  size_t cursor = 0;
  uint64_t seq = 0;
  auto call = [&](Sample* sample) {
    const size_t index = cursor++ % kPoolSize;
    QueryRequest req = pool[index];
    req.request_id = ++seq;
    ScopedSpan span(kExecuteSpans[TypeIndex(req.type)], req.request_id);
    sample->span.start = Now();
    const flowcube::CoordinatorResult answer = coordinator.Execute(req);
    sample->span.end = Now();
    span.End();
    sample->pool_index = static_cast<uint32_t>(index);
    sample->ok = answer.response.code == flowcube::Status::Code::kOk;
    sample->id_echoed = answer.response.request_id == req.request_id;
    sample->body_hash = BodyHash(answer.response.body);
  };
  Sample warm;
  for (size_t i = 0; i < kWarmupRequests; ++i) call(&warm);
  result.e2e.setup_s = SecondsSinceStart();

  std::vector<std::vector<Sample>> per_caller(1);
  std::vector<Sample>& samples = per_caller[0];
  samples.reserve(1 << 14);
  const double deadline = Now() + options.seconds;
  while (Now() < deadline) {
    samples.emplace_back();
    call(&samples.back());
  }
  result.e2e.peak_rss_mb = PeakRssMb();
  SummarizeRequests(per_caller, kPoolSize, &result);
  size_t cube_bytes = 0;
  size_t most = 0;
  size_t fewest = records.size();
  for (const auto& node : nodes) {
    cube_bytes += node->maintainer().cube().MemoryUsage();
    CountCube(node->maintainer().cube());
    most = std::max(most, node->live_record_count());
    fewest = std::min(fewest, node->live_record_count());
  }
  result.e2e.cube_mb = static_cast<double>(cube_bytes) / 1e6;
  Tracer::Count("shard.records_skew",
                static_cast<double>(most) /
                    static_cast<double>(std::max<size_t>(fewest, 1)));

  // Checks: every answer equals a one-shard deployment's byte for byte,
  // and agrees with the brute-force counts.
  std::unique_ptr<flowcube::ShardNode> single =
      MakeShard(*db, plan, min_support);
  FC_CHECK(single->Apply(records).ok());
  flowcube::LocalShardBackend single_backend({&single->service()});
  const flowcube::ShardCoordinator single_coordinator(
      db->schema_ptr(), plan, &single_backend, copts);
  const size_t checked = CheckAnswers(
      samples, pool,
      [&](const QueryRequest& req) {
        return single_coordinator.Execute(req).response;
      },
      AnswerOracle(&truth, min_support), &result.errors);
  std::fprintf(stderr,
               "sharded: %zu requests, %zu distinct checked, shard records "
               "%zu..%zu\n",
               samples.size(), checked, fewest, most);
  return result;
}

}  // namespace perfbench
