// Workload `serve`: the cube is built, saved as FCSP v2, opened with
// MappedCube::Load (the cold start, repeated) and served by QueryServer on
// loopback to closed-loop ServeClient connections sending a seeded mix of
// the five public requests. Store, protocol, server and query service do the
// work; no mining or measure code runs while requests are timed.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "serve/client.h"
#include "serve/query_service.h"
#include "serve/server.h"
#include "serve/snapshot_registry.h"
#include "store/mapped_cube.h"
#include "stream/checkpoint.h"
#include "stream/incremental_maintainer.h"
#include "trace.h"

namespace perfbench {
namespace {

using flowcube::QueryRequest;
using flowcube::QueryResponse;
using flowcube::RequestType;

constexpr size_t kPaths = 10000;
constexpr size_t kPoolSize = 4000;
constexpr size_t kColdStarts = 10;
// Two closed-loop connections served by two workers: with the event
// thread, the load fits in four cores.
constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr size_t kWarmupRequests = 300;

const char* const kCallSpans[] = {"serve.call.point", "serve.call.ancestor",
                                  "serve.call.drilldown",
                                  "serve.call.similarity", "serve.call.stats"};
const char* const kExecuteSpans[] = {
    "serve.execute.point", "serve.execute.ancestor", "serve.execute.drilldown",
    "serve.execute.similarity", "serve.execute.stats"};

uint64_t CacheCounter(const char* name) {
  return flowcube::MetricRegistry::Global().counter(name).value();
}

}  // namespace

RunResult RunServe(const RunOptions& options) {
  RunResult result;
  std::optional<flowcube::PathDatabase> db;
  {
    ScopedSpan span("gen.generate");
    db.emplace(GenerateInputs(options.seed, 3, kPaths));
  }
  const flowcube::FlowCubePlan plan =
      flowcube::FlowCubePlan::Default(db->schema()).value();
  const uint32_t min_support = static_cast<uint32_t>(kPaths / 100);
  const BruteForceSupports truth(db->schema(), plan, db->records());
  const std::vector<QueryRequest> pool = RequestPool(
      truth, plan, db->records(), min_support, kPoolSize, options.seed);

  flowcube::IncrementalMaintainerOptions mopts;
  mopts.build = BuildOptions(min_support);
  const std::string file = options.work_dir + "/serve-" +
                           std::to_string(getpid()) + ".fcsp";
  {
    std::optional<flowcube::IncrementalMaintainer> maintainer;
    {
      ScopedSpan span("serve.cube_build");
      maintainer.emplace(std::move(
          flowcube::IncrementalMaintainer::Create(db->schema_ptr(), plan,
                                                  mopts)
              .value()));
      FC_CHECK(maintainer->ApplyRecords(db->records()).ok());
    }
    result.e2e.cube_mb =
        static_cast<double>(maintainer->cube().MemoryUsage()) / 1e6;
    CountCube(maintainer->cube());
    ScopedSpan span("store.save");
    FC_CHECK(flowcube::SaveCheckpoint(*maintainer, nullptr, file).ok());
  }
  Tracer::Count("store.file_bytes",
                static_cast<double>(std::filesystem::file_size(file)));

  flowcube::SnapshotRegistry registry;
  const flowcube::QueryService service(&registry);
  flowcube::ServerOptions sopts;
  sopts.num_workers = kWorkers;
  std::unique_ptr<flowcube::QueryServer> server =
      std::move(flowcube::QueryServer::Start(&service, sopts).value());

  // Cold starts: load the v2 file, publish it, answer the first query.
  QueryRequest first;
  first.type = RequestType::kDrillDown;
  first.values.assign(db->schema().num_dimensions(), "*");
  std::shared_ptr<const flowcube::MappedCube> mapped;
  for (size_t i = 0; i < kColdStarts; ++i) {
    ScopedSpan coldstart("store.coldstart");
    {
      ScopedSpan span("store.load");
      mapped = flowcube::MappedCube::Load(file, db->schema_ptr(), plan, mopts)
                   .value();
    }
    registry.Publish(mapped->shared_cube(), mapped->live_records());
    ScopedSpan span("store.first_query");
    const QueryResponse resp =
        flowcube::QueryService::ExecuteOn(*registry.Acquire(), first);
    if (resp.code != flowcube::Status::Code::kOk) {
      result.errors.Add("cold-start query failed: " + resp.message);
    }
  }

  // Closed-loop clients. Client c walks the pool from its own offset.
  const uint64_t hits_before = CacheCounter("serve.cell_cache_hits");
  const uint64_t misses_before = CacheCounter("serve.cell_cache_misses");
  std::vector<std::vector<Sample>> per_client(kClients);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> connect_failed{false};
  double deadline = 0.0;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      flowcube::Result<flowcube::ServeClient> client =
          flowcube::ServeClient::Connect(server->port());
      if (!client.ok()) connect_failed = true;
      size_t cursor = static_cast<size_t>(c) * kPoolSize / kClients;
      uint64_t seq = 0;
      auto call = [&](Sample* sample) {
        const size_t index = cursor++ % kPoolSize;
        QueryRequest req = pool[index];
        req.request_id = (static_cast<uint64_t>(c + 1) << 32) | ++seq;
        const size_t type = TypeIndex(req.type);
        ScopedSpan span(kCallSpans[type], req.request_id);
        sample->span.start = Now();
        flowcube::Result<QueryResponse> resp =
            client.ok() ? client->Call(req)
                        : flowcube::Result<QueryResponse>(client.status());
        sample->span.end = Now();
        span.End();
        sample->pool_index = static_cast<uint32_t>(index);
        sample->ok = resp.ok() && resp->code == flowcube::Status::Code::kOk;
        if (!resp.ok()) return;
        sample->id_echoed = resp->request_id == req.request_id;
        sample->body_bytes = static_cast<uint32_t>(resp->body.size());
        sample->body_hash = BodyHash(resp->body);
      };
      Sample warm;
      for (size_t i = 0; i < kWarmupRequests; ++i) call(&warm);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      std::vector<Sample>& mine = per_client[static_cast<size_t>(c)];
      mine.reserve(1 << 16);
      while (Now() < deadline) {
        mine.emplace_back();
        call(&mine.back());
      }
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  result.e2e.setup_s = SecondsSinceStart();
  deadline = Now() + options.seconds;
  go.store(true);
  for (std::thread& t : clients) t.join();
  result.e2e.peak_rss_mb = PeakRssMb();
  SummarizeRequests(per_client, kPoolSize, &result);
  std::vector<Sample> all = std::move(per_client[0]);
  for (int c = 1; c < kClients; ++c) {
    all.insert(all.end(), per_client[c].begin(), per_client[c].end());
  }
  if (connect_failed) result.errors.Add("a client could not connect");

  if (Tracer::enabled()) {
    const double hits = static_cast<double>(
        CacheCounter("serve.cell_cache_hits") - hits_before);
    const double misses = static_cast<double>(
        CacheCounter("serve.cell_cache_misses") - misses_before);
    Tracer::Count("serve.cell_cache_hits", hits);
    Tracer::Count("serve.cell_cache_misses", misses);
    Tracer::Count("store.resident_bytes",
                  static_cast<double>(mapped->ResidentBytes()));
    for (const Sample& s : all) {
      const char* type = TypeName(pool[s.pool_index].type);
      Tracer::Count(std::string("serve.") + type + ".responses", 1);
      Tracer::Count(std::string("serve.") + type + ".response_bytes",
                    s.body_bytes);
    }
    // The same requests in process, and the response codec over them.
    std::vector<QueryResponse> responses;
    for (const QueryRequest& req : pool) {
      ScopedSpan span(kExecuteSpans[TypeIndex(req.type)]);
      responses.push_back(service.Execute(req));
    }
    std::vector<std::string> encoded;
    double bytes = 0.0;
    {
      ScopedSpan span("serve.encode");
      for (const QueryResponse& r : responses) {
        encoded.push_back(flowcube::EncodeResponse(r));
      }
    }
    for (const std::string& e : encoded) bytes += static_cast<double>(e.size());
    {
      ScopedSpan span("serve.decode");
      for (const std::string& e : encoded) {
        FC_CHECK(flowcube::DecodeResponse(e).ok());
      }
    }
    Tracer::Count("serve.codec_bytes", bytes);
  }
  server->Shutdown();
  server.reset();
  std::filesystem::remove(file);

  // Checks: every served body equals QueryService::ExecuteOn over a heap
  // cube that FlowCubeBuilder::Build makes from the same records, and the
  // answers agree with the brute-force counts.
  flowcube::Result<flowcube::FlowCube> reference =
      flowcube::FlowCubeBuilder(BuildOptions(min_support)).Build(*db, plan);
  if (!reference.ok()) {
    result.errors.Add("reference build failed");
    return result;
  }
  flowcube::CubeSnapshot snapshot;
  snapshot.epoch = 1;
  snapshot.records = kPaths;
  snapshot.cube =
      std::make_shared<const flowcube::FlowCube>(std::move(reference).value());
  const size_t checked = CheckAnswers(
      all, pool,
      [&](const QueryRequest& req) {
        return flowcube::QueryService::ExecuteOn(snapshot, req);
      },
      AnswerOracle(&truth, min_support), &result.errors);
  std::fprintf(stderr,
               "serve: %zu requests, %zu distinct checked, %zu cells\n",
               all.size(), checked, snapshot.cube->TotalCells());
  return result;
}

}  // namespace perfbench
