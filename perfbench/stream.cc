// Workload `stream`: an initial load, then fixed 100-record batches through
// IncrementalMaintainer::ApplyRecords, each published to a SnapshotRegistry
// and followed by a handful of in-process queries on the new epoch. The
// measure, mining and redundancy layers work one dirty cell at a time,
// with writes beside reads and the cell cache cold after every epoch.

#include <cstdio>
#include <memory>
#include <optional>

#include "bench.h"
#include "common/logging.h"
#include "serve/query_service.h"
#include "serve/snapshot_registry.h"
#include "stream/incremental_maintainer.h"
#include "trace.h"

namespace perfbench {
namespace {

using flowcube::QueryRequest;
using flowcube::QueryResponse;
using flowcube::RequestType;

constexpr size_t kInitialRecords = 2000;
constexpr size_t kBatchRecords = 100;
// The stream restarts from its initial load after this many batches, so a
// batch's cost does not grow with the length of the run, and each batch
// position (2,000 to 2,400 live records before it) repeats once a round.
// The timed phase holds whole rounds only (the deadline is checked between
// rounds). Five batches make a round about 4 s long, so a run times each
// position several times and keeps its fastest.
constexpr size_t kBatchesPerRound = 5;
// The warm-up is a throwaway round of this many batches.
constexpr size_t kWarmupBatches = 3;

// One pass over the stream: a fresh maintainer publishing into a fresh
// registry that a query service reads.
struct Round {
  flowcube::SnapshotRegistry registry;
  flowcube::QueryService service{&registry};
  std::optional<flowcube::IncrementalMaintainer> maintainer;
  size_t batches = 0;
};

std::unique_ptr<Round> StartRound(const flowcube::PathDatabase& db,
                                  const flowcube::FlowCubePlan& plan,
                                  uint32_t min_support) {
  auto round = std::make_unique<Round>();
  flowcube::IncrementalMaintainerOptions mopts;
  mopts.build = BuildOptions(min_support);
  round->maintainer.emplace(std::move(
      flowcube::IncrementalMaintainer::Create(db.schema_ptr(), plan, mopts)
          .value()));
  flowcube::AttachToRegistry(&*round->maintainer, &round->registry);
  ScopedSpan span("stream.initial_load");
  FC_CHECK(round->maintainer
               ->ApplyRecords(std::span<const flowcube::PathRecord>(
                   db.records().data(), kInitialRecords))
               .ok());
  return round;
}

// The queries after batch `b`, in order: the first one is the freshness
// probe (an ancestor lookup of a record of the batch, which every epoch
// answers); the similarity request is completed from its answer.
std::vector<QueryRequest> BatchQueries(const flowcube::PathSchema& schema,
                                       const flowcube::PathRecord& probe,
                                       size_t b) {
  const size_t dims = schema.num_dimensions();
  const std::vector<std::string> apex(dims, "*");
  std::vector<QueryRequest> q(5);
  q[0].type = RequestType::kCellOrAncestor;
  for (size_t d = 0; d < dims; ++d) {
    q[0].values.push_back(schema.dimensions[d].Name(probe.dims[d]));
  }
  q[1].type = RequestType::kPointLookup;
  q[1].values = apex;
  q[2].type = RequestType::kDrillDown;
  q[2].values = apex;
  q[2].dim = static_cast<uint32_t>(b % dims);
  q[3].type = RequestType::kSimilarity;
  q[3].values = apex;
  q[4].type = RequestType::kStats;
  for (size_t i = 0; i < q.size(); ++i) {
    if (q[i].type != RequestType::kStats) q[i].pl_index = (b + i) % 4;
    q[i].request_id = b * q.size() + i + 1;
  }
  q[3].pl_index = q[0].pl_index;
  return q;
}

}  // namespace

RunResult RunStream(const RunOptions& options) {
  RunResult result;
  std::optional<flowcube::PathDatabase> db;
  {
    ScopedSpan span("gen.generate");
    db.emplace(GenerateInputs(options.seed, 3,
                              kInitialRecords +
                                  kBatchesPerRound * kBatchRecords));
  }
  const std::span<const flowcube::PathRecord> records(db->records());
  const flowcube::FlowCubePlan plan =
      flowcube::FlowCubePlan::Default(db->schema()).value();
  const uint32_t min_support = static_cast<uint32_t>(kInitialRecords / 100);
  std::unique_ptr<Round> round = StartRound(*db, plan, min_support);

  // One batch: apply and publish, then the queries. Returns the freshness
  // in ms, or a negative value when an operation failed.
  auto run_batch = [&](OpSpan* op) -> double {
    const size_t b = round->batches++;
    const std::span<const flowcube::PathRecord> delta =
        records.subspan(kInitialRecords + b * kBatchRecords, kBatchRecords);
    const std::vector<QueryRequest> queries =
        BatchQueries(db->schema(), delta.front(), b);
    ScopedSpan batch_span("stream.batch");
    flowcube::ApplyStats stats;
    // AttachToRegistry publishes once per ApplyRecords, so the batch's
    // epoch is the one after this.
    const uint64_t before = round->registry.current_epoch();
    const int64_t apply_ns = Tracer::Now();
    op->start = Now();
    const flowcube::Status applied =
        round->maintainer->ApplyRecords(delta, &stats);
    const int64_t applied_ns = Tracer::Now();
    if (!applied.ok()) return -1.0;
    // ApplyStats::seconds covers the maintenance work; the remainder of the
    // call is the publish hook (clone plus SnapshotRegistry::Publish).
    const int64_t publish_ns =
        apply_ns + static_cast<int64_t>(stats.seconds * 1e9);
    Tracer::Record("stream.apply", apply_ns, publish_ns);
    Tracer::Record("stream.publish", publish_ns, applied_ns);
    Tracer::Count("stream.batches", 1);
    Tracer::Count("stream.cells_rebuilt",
                  static_cast<double>(stats.cells_rebuilt));
    Tracer::Count("stream.redundancy_updates",
                  static_cast<double>(stats.redundancy_updates));
    Tracer::Count("stream.cells_promoted",
                  static_cast<double>(stats.cells_promoted));
    Tracer::Count("stream.cells_demoted",
                  static_cast<double>(stats.cells_demoted));

    double fresh_ms = 0.0;
    std::string ancestor_name;
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryRequest req = queries[i];
      if (req.type == RequestType::kSimilarity) {
        req.values_b = ParseCellName(ancestor_name);
      }
      ScopedSpan span(i == 0 ? "stream.fresh_query" : "stream.query",
                      req.request_id);
      const QueryResponse resp = round->service.Execute(req);
      if (i == 0) fresh_ms = (Now() - op->start) * 1e3;
      span.End();
      if (resp.code != flowcube::Status::Code::kOk) return -1.0;
      CheckFreshEpoch(resp.epoch, before, "batch " + std::to_string(b),
                      &result.errors);
      if (i == 0) ancestor_name = AnsweredCellName(resp.body);
    }
    op->end = Now();
    return fresh_ms;
  };

  // Warm-up: a throwaway round, so that timing starts at batch 0 of a fresh
  // one.
  for (size_t i = 0; i < kWarmupBatches; ++i) {
    OpSpan warm;
    FC_CHECK(run_batch(&warm) >= 0.0);
  }
  round.reset();
  round = StartRound(*db, plan, min_support);
  result.e2e.setup_s = SecondsSinceStart();

  // Per batch position, the fastest freshness and the fastest whole batch
  // (apply, publication and the five queries).
  Fastest fresh(kBatchesPerRound);
  Fastest batch(kBatchesPerRound);
  std::vector<double> fresh_ms;
  const double deadline = Now() + options.seconds;
  while (true) {
    for (size_t b = 0; b < kBatchesPerRound; ++b) {
      ++result.attempted;
      OpSpan op;
      const double ms = run_batch(&op);
      if (ms < 0.0) {
        ++result.failed;
        continue;
      }
      fresh_ms.push_back(ms);
      fresh.Add(b, ms / 1e3);
      batch.Add(b, op.end - op.start);
    }
    if (result.e2e.cube_mb == 0.0) {
      // The cube after a whole round is the same in every run of a seed.
      result.e2e.cube_mb =
          static_cast<double>(round->maintainer->cube().MemoryUsage()) / 1e6;
      CountCube(round->maintainer->cube());
    }
    if (Now() >= deadline) break;
    round.reset();
    round = StartRound(*db, plan, min_support);
  }
  std::vector<double> best_fresh_ms;
  fresh.AppendMs(&best_fresh_ms);
  result.e2e.op_best_ms = Quantile(best_fresh_ms, 0.5);
  result.e2e.op_best_per_s = batch.Rate();
  result.e2e.peak_rss_mb = PeakRssMb();
  const flowcube::IncrementalMaintainer& maintainer = *round->maintainer;

  // Checks: the maintained cube equals a rebuild over the live records, and
  // its supports equal the brute-force count.
  const std::vector<flowcube::PathRecord> live = maintainer.LiveRecords();
  flowcube::PathDatabase live_db(db->schema_ptr());
  for (const flowcube::PathRecord& rec : live) {
    FC_CHECK(live_db.Append(rec).ok());
  }
  // The reference rebuild is also the yardstick of a full build: its phase
  // times and mining counts are the mining.* and flowcube.* metrics of the
  // traced run.
  ScopedSpan rebuild_span("stream.rebuild");
  flowcube::FlowCubeBuildStats rebuild_stats;
  const int64_t rebuild_ns = Tracer::Now();
  flowcube::Result<flowcube::FlowCube> rebuilt =
      flowcube::FlowCubeBuilder(BuildOptions(min_support))
          .Build(live_db, plan, &rebuild_stats);
  TraceBuildStats(rebuild_stats, rebuild_ns);
  rebuild_span.End();
  if (!rebuilt.ok()) {
    result.errors.Add("reference rebuild failed: " +
                      rebuilt.status().ToString());
    return result;
  }
  CheckDumpsEqual(maintainer.cube(), rebuilt.value(), &result.errors);
  // What readers see: the last published snapshot holds the same cube.
  CheckDumpsEqual(*round->registry.Acquire()->cube, rebuilt.value(),
                  &result.errors);
  const BruteForceSupports truth(db->schema(), plan, live);
  CheckCellSupports(maintainer.cube(), truth, min_support, &result.errors);
  std::fprintf(stderr,
               "stream: %zu timed batches (median freshness %.1f ms), %zu "
               "live records\n",
               fresh_ms.size(), Quantile(fresh_ms, 0.5), live.size());
  return result;
}

}  // namespace perfbench
