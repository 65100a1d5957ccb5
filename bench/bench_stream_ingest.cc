// Streaming benchmark (no paper figure — the streaming subsystem is ours):
// sweeps the micro-batch size and reports (a) raw-reading ingest throughput
// through the StreamIngestor pipeline and (b) the speedup of incremental
// FlowCube maintenance over rebuilding from scratch after every batch.
// The stream/steady rows (c) time single batches on a large live cube,
// with exceptions on and off.
//
// Expected shape: ingest throughput is roughly flat in batch size (the
// cleaner dominates); the incremental-vs-rebuild speedup grows as batches
// shrink, because a rebuild re-pays the whole transform/mine/measure
// pipeline per batch while Apply() only touches dirty cells.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/logging.h"
#include "flowcube/builder.h"
#include "rfid/reader_simulator.h"
#include "stream/incremental_maintainer.h"
#include "stream/stream_ingestor.h"

namespace {

using namespace flowcube;
using namespace flowcube::bench;

constexpr int64_t kBinSeconds = 3600;

BenchJson& Json() {
  static BenchJson json("stream_ingest", "records per micro-batch");
  return json;
}

DbCache& Cache() {
  static DbCache cache;
  return cache;
}

// The streaming workload: the baseline generator at 2 dimensions (streams
// track individual items, so the cell space is kept small enough that
// per-batch rebuilds stay feasible at smoke scale).
const PathDatabase& Db(size_t n) {
  return Cache().Get(BaselineConfig(/*num_dimensions=*/2), n);
}

// Splits the time-sorted reading stream into `num_batches` contiguous
// batches, mirroring a reader that uploads on a fixed cadence.
std::vector<std::vector<RawReading>> SplitReadings(
    const std::vector<RawReading>& stream, size_t num_batches) {
  std::vector<std::vector<RawReading>> batches(std::max<size_t>(1, num_batches));
  const size_t per = (stream.size() + batches.size() - 1) / batches.size();
  for (size_t i = 0; i < stream.size(); ++i) {
    batches[std::min(i / std::max<size_t>(1, per), batches.size() - 1)]
        .push_back(stream[i]);
  }
  return batches;
}

// (a) End-to-end ingest: push every raw batch through the StreamIngestor
// (worker thread cleans + discretizes + emits deltas) while a consumer
// drains the delta queue. Returns seconds and the records emitted.
struct IngestRun {
  double seconds = 0.0;
  size_t readings = 0;
  size_t records_out = 0;
};

IngestRun RunIngest(const PathDatabase& db, size_t num_batches) {
  const std::vector<Itinerary> truth =
      PathGenerator::ToItineraries(db, kBinSeconds);
  ReaderSimulator simulator(ReaderSimulatorOptions{}, /*seed=*/17);
  const std::vector<RawReading> stream = simulator.Simulate(truth);

  StreamIngestorOptions options;
  options.bin_seconds = kBinSeconds;
  options.close_after_seconds = 4 * kBinSeconds;
  StreamIngestor ingestor(db.schema_ptr(), options);
  for (size_t i = 0; i < db.size(); ++i) {
    FC_CHECK(ingestor.RegisterItem(static_cast<EpcId>(i + 1),
                                   db.record(i).dims)
                 .ok());
  }

  IngestRun run;
  run.readings = stream.size();
  size_t records_out = 0;
  TraceSpan span("bench.stream.ingest");
  std::thread consumer([&ingestor, &records_out] {
    while (std::optional<StreamDelta> delta = ingestor.Pop()) {
      records_out += delta->records.size();
    }
  });
  for (auto& batch : SplitReadings(stream, num_batches)) {
    FC_CHECK(ingestor.Push(std::move(batch)).ok());
  }
  ingestor.Close();
  consumer.join();
  run.seconds = span.Stop();
  run.records_out = records_out;
  return run;
}

// (b) Incremental maintenance vs from-scratch rebuilds: apply the path
// records in micro-batches of `batch` records through the
// IncrementalMaintainer, then time rebuilding the cube from scratch after
// every batch (what a system without incremental maintenance would do).
struct MaintainRun {
  double incremental_seconds = 0.0;
  double rebuild_seconds = 0.0;
  size_t num_batches = 0;
  size_t cells_rebuilt = 0;
};

MaintainRun RunMaintain(const PathDatabase& db, size_t batch,
                        uint32_t minsup) {
  const FlowCubePlan plan = FlowCubePlan::Default(db.schema()).value();
  IncrementalMaintainerOptions options;
  options.build.min_support = minsup;

  MaintainRun run;
  {
    IncrementalMaintainer maintainer =
        std::move(IncrementalMaintainer::Create(db.schema_ptr(), plan, options)
                      .value());
    TraceSpan span("bench.stream.incremental");
    for (size_t offset = 0; offset < db.size(); offset += batch) {
      ApplyStats stats;
      FC_CHECK(maintainer
                   .ApplyRecords(
                       std::span<const PathRecord>(db.records())
                           .subspan(offset, std::min(batch, db.size() - offset)),
                       &stats)
                   .ok());
      run.cells_rebuilt += stats.cells_rebuilt;
      run.num_batches++;
    }
    run.incremental_seconds = span.Stop();
  }
  {
    const FlowCubeBuilder builder(options.build);
    PathDatabase prefix(db.schema_ptr());
    TraceSpan span("bench.stream.rebuild");
    for (size_t offset = 0; offset < db.size(); offset += batch) {
      const size_t take = std::min(batch, db.size() - offset);
      for (size_t i = 0; i < take; ++i) {
        FC_CHECK(prefix.Append(db.record(offset + i)).ok());
      }
      benchmark::DoNotOptimize(builder.Build(prefix, plan).value());
    }
    run.rebuild_seconds = span.Stop();
  }
  return run;
}

// (c) Steady state: ScaledN(20) records loaded through the maintainer,
// then kSteadyBatches batches of max(1, N/200) records (100 at scale 1).
// d=3 with {3,3,4} hierarchies, delta = max(2, N/100), redundancy on, one
// thread. Reports the fastest batch with its two cell stages, the median
// batch, the initial load, one from-scratch rebuild over every record, and
// the maintained cube's exact counts.
constexpr size_t kSteadyBatches = 5;

struct SteadyRun {
  ApplyStats fastest;
  double median_seconds = 0.0;
  double load_seconds = 0.0;
  double rebuild_seconds = 0.0;
  size_t cells = 0;
  size_t redundant = 0;
  size_t exceptions = 0;
};

SteadyRun RunSteady(const PathDatabase& db, size_t initial, size_t batch,
                    const FlowCubeBuilderOptions& build) {
  const FlowCubePlan plan = FlowCubePlan::Default(db.schema()).value();
  IncrementalMaintainerOptions options;
  options.build = build;
  IncrementalMaintainer maintainer = std::move(
      IncrementalMaintainer::Create(db.schema_ptr(), plan, options).value());
  const std::span<const PathRecord> records(db.records());
  SteadyRun run;
  ApplyStats stats;
  FC_CHECK(maintainer.ApplyRecords(records.subspan(0, initial), &stats).ok());
  run.load_seconds = stats.seconds;
  std::vector<double> seconds;
  for (size_t b = 0; b < kSteadyBatches; ++b) {
    FC_CHECK(maintainer
                 .ApplyRecords(records.subspan(initial + b * batch, batch),
                               &stats)
                 .ok());
    if (seconds.empty() || stats.seconds < run.fastest.seconds) {
      run.fastest = stats;
    }
    seconds.push_back(stats.seconds);
  }
  std::sort(seconds.begin(), seconds.end());
  run.median_seconds = seconds[seconds.size() / 2];
  maintainer.cube().ForEachCuboid([&run](const Cuboid& cuboid) {
    cuboid.ForEach([&run](const FlowCell& cell) {
      run.cells++;
      if (cell.redundant) run.redundant++;
      run.exceptions += cell.graph.exceptions().size();
    });
  });

  TraceSpan span("bench.stream.steady_rebuild");
  benchmark::DoNotOptimize(FlowCubeBuilder(build).Build(db, plan).value());
  run.rebuild_seconds = span.Stop();
  return run;
}

void RegisterSteady() {
  const size_t n = ScaledN(20);
  const size_t batch = std::max<size_t>(1, n / 200);
  GeneratorConfig cfg = BaselineConfig(/*num_dimensions=*/3);
  cfg.dim_distinct_per_level = {3, 3, 4};
  FlowCubeBuilderOptions build;
  build.min_support = std::max<uint32_t>(2, static_cast<uint32_t>(n / 100));
  build.num_threads = 1;
  build.mining.num_threads = 1;
  for (const bool exceptions : {true, false}) {
    const std::string mode = exceptions ? "exceptions on" : "exceptions off";
    const std::string bench_name =
        std::string("stream/steady/exceptions=") + (exceptions ? "on" : "off");
    build.compute_exceptions = exceptions;
    benchmark::RegisterBenchmark(
        bench_name.c_str(),
        [n, batch, cfg, build, mode](benchmark::State& state) {
          const PathDatabase& db = Cache().Get(cfg, n + kSteadyBatches * batch);
          for (auto _ : state) {
            const SteadyRun run = RunSteady(db, n, batch, build);
            state.SetIterationTime(run.fastest.seconds);
            state.counters["rebuild_over_batch"] =
                run.fastest.seconds > 0
                    ? run.rebuild_seconds / run.fastest.seconds
                    : 0.0;
            Json().AddRow(
                {JsonField::Str("x", std::to_string(n) + " live records"),
                 JsonField::Str("mode", mode),
                 JsonField::Int("live_records", n),
                 JsonField::Int("batch_records", batch),
                 JsonField::Int("batches", kSteadyBatches),
                 JsonField::Int("min_support", build.min_support),
                 JsonField::Int("threads",
                                static_cast<uint64_t>(build.num_threads)),
                 JsonField::Num("seconds", run.fastest.seconds),
                 JsonField::Num("seconds_cells", run.fastest.seconds_cells),
                 JsonField::Num("seconds_redundancy",
                                run.fastest.seconds_redundancy),
                 JsonField::Num("seconds_median", run.median_seconds),
                 JsonField::Num("seconds_setup", run.load_seconds),
                 JsonField::Num("rebuild_seconds", run.rebuild_seconds),
                 JsonField::Int("cells", run.cells),
                 JsonField::Int("redundant", run.redundant),
                 JsonField::Int("exceptions", run.exceptions)});
          }
        })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kSecond);
  }
}

void RegisterAll() {
  const size_t n = std::max<size_t>(32, ScaledN(20));
  const uint32_t minsup =
      std::max<uint32_t>(2, static_cast<uint32_t>(n / 100));
  // Batch sizes as fractions of the stream so the rebuild baseline stays
  // bounded (at most 64 from-scratch builds per row).
  const size_t fractions[] = {64, 16, 4, 1};
  for (const size_t frac : fractions) {
    const size_t batch = std::max<size_t>(1, n / frac);
    const std::string bench_name =
        "stream/batch=" + std::to_string(batch);
    benchmark::RegisterBenchmark(
        bench_name.c_str(),
        [n, batch, minsup](benchmark::State& state) {
          const PathDatabase& db = Db(n);
          for (auto _ : state) {
            const IngestRun ingest = RunIngest(db, (n + batch - 1) / batch);
            const MaintainRun maintain = RunMaintain(db, batch, minsup);
            state.SetIterationTime(ingest.seconds +
                                   maintain.incremental_seconds);
            state.counters["readings_per_sec"] =
                ingest.seconds > 0
                    ? static_cast<double>(ingest.readings) / ingest.seconds
                    : 0.0;
            state.counters["speedup"] =
                maintain.incremental_seconds > 0
                    ? maintain.rebuild_seconds / maintain.incremental_seconds
                    : 0.0;
            Json().AddRow(
                {JsonField::Str("x", std::to_string(batch) + " records"),
                 JsonField::Int("batch_records", batch),
                 JsonField::Int("stream_records", n),
                 JsonField::Int("readings", ingest.readings),
                 JsonField::Int("records_out", ingest.records_out),
                 JsonField::Num("ingest_seconds", ingest.seconds),
                 JsonField::Num("readings_per_second",
                                ingest.seconds > 0
                                    ? static_cast<double>(ingest.readings) /
                                          ingest.seconds
                                    : 0.0),
                 JsonField::Int("batches", maintain.num_batches),
                 JsonField::Int("cells_rebuilt", maintain.cells_rebuilt),
                 JsonField::Num("incremental_seconds",
                                maintain.incremental_seconds),
                 JsonField::Num("rebuild_seconds", maintain.rebuild_seconds),
                 JsonField::Num("speedup",
                                maintain.incremental_seconds > 0
                                    ? maintain.rebuild_seconds /
                                          maintain.incremental_seconds
                                    : 0.0)});
          }
        })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kSecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  RegisterSteady();
  flowcube::ConsumeMetricsFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  Json().Write();
  flowcube::DumpMetricsIfEnabled(stdout);
  return 0;
}
