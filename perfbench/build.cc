// Workload `build`: FlowCubeBuilder::Build over one generated path database,
// repeated for the whole run on one thread. Mining, the measure phase and
// redundancy do the work; serving, streaming and sharding do none.

#include <cstdio>
#include <optional>

#include "bench.h"
#include "common/logging.h"
#include "trace.h"

namespace perfbench {
namespace {

// 8k paths at δ = 1% find exceptions and redundant cells (the checks
// require both) and take about 0.9 s per build on one 2.1 GHz core, so a
// run's fastest build is the best of a few dozen.
constexpr size_t kPaths = 8000;

}  // namespace

RunResult RunBuild(const RunOptions& options) {
  RunResult result;
  std::optional<flowcube::PathDatabase> db;
  {
    ScopedSpan span("gen.generate");
    db.emplace(GenerateInputs(options.seed, 3, kPaths));
  }
  const flowcube::FlowCubePlan plan =
      flowcube::FlowCubePlan::Default(db->schema()).value();
  const uint32_t min_support = static_cast<uint32_t>(kPaths / 100);
  const flowcube::FlowCubeBuilder builder(BuildOptions(min_support));

  // Warm-up: one untimed build, so the timed ones reuse the allocator's
  // memory instead of faulting it in.
  FC_CHECK(builder.Build(*db, plan).ok());
  result.e2e.setup_s = SecondsSinceStart();

  std::vector<double> build_ms;
  Fastest fastest(1);
  std::optional<flowcube::FlowCube> cube;
  const double deadline = Now() + options.seconds;
  while (Now() < deadline) {
    cube.reset();
    flowcube::FlowCubeBuildStats stats;
    ScopedSpan span("flowcube.build");
    const int64_t start_ns = Tracer::Now();
    const double t0 = Now();
    flowcube::Result<flowcube::FlowCube> built =
        builder.Build(*db, plan, &stats);
    const double t1 = Now();
    TraceBuildStats(stats, start_ns);
    span.End();
    ++result.attempted;
    if (!built.ok()) {
      ++result.failed;
      continue;
    }
    build_ms.push_back((t1 - t0) * 1e3);
    fastest.Add(0, t1 - t0);
    cube.emplace(std::move(built).value());
  }
  std::vector<double> best_ms;
  fastest.AppendMs(&best_ms);
  result.e2e.op_best_ms = Quantile(best_ms, 0.5);
  result.e2e.op_best_per_s = fastest.Rate();
  result.e2e.peak_rss_mb = PeakRssMb();
  if (!cube) {
    result.errors.Add("no build succeeded");
    return result;
  }
  result.e2e.cube_mb = static_cast<double>(cube->MemoryUsage()) / 1e6;
  CountCube(*cube);

  const BruteForceSupports truth(db->schema(), plan, db->records());
  CheckCellSupports(*cube, truth, min_support, &result.errors);
  CheckConservation(*cube, &result.errors);
  const size_t merges = CheckLemma42(*cube, &result.errors);
  if (merges == 0) result.errors.Add("MergeChildren never succeeded");
  CheckMethodOutputs(*cube, &result.errors);
  std::fprintf(stderr,
               "build: %zu builds (median %.1f ms), %zu cells (%zu "
               "redundant), %zu merges checked\n",
               build_ms.size(), Quantile(build_ms, 0.5), cube->TotalCells(),
               cube->RedundantCells(), merges);
  return result;
}

}  // namespace perfbench
