// Figure 6: runtime of Shared / Cubing / Basic vs database size
// (100k..1M paths at scale 1; delta = 1%, d = 5).
//
// Paper shape: shared and cubing close on small inputs, shared's slope
// smaller; basic only runnable on the two smallest sizes.
//
// Beside the miner rows, one full-build row (algo "build"): the whole
// FlowCubeBuilder::Build — transform, Shared mining, cell measures,
// redundancy — at the d=3 baseline shape, 100k paths at scale 1, delta =
// 1%, one thread, fastest of three builds, with the phase split and the
// materialized counts.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace {

using namespace flowcube;
using namespace flowcube::bench;

Summary& GetSummary() {
  static Summary summary(
      "fig6_db_size", "database size (paths)",
      "Figure 6 - runtime vs database size (delta=1%, d=5)",
      "shared <= cubing with a smaller slope; basic explodes beyond the "
      "two smallest sizes");
  return summary;
}

DbCache& Cache() {
  static DbCache cache;
  return cache;
}

void RegisterAll() {
  const std::vector<int> sizes = {100, 200, 400, 700, 1000};
  for (size_t i = 0; i < sizes.size(); ++i) {
    const size_t n = ScaledN(sizes[i]);
    const uint32_t minsup = std::max<uint32_t>(1, static_cast<uint32_t>(n / 100));
    const std::string x = std::to_string(n) + " paths";

    struct Algo {
      const char* name;
      MinerRun (*fn)(const PathDatabase&, uint32_t);
      bool enabled;
      const char* note;
    };
    const bool basic_ok = i < 2 || ForceBasic();
    const Algo algos[] = {
        {"shared", &RunShared, true, ""},
        {"cubing", &RunCubing, true, ""},
        {"basic", &RunBasic, basic_ok,
         "skipped: candidate explosion (paper: basic only ran at the two "
         "smallest sizes); set FLOWCUBE_BENCH_BASIC=1"},
    };
    for (const Algo& algo : algos) {
      if (!algo.enabled) {
        GetSummary().Add(Row{x, algo.name, false, MinerRun{}, algo.note});
        continue;
      }
      const std::string bench_name =
          std::string("fig6/") + algo.name + "/N=" + std::to_string(n);
      benchmark::RegisterBenchmark(
          bench_name.c_str(),
          [n, minsup, x, algo](benchmark::State& state) {
            const PathDatabase& db = Cache().Get(BaselineConfig(), n);
            for (auto _ : state) {
              const MinerRun run = algo.fn(db, minsup);
              state.SetIterationTime(run.seconds);
              state.counters["candidates"] =
                  static_cast<double>(run.candidates);
              state.counters["frequent"] = static_cast<double>(run.frequent);
              GetSummary().Add(Row{x, algo.name, true, run, ""});
            }
          })
          ->UseManualTime()
          ->Iterations(1)
          ->Unit(benchmark::kSecond);
    }
  }

  const size_t n = ScaledN(100);
  const uint32_t minsup = std::max<uint32_t>(1, static_cast<uint32_t>(n / 100));
  const std::string bench_name = "fig6/build/N=" + std::to_string(n);
  benchmark::RegisterBenchmark(
      bench_name.c_str(),
      [n, minsup](benchmark::State& state) {
        const PathDatabase& db = Cache().Get(BaselineConfig(3), n);
        for (auto _ : state) {
          const BuildRun run = RunBuild(db, minsup);
          state.SetIterationTime(run.seconds);
          state.counters["cells"] = static_cast<double>(run.cells);
          GetSummary().AddBuild(std::to_string(n) + " paths",
                                "d=3, 1 thread, fastest of 3 builds", run);
        }
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kSecond);
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  // Strip --metrics[=fmt] before the benchmark library parses flags.
  flowcube::ConsumeMetricsFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  GetSummary().Print();
  flowcube::DumpMetricsIfEnabled(stdout);
  return 0;
}
