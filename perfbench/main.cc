// perfbench: runs one benchmark workload and prints its result as one JSON
// line (the last line of standard output).
//
//   perfbench --workload build|stream|serve|sharded --seed N --seconds S
//             --trace 0|1 [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans and
// counters around the public calls, writes them to
// DIR/trace-<workload>-<seed>.json and prints the per-layer metrics.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "trace.h"

namespace {

using perfbench::Metric;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload build|stream|serve|sharded "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
  return 2;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || options.seconds <= 0.0) return Usage();

  perfbench::RunResult (*run)(const perfbench::RunOptions&) = nullptr;
  if (options.workload == "build") run = perfbench::RunBuild;
  if (options.workload == "stream") run = perfbench::RunStream;
  if (options.workload == "serve") run = perfbench::RunServe;
  if (options.workload == "sharded") run = perfbench::RunSharded;
  if (run == nullptr) return Usage();

  if (options.trace) perfbench::Tracer::Enable();
  const perfbench::RunResult result = run(options);
  for (const std::string& message : result.errors.messages()) {
    std::fprintf(stderr, "check failed: %s\n", message.c_str());
  }
  if (result.errors.count() > result.errors.messages().size()) {
    std::fprintf(stderr, "... %zu check failures in all\n",
                 result.errors.count());
  }

  std::vector<Metric> metrics = perfbench::EndToEndMetrics(result.e2e);
  if (options.trace) {
    // The traced run's own end-to-end figures, kept beside the spans so the
    // tracing overhead can be read off against an untraced run.
    for (const Metric& m : metrics) {
      perfbench::Tracer::Count("e2e." + m.name, m.value);
    }
    const std::string path = options.work_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    if (!perfbench::Tracer::WriteJson(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace written to %s\n", path.c_str());
    metrics = perfbench::PerLayerMetrics();
  }
  PrintResult(result.errors.ok(), result.attempted, result.failed, metrics);
  return 0;
}
