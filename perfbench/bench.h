#ifndef FLOWCUBE_PERFBENCH_BENCH_H_
#define FLOWCUBE_PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "checks.h"
#include "flowcube/builder.h"
#include "path/path_database.h"
#include "serve/protocol.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  // Directory for the files a run writes (the serve workload's checkpoint,
  // the traced run's span dump). Removed files stay inside it.
  std::string work_dir = ".";
};

// The end-to-end metrics. Every workload reports all of them; what one
// "operation" is depends on the workload (README.md has the table).
struct EndToEnd {
  double setup_s = 0.0;
  double op_best_ms = 0.0;
  double op_best_per_s = 0.0;
  double peak_rss_mb = 0.0;
  double cube_mb = 0.0;
};

struct RunResult {
  EndToEnd e2e;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Errors errors;
};

RunResult RunBuild(const RunOptions& options);
RunResult RunStream(const RunOptions& options);
RunResult RunServe(const RunOptions& options);
RunResult RunSharded(const RunOptions& options);

// --- Shared by the workloads ---------------------------------------------

// Seconds since the process started (taken during static initialization).
double SecondsSinceStart();

// High-water resident set size of the process so far, in MB.
double PeakRssMb();

// Monotonic seconds.
double Now();

// The q-quantile (0..1) of `values` by nearest rank; 0 when empty.
double Quantile(std::vector<double> values, double q);

// One timed operation: start and end, in Now() seconds.
struct OpSpan {
  double start = 0.0;
  double end = 0.0;
};

// One timed request of `serve` or `sharded`: its pool entry, outcome and
// timing, and a hash of its body (the timed phase keeps no bodies).
struct Sample {
  uint32_t pool_index = 0;
  bool ok = false;
  bool id_echoed = false;
  uint32_t body_bytes = 0;
  OpSpan span;
  uint64_t body_hash = 0;
};

// The fastest time of each distinct operation of one caller. A run repeats
// the same operations (the build, a stream batch position, a request of the
// pool) and times every repeat. The host's other tenants only ever add time:
// on the 4-vCPU machine measured, memory-bound code ran up to 1.8 times
// slower in phases of seconds to minutes. An operation's fastest repeat is
// its cost with the least of that added, which is what a change to the
// program moves; a mean or median over repeats also counts how much of the
// run fell in a slow phase.
class Fastest {
 public:
  explicit Fastest(size_t operations);
  void Add(size_t operation, double seconds);
  // Appends the fastest time, in ms, of every operation timed at least once.
  void AppendMs(std::vector<double>* out) const;
  // Operations per second at each one's fastest: the number of operations
  // timed divided by the sum of their fastest times.
  double Rate() const;

 private:
  std::vector<double> best_s_;
};

// Counts the attempted and failed requests of every caller (one closed-loop
// connection each, sending the `pool_size` requests of the pool over and
// over), sets op_best_ms to the median over every caller's pool requests of
// each one's fastest answered repeat, and op_best_per_s to the sum over
// callers of their Fastest::Rate.
void SummarizeRequests(const std::vector<std::vector<Sample>>& per_caller,
                       size_t pool_size, RunResult* result);

// Checks every answered sample: its request id was echoed and its body
// equals `reference`'s answer to the same pool request. Each distinct
// reference answer also passes `oracle`; for a similarity request, the
// reference answer is symmetric and the first cell's distance to itself
// passes `oracle` (it is 0). Returns the number of distinct requests
// checked.
size_t CheckAnswers(
    const std::vector<Sample>& samples,
    const std::vector<flowcube::QueryRequest>& pool,
    const std::function<flowcube::QueryResponse(const flowcube::QueryRequest&)>&
        reference,
    const AnswerOracle& oracle, Errors* errors);

// The records of a run: `n` records drawn without replacement, in seeded
// order, from 2n that the §6.1 generator makes with `dims` dimensions,
// {3,3,4} values per level, 100 location sequences, 15 durations and
// Zipf 0.5 everywhere. The generator itself runs from a fixed seed, so the
// hierarchies and location sequences (the shape of the data) are the same
// on every run and `seed` chooses which records, and in which order.
flowcube::PathDatabase GenerateInputs(uint64_t seed, int dims, size_t n);

// Construction options of every build: the defaults (exceptions and
// redundancy on) with the iceberg threshold `min_support` and one thread.
flowcube::FlowCubeBuilderOptions BuildOptions(uint32_t min_support);

// Request types in the order the per-type metrics use.
inline constexpr flowcube::RequestType kPublicTypes[] = {
    flowcube::RequestType::kPointLookup, flowcube::RequestType::kCellOrAncestor,
    flowcube::RequestType::kDrillDown, flowcube::RequestType::kSimilarity,
    flowcube::RequestType::kStats};
// "point", "ancestor", "drilldown", "similarity", "stats".
const char* TypeName(flowcube::RequestType type);
size_t TypeIndex(flowcube::RequestType type);

// A seeded mix of the five public requests over the cells the records
// produce at threshold `min_support`: point lookups and drill-downs drawn
// with Zipf 0.5 skew (ranked by support) from those cells at every path
// level, ancestor lookups from records' leaf coordinates, similarity between
// two cells of one cuboid, and kStats. The types take turns in the order of
// kPublicTypes; `count` must be a multiple of five.
std::vector<flowcube::QueryRequest> RequestPool(
    const BruteForceSupports& truth, const flowcube::FlowCubePlan& plan,
    std::span<const flowcube::PathRecord> records, uint32_t min_support,
    size_t count, uint64_t seed);

// Records the method's outputs of `cube` as counters of the traced run.
void CountCube(const flowcube::FlowCube& cube);

// Records a Build's phase times as child spans of the span open on the
// calling thread, laid end to end from `start_ns`, and its counts as
// counters.
void TraceBuildStats(const flowcube::FlowCubeBuildStats& stats,
                     int64_t start_ns);

// The per-layer metrics, derived from the traced run's spans and counters.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};
std::vector<Metric> PerLayerMetrics();
std::vector<Metric> EndToEndMetrics(const EndToEnd& e2e);

}  // namespace perfbench

#endif  // FLOWCUBE_PERFBENCH_BENCH_H_
