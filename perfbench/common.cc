#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "bench.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/zipf.h"
#include "gen/path_generator.h"
#include "trace.h"

namespace perfbench {

using flowcube::QueryRequest;
using flowcube::RequestType;

namespace {

const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

// Skew of the request pool's cell popularity: the generator's Zipf
// exponent, the only skew the workload shape names.
constexpr double kZipfAlpha = 0.5;

// One materialized cell of the request pool.
struct PoolCell {
  uint32_t support = 0;
  size_t il = 0;
  std::vector<std::string> values;
};

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

double SecondsSinceStart() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

Fastest::Fastest(size_t operations)
    : best_s_(operations, std::numeric_limits<double>::infinity()) {}

void Fastest::Add(size_t operation, double seconds) {
  best_s_[operation] = std::min(best_s_[operation], seconds);
}

void Fastest::AppendMs(std::vector<double>* out) const {
  for (double s : best_s_) {
    if (std::isfinite(s)) out->push_back(s * 1e3);
  }
}

double Fastest::Rate() const {
  double timed = 0.0;
  double busy = 0.0;
  for (double s : best_s_) {
    if (!std::isfinite(s)) continue;
    timed += 1.0;
    busy += s;
  }
  return busy > 0.0 ? timed / busy : 0.0;
}

void SummarizeRequests(const std::vector<std::vector<Sample>>& per_caller,
                       size_t pool_size, RunResult* result) {
  std::vector<double> best_ms;
  for (const std::vector<Sample>& samples : per_caller) {
    Fastest fastest(pool_size);
    for (const Sample& s : samples) {
      ++result->attempted;
      if (!s.ok) {
        ++result->failed;
        continue;
      }
      fastest.Add(s.pool_index, s.span.end - s.span.start);
    }
    fastest.AppendMs(&best_ms);
    result->e2e.op_best_per_s += fastest.Rate();
  }
  result->e2e.op_best_ms = Quantile(best_ms, 0.5);
}

size_t CheckAnswers(
    const std::vector<Sample>& samples, const std::vector<QueryRequest>& pool,
    const std::function<flowcube::QueryResponse(const QueryRequest&)>&
        reference,
    const AnswerOracle& oracle, Errors* errors) {
  std::vector<std::optional<uint64_t>> want(pool.size());
  size_t checked = 0;
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    if (!s.id_echoed) errors->Add("a response did not echo its request id");
    std::optional<uint64_t>& hash = want[s.pool_index];
    if (!hash) {
      const QueryRequest& req = pool[s.pool_index];
      const flowcube::QueryResponse ref = reference(req);
      oracle.Check(req, ref, errors);
      if (req.type == RequestType::kSimilarity) {
        QueryRequest swapped = req;
        std::swap(swapped.values, swapped.values_b);
        CheckSymmetric(ref.body, reference(swapped).body, errors);
        QueryRequest self = req;
        self.values_b = self.values;
        oracle.Check(self, reference(self), errors);
      }
      hash = BodyHash(ref.body);
      ++checked;
    }
    CheckSameBody(s.body_hash, *hash,
                  "pool request " + std::to_string(s.pool_index), errors);
  }
  return checked;
}

flowcube::PathDatabase GenerateInputs(uint64_t seed, int dims, size_t n) {
  flowcube::GeneratorConfig cfg;
  cfg.num_dimensions = dims;
  cfg.dim_distinct_per_level = {3, 3, 4};
  cfg.num_sequences = 100;
  cfg.num_distinct_durations = 15;
  cfg.dim_zipf_alpha = 0.5;
  cfg.location_zipf_alpha = 0.5;
  cfg.sequence_zipf_alpha = 0.5;
  cfg.duration_zipf_alpha = 0.5;
  cfg.seed = 20060912;
  const flowcube::PathDatabase all =
      flowcube::PathGenerator(cfg).Generate(2 * n);
  std::vector<uint32_t> order(all.size());
  std::iota(order.begin(), order.end(), 0u);
  flowcube::Random rng(SplitMix(seed));
  flowcube::PathDatabase db(all.schema_ptr());
  for (size_t i = 0; i < n; ++i) {
    std::swap(order[i], order[i + rng.Uniform(order.size() - i)]);
    FC_CHECK(db.Append(all.record(order[i])).ok());
  }
  return db;
}

flowcube::FlowCubeBuilderOptions BuildOptions(uint32_t min_support) {
  flowcube::FlowCubeBuilderOptions options;
  options.min_support = min_support;
  options.num_threads = 1;
  options.mining.num_threads = 1;
  return options;
}

const char* TypeName(RequestType type) {
  switch (type) {
    case RequestType::kPointLookup:
      return "point";
    case RequestType::kCellOrAncestor:
      return "ancestor";
    case RequestType::kDrillDown:
      return "drilldown";
    case RequestType::kSimilarity:
      return "similarity";
    case RequestType::kStats:
      return "stats";
    default:
      return "internal";
  }
}

size_t TypeIndex(RequestType type) {
  for (size_t i = 0; i < std::size(kPublicTypes); ++i) {
    if (kPublicTypes[i] == type) return i;
  }
  return std::size(kPublicTypes);
}

std::vector<QueryRequest> RequestPool(
    const BruteForceSupports& truth, const flowcube::FlowCubePlan& plan,
    std::span<const flowcube::PathRecord> records, uint32_t min_support,
    size_t count, uint64_t seed) {
  const flowcube::PathSchema& schema = truth.schema();
  const size_t dims = schema.num_dimensions();
  std::vector<PoolCell> cells;
  for (size_t il = 0; il < truth.num_item_levels(); ++il) {
    for (const auto& [key, support] : truth.level(il)) {
      if (support < min_support) continue;
      PoolCell cell{support, il, {}};
      for (size_t d = 0; d < dims; ++d) {
        cell.values.push_back(schema.dimensions[d].Name(key[d]));
      }
      cells.push_back(std::move(cell));
    }
  }
  // Popular cells are the large ones: rank by support, so that the skew
  // falls the same way on every seed.
  std::stable_sort(cells.begin(), cells.end(),
                   [](const PoolCell& a, const PoolCell& b) {
                     return a.support > b.support;
                   });
  std::vector<std::vector<size_t>> cells_of_level(truth.num_item_levels());
  std::vector<double> cdf(cells.size());
  double total = 0.0;
  for (size_t i = 0; i < cells.size(); ++i) {
    cells_of_level[cells[i].il].push_back(i);
    total += std::pow(static_cast<double>(i + 1), -kZipfAlpha);
    cdf[i] = total;
  }
  flowcube::Random rng(SplitMix(seed ^ 0x5eedf00dull));
  // Draws are stratified: the i-th of n draws of a kind comes from the i-th
  // n-quantile of its distribution. Every pool then holds nearly the same
  // multiset of cells, types and path levels, and the seed changes which
  // records, peers and order; iid draws of the few very large cells (an
  // apex drill-down costs tens of times a point lookup) made the pool's
  // mean cost differ by 20% from seed to seed.
  auto zipf_cell = [&](size_t i, size_t n) -> const PoolCell& {
    const double u =
        (static_cast<double>(i) + rng.NextDouble()) / static_cast<double>(n);
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u * total) - cdf.begin());
    return cells[std::min(rank, cells.size() - 1)];
  };
  const uint64_t num_pl = plan.path_levels.size();

  // Equal shares of the five types, taken in turn as bench_serve's mix
  // does, so that every stretch of the pool holds the same mix; the
  // per-type metrics of the traced run give each type's cost.
  constexpr size_t kTypes = std::size(kPublicTypes);
  FC_CHECK(count % kTypes == 0);
  const size_t n = count / kTypes;
  std::vector<std::vector<QueryRequest>> of_type(kTypes);
  for (size_t t = 0; t < kTypes; ++t) {
    const RequestType type = kPublicTypes[t];
    std::vector<QueryRequest>& block = of_type[t];
    for (size_t i = 0; i < n; ++i) {
      QueryRequest req;
      req.type = type;
      req.pl_index = static_cast<uint32_t>(i % num_pl);
      switch (type) {
        case RequestType::kPointLookup:
          req.values = zipf_cell(i, n).values;
          break;
        case RequestType::kCellOrAncestor: {
          const flowcube::PathRecord& rec =
              records[rng.Uniform(records.size())];
          for (size_t d = 0; d < dims; ++d) {
            req.values.push_back(schema.dimensions[d].Name(rec.dims[d]));
          }
          break;
        }
        case RequestType::kDrillDown: {
          const PoolCell& cell = zipf_cell(i, n);
          req.values = cell.values;
          std::vector<uint32_t> open_dims;
          for (size_t d = 0; d < dims; ++d) {
            if (plan.item_levels[cell.il].levels[d] <
                schema.dimensions[d].MaxLevel()) {
              open_dims.push_back(static_cast<uint32_t>(d));
            }
          }
          req.dim = open_dims.empty()
                        ? static_cast<uint32_t>(i % dims)
                        : open_dims[i % open_dims.size()];
          break;
        }
        case RequestType::kSimilarity: {
          const PoolCell& cell = zipf_cell(i, n);
          const std::vector<size_t>& peers = cells_of_level[cell.il];
          req.values = cell.values;
          req.values_b = cells[peers[rng.Uniform(peers.size())]].values;
          break;
        }
        default:
          req.pl_index = 0;
          break;
      }
      block.push_back(std::move(req));
    }
    // Seeded order within the type.
    for (size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng.Uniform(i)]);
    }
  }
  std::vector<QueryRequest> pool;
  pool.reserve(count);
  for (size_t i = 0; i < n; ++i) {
    for (std::vector<QueryRequest>& block : of_type) {
      pool.push_back(std::move(block[i]));
    }
  }
  return pool;
}

void CountCube(const flowcube::FlowCube& cube) {
  if (!Tracer::enabled()) return;
  size_t exceptions = 0;
  cube.ForEachCuboid([&](const flowcube::Cuboid& cuboid) {
    cuboid.ForEach([&](const flowcube::FlowCell& cell) {
      exceptions += cell.graph.exceptions().size();
    });
  });
  Tracer::Count("flowcube.cells", static_cast<double>(cube.TotalCells()));
  Tracer::Count("flowcube.redundant_cells",
                static_cast<double>(cube.RedundantCells()));
  Tracer::Count("flowcube.exceptions", static_cast<double>(exceptions));
  Tracer::Count("flowcube.cube_bytes",
                static_cast<double>(cube.MemoryUsage()));
}

void TraceBuildStats(const flowcube::FlowCubeBuildStats& stats,
                     int64_t start_ns) {
  if (!Tracer::enabled()) return;
  const struct {
    const char* name;
    double seconds;
  } phases[] = {{"mining.transform", stats.seconds_transform},
                {"mining.shared", stats.seconds_mining},
                {"flowcube.measures", stats.seconds_measures},
                {"flowcube.redundancy", stats.seconds_redundancy}};
  int64_t at = start_ns;
  for (const auto& phase : phases) {
    const int64_t end = at + static_cast<int64_t>(phase.seconds * 1e9);
    Tracer::Record(phase.name, at, end);
    at = end;
  }
  Tracer::Count("mining.builds", 1);
  Tracer::Count("mining.candidates",
                static_cast<double>(stats.mining.TotalCandidates()));
  Tracer::Count("mining.frequent",
                static_cast<double>(stats.mining.TotalFrequent()));
  Tracer::Count("mining.passes", stats.mining.passes);
}

}  // namespace perfbench
