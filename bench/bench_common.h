#ifndef FLOWCUBE_BENCH_BENCH_COMMON_H_
#define FLOWCUBE_BENCH_BENCH_COMMON_H_

// Shared harness for the paper-reproduction benchmarks. Every figure binary
// sweeps one knob, runs the algorithms end to end (transformation included,
// as in the paper's measurements), and prints a paper-style series table.
//
// Scaling: the paper's baseline is N = 100,000 paths on a 2004 Pentium IV.
// FLOWCUBE_BENCH_SCALE (default 0.2) multiplies every N so the whole suite
// finishes in minutes; shapes are stable across scales. Set
// FLOWCUBE_BENCH_SCALE=1 for paper-scale runs and FLOWCUBE_BENCH_BASIC=1 to
// force algorithm Basic on the configurations where the paper itself could
// not run it.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "cube/cubing_miner.h"
#include "flowcube/builder.h"
#include "gen/path_generator.h"
#include "mining/shared_miner.h"

namespace flowcube::bench {

inline double ScaleFromEnv() {
  // Benchmark knobs are read from the main thread before any worker
  // starts, and nothing in the process calls setenv.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* s = std::getenv("FLOWCUBE_BENCH_SCALE");
  if (s == nullptr) return 0.2;
  const double v = std::atof(s);
  return v > 0 ? v : 0.2;
}

inline bool ForceBasic() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): same single-threaded setup path
  const char* s = std::getenv("FLOWCUBE_BENCH_BASIC");
  return s != nullptr && s[0] == '1';
}

// ---------------------------------------------------------------------------
// Machine-readable output. Next to its stdout table every figure binary
// writes BENCH_<name>.json: run metadata (swept knob, FLOWCUBE_BENCH_SCALE,
// resolved thread count) plus one object per series row, so CI can archive
// and diff runs without scraping the tables. FLOWCUBE_BENCH_JSON_DIR
// redirects the files (default: current directory).

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// One key/value pair of a JSON row, value pre-encoded.
struct JsonField {
  std::string key;
  std::string encoded;

  static JsonField Str(const char* key, const std::string& value) {
    return JsonField{key, "\"" + JsonEscape(value) + "\""};
  }
  static JsonField Num(const char* key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return JsonField{key, buf};
  }
  static JsonField Int(const char* key, uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    return JsonField{key, buf};
  }
  static JsonField Bool(const char* key, bool value) {
    return JsonField{key, value ? "true" : "false"};
  }
};

class BenchJson {
 public:
  // `name` is the file stem (BENCH_<name>.json); `knob` describes what the
  // rows' x axis sweeps.
  BenchJson(std::string name, std::string knob)
      : name_(std::move(name)), knob_(std::move(knob)) {}

  void AddRow(std::vector<JsonField> fields) {
    rows_.push_back(std::move(fields));
  }

  // Serializes the document and writes BENCH_<name>.json. Returns the path
  // written (empty on I/O failure, reported on stderr).
  std::string Write() const {
    std::string out = "{\n";
    out += "  \"name\": \"" + JsonEscape(name_) + "\",\n";
    out += "  \"knob\": \"" + JsonEscape(knob_) + "\",\n";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  \"scale\": %.17g,\n", ScaleFromEnv());
    out += buf;
    std::snprintf(buf, sizeof(buf), "  \"threads\": %zu,\n",
                  ResolveNumThreads());
    out += buf;
    out += "  \"rows\": [";
    for (size_t r = 0; r < rows_.size(); ++r) {
      out += r == 0 ? "\n    {" : ",\n    {";
      for (size_t f = 0; f < rows_[r].size(); ++f) {
        if (f > 0) out += ", ";
        out += "\"" + JsonEscape(rows_[r][f].key) +
               "\": " + rows_[r][f].encoded;
      }
      out += "}";
    }
    out += rows_.empty() ? "]" : "\n  ]";
    // When metrics output is on, archive the full registry with the run so
    // one artifact carries both the series and the counters behind it.
    if (metrics_format() != MetricsFormat::kNone) {
      out += ",\n  \"metrics\": " + MetricRegistry::Global().RenderJson();
    }
    out += "\n}\n";

    std::string path = "BENCH_" + name_ + ".json";
    // NOLINTNEXTLINE(concurrency-mt-unsafe): report writing is post-run,
    // single-threaded, and nothing in the process calls setenv
    if (const char* dir = std::getenv("FLOWCUBE_BENCH_JSON_DIR")) {
      if (dir[0] != '\0') path = std::string(dir) + "/" + path;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return "";
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return path;
  }

 private:
  std::string name_;
  std::string knob_;
  std::vector<std::vector<JsonField>> rows_;
};

// The paper's baseline point is 100k paths; ScaledN(100) is that point
// under the current scale.
inline size_t ScaledN(int thousands) {
  return static_cast<size_t>(thousands * 1000 * ScaleFromEnv());
}

// The calibrated baseline workload (Section 6.1 knobs). Its multi-level
// frequent-pattern density was tuned so that the candidate-count profile is
// in the ballpark of the paper's Figure 11 (shared counting a few tens of
// thousands of candidates at the baseline point, basic roughly an order of
// magnitude more).
inline GeneratorConfig BaselineConfig(int num_dimensions = 5) {
  GeneratorConfig cfg;
  cfg.num_dimensions = num_dimensions;
  cfg.dim_distinct_per_level = {4, 4, 6};  // the paper's dataset "b"
  cfg.num_sequences = 100;
  cfg.num_distinct_durations = 15;
  cfg.dim_zipf_alpha = 0.5;
  cfg.location_zipf_alpha = 0.5;
  cfg.sequence_zipf_alpha = 0.5;
  cfg.duration_zipf_alpha = 0.5;
  cfg.seed = 20060912;  // VLDB'06 opening day
  return cfg;
}

struct MinerRun {
  // End-to-end wall time (seconds_setup + seconds_mine). Kept as the
  // table's headline number since the paper reports end-to-end runtimes.
  double seconds = 0.0;
  // Phase split: setup is plan resolution + database transformation (work
  // every algorithm repeats identically); mine is the algorithm itself.
  double seconds_setup = 0.0;
  double seconds_mine = 0.0;
  uint64_t candidates = 0;
  uint64_t frequent = 0;
  int passes = 0;
  std::vector<uint64_t> candidates_per_length;
};

// End-to-end runs. The paper's timings include the transformation, but the
// phases are timed separately (as trace spans "bench.setup" /
// "bench.mine.<algo>") so rows can report where the time went instead of
// re-charging identical setup work to every algorithm.
inline MinerRun RunShared(const PathDatabase& db, uint32_t minsup) {
  TraceSpan setup_span("bench.setup");
  MiningPlan plan = MiningPlan::Default(db.schema()).value();
  TransformedDatabase tdb =
      std::move(TransformPathDatabase(db, plan).value());
  SharedMinerOptions opts;
  opts.min_support = minsup;
  SharedMiner miner(tdb, opts);
  const double setup = setup_span.Stop();
  TraceSpan mine_span("bench.mine.shared");
  SharedMiningOutput out = miner.Run();
  const double mine = mine_span.Stop();
  return MinerRun{setup + mine, setup, mine, out.stats.TotalCandidates(),
                  static_cast<uint64_t>(out.frequent.size()),
                  out.stats.passes, out.stats.candidates_per_length};
}

inline MinerRun RunBasic(const PathDatabase& db, uint32_t minsup) {
  TraceSpan setup_span("bench.setup");
  MiningPlan plan = MiningPlan::Default(db.schema()).value();
  TransformedDatabase tdb =
      std::move(TransformPathDatabase(db, plan).value());
  SharedMinerOptions opts;
  opts.min_support = minsup;
  opts.prune_precount = false;
  opts.prune_unlinkable = false;
  opts.prune_ancestors = false;
  SharedMiner miner(tdb, opts);
  const double setup = setup_span.Stop();
  TraceSpan mine_span("bench.mine.basic");
  SharedMiningOutput out = miner.Run();
  const double mine = mine_span.Stop();
  return MinerRun{setup + mine, setup, mine, out.stats.TotalCandidates(),
                  static_cast<uint64_t>(out.frequent.size()),
                  out.stats.passes, out.stats.candidates_per_length};
}

inline MinerRun RunCubing(const PathDatabase& db, uint32_t minsup) {
  TraceSpan setup_span("bench.setup");
  MiningPlan plan = MiningPlan::Default(db.schema()).value();
  TransformedDatabase tdb =
      std::move(TransformPathDatabase(db, plan).value());
  CubingMiner miner(db, tdb, CubingMinerOptions{minsup});
  const double setup = setup_span.Stop();
  TraceSpan mine_span("bench.mine.cubing");
  SharedMiningOutput out = miner.Run();
  const double mine = mine_span.Stop();
  return MinerRun{setup + mine, setup, mine, out.stats.TotalCandidates(),
                  static_cast<uint64_t>(out.frequent.size()),
                  out.stats.passes, out.stats.candidates_per_length};
}

// One full FlowCubeBuilder::Build: total and per-phase seconds, plus the
// exact counts bench_report gates.
struct BuildRun {
  double seconds = 0.0;
  double seconds_transform = 0.0;
  double seconds_mining = 0.0;
  double seconds_measures = 0.0;
  double seconds_redundancy = 0.0;
  uint64_t cells = 0;
  uint64_t redundant = 0;
  uint64_t exceptions = 0;
};

// The fastest of `repeats` single-threaded builds at the default plan,
// every phase timed in that build. One build spreads too widely on a
// shared host to resolve bench_report's 15% threshold; the counts are the
// same in every build.
inline BuildRun RunBuild(const PathDatabase& db, uint32_t minsup,
                         int repeats = 3) {
  const FlowCubePlan plan = FlowCubePlan::Default(db.schema()).value();
  FlowCubeBuilderOptions opts;
  opts.min_support = minsup;
  opts.num_threads = 1;
  BuildRun best;
  for (int r = 0; r < repeats; ++r) {
    FlowCubeBuildStats stats;
    FC_CHECK(FlowCubeBuilder(opts).Build(db, plan, &stats).ok());
    if (r > 0 && stats.seconds_total >= best.seconds) continue;
    best = BuildRun{stats.seconds_total,      stats.seconds_transform,
                    stats.seconds_mining,     stats.seconds_measures,
                    stats.seconds_redundancy, stats.cells_materialized,
                    stats.cells_marked_redundant, stats.exceptions_found};
  }
  return best;
}

// One row of a sweep table.
struct Row {
  std::string x;
  std::string algo;
  bool ran = false;
  MinerRun run;
  std::string note;
};

class Summary {
 public:
  // `name` is the JSON file stem, `knob` the swept x axis (both feed
  // BENCH_<name>.json); `title` / `expectation` head the stdout table.
  Summary(std::string name, std::string knob, std::string title,
          std::string expectation)
      : name_(std::move(name)),
        knob_(std::move(knob)),
        title_(std::move(title)),
        expectation_(std::move(expectation)) {}

  void Add(Row row) { rows_.push_back(std::move(row)); }
  // A full-build row (algo "build"), printed and written after the miner
  // rows.
  void AddBuild(std::string x, std::string note, BuildRun run) {
    builds_.push_back({std::move(x), std::move(note), run});
  }

  void Print() const {
    std::printf("\n=== %s ===\n", title_.c_str());
    std::printf("(scale=%.2f; paper expectation: %s)\n", ScaleFromEnv(),
                expectation_.c_str());
    std::printf("%-18s %-8s %12s %10s %14s %12s %7s\n", "x", "algo",
                "seconds", "mine(s)", "candidates", "frequent", "passes");
    for (const Row& r : rows_) {
      if (r.ran) {
        std::printf("%-18s %-8s %12.3f %10.3f %14llu %12llu %7d\n",
                    r.x.c_str(), r.algo.c_str(), r.run.seconds,
                    r.run.seconds_mine,
                    static_cast<unsigned long long>(r.run.candidates),
                    static_cast<unsigned long long>(r.run.frequent),
                    r.run.passes);
      } else {
        std::printf("%-18s %-8s %12s   %s\n", r.x.c_str(), r.algo.c_str(),
                    "n/a", r.note.c_str());
      }
    }
    if (!builds_.empty()) {
      std::printf("\n%-18s %-8s %12s %10s %10s %10s %10s %8s %10s %10s\n",
                  "x", "algo", "seconds", "transform", "mining", "measures",
                  "redundancy", "cells", "redundant", "exceptions");
      for (const BuildRow& b : builds_) {
        std::printf(
            "%-18s %-8s %12.3f %10.3f %10.3f %10.3f %10.3f %8llu %10llu "
            "%10llu\n",
            b.x.c_str(), "build", b.run.seconds, b.run.seconds_transform,
            b.run.seconds_mining, b.run.seconds_measures,
            b.run.seconds_redundancy,
            static_cast<unsigned long long>(b.run.cells),
            static_cast<unsigned long long>(b.run.redundant),
            static_cast<unsigned long long>(b.run.exceptions));
      }
    }
    WriteJson();
  }

  void WriteJson() const {
    BenchJson json(name_, knob_);
    for (const Row& r : rows_) {
      json.AddRow({JsonField::Str("x", r.x), JsonField::Str("algo", r.algo),
                   JsonField::Bool("ran", r.ran),
                   JsonField::Num("seconds", r.run.seconds),
                   JsonField::Num("seconds_setup", r.run.seconds_setup),
                   JsonField::Num("seconds_mine", r.run.seconds_mine),
                   JsonField::Int("candidates", r.run.candidates),
                   JsonField::Int("frequent", r.run.frequent),
                   JsonField::Int("passes", static_cast<uint64_t>(r.run.passes)),
                   JsonField::Str("note", r.note)});
    }
    for (const BuildRow& b : builds_) {
      json.AddRow({JsonField::Str("x", b.x), JsonField::Str("algo", "build"),
                   JsonField::Bool("ran", true),
                   JsonField::Num("seconds", b.run.seconds),
                   JsonField::Num("seconds_transform", b.run.seconds_transform),
                   JsonField::Num("seconds_mining", b.run.seconds_mining),
                   JsonField::Num("seconds_measures", b.run.seconds_measures),
                   JsonField::Num("seconds_redundancy",
                                  b.run.seconds_redundancy),
                   JsonField::Int("cells", b.run.cells),
                   JsonField::Int("redundant", b.run.redundant),
                   JsonField::Int("exceptions", b.run.exceptions),
                   JsonField::Str("note", b.note)});
    }
    json.Write();
  }

 private:
  struct BuildRow {
    std::string x;
    std::string note;
    BuildRun run;
  };

  std::string name_;
  std::string knob_;
  std::string title_;
  std::string expectation_;
  std::vector<Row> rows_;
  std::vector<BuildRow> builds_;
};

// Cache of generated databases so the three algorithms of one sweep point
// share one dataset.
class DbCache {
 public:
  const PathDatabase& Get(const GeneratorConfig& cfg, size_t n) {
    const std::string key = Key(cfg, n);
    auto it = dbs_.find(key);
    if (it == dbs_.end()) {
      PathGenerator gen(cfg);
      it = dbs_.emplace(key,
                        std::make_unique<PathDatabase>(gen.Generate(n)))
               .first;
    }
    return *it->second;
  }

 private:
  static std::string Key(const GeneratorConfig& cfg, size_t n) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%d|%d|%d|%d|%.2f|%zu|%llu",
                  cfg.num_dimensions, cfg.num_sequences,
                  cfg.num_distinct_durations,
                  cfg.dim_distinct_per_level.empty()
                      ? 0
                      : cfg.dim_distinct_per_level[0],
                  cfg.dim_zipf_alpha, n,
                  static_cast<unsigned long long>(cfg.seed));
    return buf;
  }

  std::map<std::string, std::unique_ptr<PathDatabase>> dbs_;
};

}  // namespace flowcube::bench

#endif  // FLOWCUBE_BENCH_BENCH_COMMON_H_
