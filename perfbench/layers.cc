// Derives every per-layer metric from the traced run's spans and counters.
// A metric of a layer the workload does not reach reads 0.

#include <map>
#include <string>

#include "bench.h"
#include "trace.h"

namespace perfbench {
namespace {

class Derived {
 public:
  Derived() : counters_(Tracer::Counters()) {
    const std::vector<Span> spans = Tracer::Spans();
    std::map<uint64_t, double> child_ms;
    for (const Span& s : spans) {
      const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      ms_[s.name].push_back(ms);
      if (s.parent != 0) child_ms[s.parent] += ms;
    }
    for (const Span& s : spans) {
      const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      self_ms_[s.name].push_back(ms - child_ms[s.id]);
    }
  }

  double Counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }
  double Ratio(double num, double den) const {
    return den > 0.0 ? num / den : 0.0;
  }
  const std::vector<double>& Ms(const std::string& name) const {
    static const std::vector<double> kNone;
    const auto it = ms_.find(name);
    return it == ms_.end() ? kNone : it->second;
  }
  double MedianMs(const std::string& name) const {
    return Quantile(Ms(name), 0.5);
  }
  double SumMs(const std::string& name) const {
    double sum = 0.0;
    for (double ms : Ms(name)) sum += ms;
    return sum;
  }
  double Count(const std::string& name) const {
    return static_cast<double>(Ms(name).size());
  }
  // The 99th percentile over the spans of every name starting with
  // `prefix`, when at least ten samples lie beyond it; 0 otherwise.
  double P99Ms(const std::string& prefix) const {
    std::vector<double> all;
    for (const auto& [name, ms] : ms_) {
      if (name.rfind(prefix, 0) == 0) all.insert(all.end(), ms.begin(), ms.end());
    }
    return all.size() >= 1000 ? Quantile(all, 0.99) : 0.0;
  }
  double CountPrefix(const std::string& prefix) const {
    double n = 0.0;
    for (const auto& [name, ms] : ms_) {
      if (name.rfind(prefix, 0) == 0) n += static_cast<double>(ms.size());
    }
    return n;
  }
  std::vector<double> SelfMsPrefix(const std::string& prefix) const {
    std::vector<double> all;
    for (const auto& [name, ms] : self_ms_) {
      if (name.rfind(prefix, 0) == 0) all.insert(all.end(), ms.begin(), ms.end());
    }
    return all;
  }

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, std::vector<double>> ms_;
  std::map<std::string, std::vector<double>> self_ms_;
};

}  // namespace

std::vector<Metric> PerLayerMetrics() {
  const Derived d;
  std::vector<Metric> m;
  auto add = [&m](const std::string& name, const std::string& unit,
                  double value) { m.push_back({name, unit, value}); };

  add("gen.generate_s", "s", d.SumMs("gen.generate") / 1e3);

  const double builds = d.Counter("mining.builds");
  add("mining.transform_s", "s", d.MedianMs("mining.transform") / 1e3);
  add("mining.shared_s", "s", d.MedianMs("mining.shared") / 1e3);
  add("mining.candidates", "count",
      d.Ratio(d.Counter("mining.candidates"), builds));
  add("mining.frequent", "count", d.Ratio(d.Counter("mining.frequent"), builds));
  add("mining.passes", "count", d.Ratio(d.Counter("mining.passes"), builds));
  add("mining.frequent_per_candidate", "ratio",
      d.Ratio(d.Counter("mining.frequent"), d.Counter("mining.candidates")));

  add("flowcube.measures_s", "s", d.MedianMs("flowcube.measures") / 1e3);
  add("flowcube.redundancy_s", "s", d.MedianMs("flowcube.redundancy") / 1e3);
  add("flowcube.cells", "count", d.Counter("flowcube.cells"));
  add("flowcube.redundant_cells", "count", d.Counter("flowcube.redundant_cells"));
  add("flowcube.exceptions", "count", d.Counter("flowcube.exceptions"));
  add("flowcube.cube_bytes", "bytes", d.Counter("flowcube.cube_bytes"));

  const double batches = d.Counter("stream.batches");
  add("stream.apply_p50_ms", "ms", d.MedianMs("stream.apply"));
  add("stream.publish_p50_ms", "ms", d.MedianMs("stream.publish"));
  add("stream.fresh_query_p50_ms", "ms", d.MedianMs("stream.fresh_query"));
  add("stream.cells_rebuilt_per_batch", "count",
      d.Ratio(d.Counter("stream.cells_rebuilt"), batches));
  add("stream.redundancy_updates_per_batch", "count",
      d.Ratio(d.Counter("stream.redundancy_updates"), batches));
  add("stream.cells_promoted", "count", d.Counter("stream.cells_promoted"));
  add("stream.cells_demoted", "count", d.Counter("stream.cells_demoted"));
  add("stream.rebuild_s", "s", d.SumMs("stream.rebuild") / 1e3);

  add("store.save_s", "s", d.SumMs("store.save") / 1e3);
  add("store.file_bytes", "bytes", d.Counter("store.file_bytes"));
  add("store.load_ms", "ms", d.MedianMs("store.load"));
  add("store.first_query_ms", "ms", d.MedianMs("store.first_query"));
  add("store.coldstart_ms", "ms", d.MedianMs("store.coldstart"));
  add("store.resident_mb", "MB", d.Counter("store.resident_bytes") / 1e6);

  for (flowcube::RequestType type : kPublicTypes) {
    const std::string t = TypeName(type);
    add("serve." + t + ".call_p50_ms", "ms", d.MedianMs("serve.call." + t));
    add("serve." + t + ".execute_p50_ms", "ms",
        d.MedianMs("serve.execute." + t));
    add("serve." + t + ".response_bytes", "bytes",
        d.Ratio(d.Counter("serve." + t + ".response_bytes"),
                d.Counter("serve." + t + ".responses")));
  }
  add("serve.query_p99_ms", "ms", d.P99Ms("serve.call."));
  const double hits = d.Counter("serve.cell_cache_hits");
  add("serve.cell_cache_hit_ratio", "ratio",
      d.Ratio(hits, hits + d.Counter("serve.cell_cache_misses")));
  const double codec_bytes = d.Counter("serve.codec_bytes");
  add("serve.encode_ns_per_byte", "ns/B",
      d.Ratio(d.SumMs("serve.encode") * 1e6, codec_bytes));
  add("serve.decode_ns_per_byte", "ns/B",
      d.Ratio(d.SumMs("serve.decode") * 1e6, codec_bytes));

  add("shard.splitter_apply_p50_ms", "ms", d.MedianMs("shard.splitter_apply"));
  add("shard.ingest_records_per_s", "records/s",
      d.Ratio(d.Counter("shard.ingest_records"),
              d.SumMs("shard.splitter_apply") / 1e3));
  add("shard.records_skew", "ratio", d.Counter("shard.records_skew"));
  for (flowcube::RequestType type : kPublicTypes) {
    const std::string t = TypeName(type);
    add("shard." + t + ".execute_p50_ms", "ms",
        d.MedianMs("shard.execute." + t));
  }
  add("shard.query_p99_ms", "ms", d.P99Ms("shard.execute."));
  const double queries = d.CountPrefix("shard.execute.");
  add("shard.calls_per_query", "count", d.Ratio(d.Count("shard.call"), queries));
  add("shard.call_p50_ms", "ms", d.MedianMs("shard.call"));
  add("shard.internal_bytes_per_query", "bytes",
      d.Ratio(d.Counter("shard.internal_bytes"), queries));
  add("shard.coordinator_self_ms", "ms",
      Quantile(d.SelfMsPrefix("shard.execute."), 0.5));
  return m;
}

std::vector<Metric> EndToEndMetrics(const EndToEnd& e2e) {
  return {{"setup_s", "s", e2e.setup_s},
          {"op_best_ms", "ms", e2e.op_best_ms},
          {"op_best_per_s", "1/s", e2e.op_best_per_s},
          {"peak_rss_mb", "MB", e2e.peak_rss_mb},
          {"cube_mb", "MB", e2e.cube_mb}};
}

}  // namespace perfbench
