// Mining-kernel microbench: candidate-counting throughput of the tidlist
// engine against the reference engine (DESIGN.md §13), isolated from the
// rest of the mining loop. Two workload shapes bracket the Apriori passes:
// the pass-2 pair candidates (many candidates, chain verify trivial) and
// the pass-3 triple candidates (fewer candidates, subset verify active).
// Rows report counting seconds and candidate-transaction evaluations per
// second; the `scalar` rows time the reference's horizontal pair-index
// scan, the `tidlist` rows the engine at the CPU's SIMD level.

#include <benchmark/benchmark.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "flowcube/plan.h"
#include "mining/apriori.h"
#include "mining/counting_backend.h"
#include "mining/transform.h"

namespace {

using namespace flowcube;
using namespace flowcube::bench;

struct KernelWorkload {
  std::vector<std::vector<ItemId>> txns;
  std::vector<std::span<const ItemId>> views;
  std::vector<Itemset> pair_cands;
  std::vector<Itemset> triple_cands;
  uint32_t minsup = 0;
};

// Counter loaded with `cands`, counts at zero.
void LoadCounter(const std::vector<Itemset>& cands, CandidateCounter* c) {
  c->Clear();
  c->Reserve(cands.size());
  for (const Itemset& cand : cands) c->Add(cand);
}

// Builds the transaction views plus the real pass-2 and pass-3 candidate
// sets of a plain (unpruned) Apriori over the baseline workload — the exact
// inputs CandidateCounter sees inside the miners.
KernelWorkload& Workload() {
  static KernelWorkload* w = [] {
    auto* out = new KernelWorkload();
    const size_t n = ScaledN(100);
    out->minsup = std::max<uint32_t>(1, static_cast<uint32_t>(n / 100));
    PathGenerator gen(BaselineConfig());
    const PathDatabase db = gen.Generate(n);
    MiningPlan plan = MiningPlan::Default(db.schema()).value();
    const TransformedDatabase tdb =
        std::move(TransformPathDatabase(db, plan).value());
    out->txns.reserve(tdb.transactions().size());
    for (const Transaction& t : tdb.transactions()) out->txns.push_back(t.items);
    out->views.reserve(out->txns.size());
    for (const auto& t : out->txns) out->views.emplace_back(t);

    // Pass 1: frequent items.
    std::vector<uint32_t> item_counts;
    for (const auto& t : out->txns) {
      for (ItemId id : t) {
        if (item_counts.size() <= id) item_counts.resize(id + 1, 0);
        item_counts[id]++;
      }
    }
    std::vector<Itemset> frequent_1;
    for (ItemId id = 0; id < item_counts.size(); ++id) {
      if (item_counts[id] >= out->minsup) frequent_1.push_back({id});
    }
    out->pair_cands = AprioriJoin(frequent_1);

    // Pass 2 counts (setup, untimed) -> pass-3 candidates.
    CandidateCounter counter;
    LoadCounter(out->pair_cands, &counter);
    CountAllTransactions(out->views, nullptr, 256, &counter);
    std::vector<Itemset> frequent_2;
    for (size_t i = 0; i < counter.size(); ++i) {
      if (counter.count(i) >= out->minsup) {
        frequent_2.push_back(counter.candidate(i));
      }
    }
    std::sort(frequent_2.begin(), frequent_2.end());
    const std::unordered_set<Itemset, ItemsetHash> frequent_set(
        frequent_2.begin(), frequent_2.end());
    for (Itemset& cand : AprioriJoin(frequent_2)) {
      if (AllSubsetsFrequent(cand, frequent_set)) {
        out->triple_cands.push_back(std::move(cand));
      }
    }
    return out;
  }();
  return *w;
}

BenchJson& Json() {
  static BenchJson json("mining_kernels", "counting engine");
  return json;
}

// Row labels: the reference scan keeps its historical `scalar` name.
constexpr const char* kVariants[] = {"scalar", "tidlist"};

// One timed counting pass: rebuild the counter (and the reference's pair
// index) outside the clock, then count every transaction against every
// candidate.
double TimedPass(const std::vector<Itemset>& cands, bool reference) {
  KernelWorkload& w = Workload();
  CandidateCounter counter;
  LoadCounter(cands, &counter);
  if (reference) counter.BuildPairIndex();
  Stopwatch timer;
  if (reference) {
    for (const auto& txn : w.views) counter.CountTransaction(txn);
  } else {
    CountAllTransactions(w.views, nullptr, 256, &counter);
  }
  return timer.ElapsedSeconds();
}

void RegisterAll() {
  for (const std::string variant : kVariants) {
    for (int shape_idx = 0; shape_idx < 2; ++shape_idx) {
      const char* shape = shape_idx == 0 ? "pairs" : "triples";
      const std::string bench_name =
          std::string("kernels/") + shape + "/" + variant;
      benchmark::RegisterBenchmark(
          bench_name.c_str(),
          [variant, shape, shape_idx](benchmark::State& state) {
            KernelWorkload& w = Workload();
            const std::vector<Itemset>& cands =
                shape_idx == 0 ? w.pair_cands : w.triple_cands;
            for (auto _ : state) {
              const double seconds =
                  TimedPass(cands, /*reference=*/variant == "scalar");
              state.SetIterationTime(seconds);
              const double evals = static_cast<double>(cands.size()) *
                                   static_cast<double>(w.views.size());
              const double cand_per_sec =
                  seconds > 0 ? static_cast<double>(cands.size()) / seconds
                              : 0.0;
              state.counters["cand_per_sec"] = cand_per_sec;
              Json().AddRow(
                  {JsonField::Str("x", shape),
                   JsonField::Str("backend", variant),
                   JsonField::Num("seconds", seconds),
                   JsonField::Int("candidates", cands.size()),
                   JsonField::Int("transactions", w.views.size()),
                   JsonField::Num("candidates_per_sec", cand_per_sec),
                   JsonField::Num("evals_per_sec",
                                  seconds > 0 ? evals / seconds : 0.0)});
            }
          })
          ->UseManualTime()
          ->Iterations(1)
          ->Unit(benchmark::kSecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  // Strip --metrics[=fmt] before the benchmark library parses flags.
  flowcube::ConsumeMetricsFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  Json().Write();
  flowcube::DumpMetricsIfEnabled(stdout);
  return 0;
}
