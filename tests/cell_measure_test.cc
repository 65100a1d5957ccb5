// Property test of the measure counter: FillCellMeasure counts a cell's
// flowgraph from its members' stage chains straight into sealed columns.
// It must equal the reference measure built from the members' aggregated
// paths — BuildFlowGraph (AddPath), exceptions mined over chains this test
// resolves with its own FindChild walk, then Seal() — column by column,
// exception by exception, and in MemoryUsage(). At the duration-'*' levels
// it also shows that the cell's segments add no exception.

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "flowcube/cell_build.h"
#include "flowcube/plan.h"
#include "flowgraph/builder.h"
#include "flowgraph/exception_miner.h"
#include "gen/paper_example.h"
#include "gen/path_generator.h"
#include "mining/local_segments.h"
#include "mining/stage_chains.h"
#include "mining/transform.h"
#include "path/path_aggregator.h"
#include "path/path_view.h"
#include "walk_resolve.h"

namespace flowcube {
namespace {

template <typename T>
std::vector<T> AsVector(std::span<const T> s) {
  return std::vector<T>(s.begin(), s.end());
}

// The pre-counter segment mapping: each stage item's prefix walked through
// the graph location by location.
bool WalkPattern(const SegmentPattern& segment, const ItemCatalog& cat,
                 const FlowGraph& g, std::vector<StageCondition>* pattern) {
  pattern->clear();
  for (ItemId id : segment.stages) {
    const ItemCatalog::StageInfo& info = cat.StageOf(id);
    FlowNodeId node = FlowGraph::kRoot;
    for (NodeId loc : cat.trie().Locations(info.prefix)) {
      node = g.FindChild(node, loc);
      if (node == FlowGraph::kTerminate) return false;
    }
    pattern->push_back(StageCondition{node, info.duration});
  }
  std::sort(pattern->begin(), pattern->end(),
            [&g](const StageCondition& a, const StageCondition& b) {
              return g.depth(a.node) < g.depth(b.node);
            });
  return true;
}

FlowCell ReferenceMeasure(const std::vector<Path>& agg,
                          const std::vector<uint32_t>& tids,
                          const std::vector<SegmentPattern>& segments,
                          const ItemCatalog& cat,
                          const ExceptionMiner* miner) {
  FlowCell cell;
  cell.support = static_cast<uint32_t>(tids.size());
  const PathView paths(agg, tids);
  cell.graph = BuildFlowGraph(paths);
  if (miner != nullptr) {
    std::vector<std::vector<StageCondition>> patterns;
    std::vector<StageCondition> pattern;
    for (const SegmentPattern& seg : segments) {
      if (WalkPattern(seg, cat, cell.graph, &pattern)) {
        patterns.push_back(pattern);
      }
    }
    const WalkResolved resolved = ResolveByWalk(cell.graph, paths);
    for (FlowException& e :
         miner->Mine(cell.graph, resolved.view(), patterns)) {
      cell.graph.AddException(std::move(e));
    }
  }
  cell.graph.Seal();
  return cell;
}

void ExpectSameMeasure(const FlowCell& got, const FlowCell& want) {
  EXPECT_EQ(got.support, want.support);
  const FlowGraph& g = got.graph;
  const FlowGraph& w = want.graph;
  ASSERT_TRUE(g.sealed());
  ASSERT_EQ(g.num_nodes(), w.num_nodes());
  for (FlowNodeId n = 0; n < w.num_nodes(); ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    EXPECT_EQ(g.location(n), w.location(n));
    EXPECT_EQ(g.parent(n), w.parent(n));
    EXPECT_EQ(g.depth(n), w.depth(n));
    EXPECT_EQ(g.path_count(n), w.path_count(n));
    EXPECT_EQ(g.terminate_count(n), w.terminate_count(n));
    EXPECT_EQ(AsVector(g.children(n)), AsVector(w.children(n)));
    EXPECT_EQ(AsVector(g.duration_counts(n)), AsVector(w.duration_counts(n)));
  }
  EXPECT_EQ(g.MemoryUsage(), w.MemoryUsage());
  ASSERT_EQ(g.exceptions().size(), w.exceptions().size());
  for (size_t i = 0; i < w.exceptions().size(); ++i) {
    SCOPED_TRACE("exception " + std::to_string(i));
    const FlowException& a = g.exceptions()[i];
    const FlowException& b = w.exceptions()[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.condition, b.condition);
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.transition_target, b.transition_target);
    EXPECT_EQ(a.duration_value, b.duration_value);
    EXPECT_EQ(a.global_probability, b.global_probability);
    EXPECT_EQ(a.conditional_probability, b.conditional_probability);
    EXPECT_EQ(a.condition_support, b.condition_support);
  }
}

// What the inputs exercised, so a test cannot pass vacuously.
struct Coverage {
  size_t cells = 0;
  size_t non_contiguous = 0;
  size_t single_stage_paths = 0;
  size_t shared_locations = 0;  // a location under two different prefixes
  size_t star_levels = 0;       // cells at a duration-'*' level
  size_t star_segments = 0;     // segments mined at a duration-'*' level
  size_t merged_stages = 0;     // coarse-cut paths shorter than their raw path
  size_t exceptions = 0;
};

// Counts every tid subset in `subsets` at every path level of the default
// plan, with and without exception mining, through one reused scratch.
void CheckDatabase(const PathDatabase& db,
                   const std::vector<std::vector<uint32_t>>& subsets,
                   uint32_t min_support, Coverage* cov) {
  const FlowCubePlan plan = FlowCubePlan::Default(db.schema()).value();
  const TransformedDatabase tdb =
      std::move(TransformPathDatabase(db, plan.mining).value());
  const ItemCatalog& cat = tdb.catalog();
  StageChains chains(plan.path_levels, plan.mining.path_levels.size());
  for (const Transaction& txn : tdb.transactions()) chains.Append(txn, cat);

  const PathAggregator aggregator(db.schema_ptr());
  const ExceptionMiner miner(ExceptionMinerOptions{0.1, min_support});
  const ExceptionMiner* const miners[] = {&miner, nullptr};
  MeasureScratch scratch;
  for (size_t p = 0; p < plan.path_levels.size(); ++p) {
    const PathLevel& level =
        plan.mining.path_levels[static_cast<size_t>(plan.path_levels[p])];
    std::vector<Path> agg;
    for (const PathRecord& rec : db.records()) {
      agg.push_back(aggregator.AggregatePath(
          rec.path, plan.mining.cuts[static_cast<size_t>(level.cut_index)],
          level.duration_level));
      if (agg.back().stages.size() < rec.path.stages.size()) {
        cov->merged_stages++;
      }
    }
    for (const std::vector<uint32_t>& tids : subsets) {
      SCOPED_TRACE("path level " + std::to_string(p) + ", " +
                   std::to_string(tids.size()) + " member(s)");
      const std::vector<SegmentPattern> segments =
          MineCellSegments(chains.level(p), tids, min_support);
      for (const ExceptionMiner* m : miners) {
        FlowCell got;
        FillCellMeasure(chains.level(p), tids, segments, cat, m, &scratch,
                        &got);
        const FlowCell want = ReferenceMeasure(agg, tids, segments, cat, m);
        ExpectSameMeasure(got, want);
        if (m != nullptr) cov->exceptions += got.graph.exceptions().size();
      }

      // At a duration-'*' level every segment conditions on locations
      // alone, and §3 conditions exceptions on durations: the cell built
      // with the miner on has no exception and equals the cell built with
      // no segments, which is why the builder and the maintainer find no
      // segments there.
      EXPECT_EQ(IsDurationStarLevel(plan, p), level.duration_level == 0);
      if (level.duration_level == 0) {
        FlowCell mined;
        FillCellMeasure(chains.level(p), tids, segments, cat, &miner,
                        &scratch, &mined);
        FlowCell unmined;
        FillCellMeasure(chains.level(p), tids, {}, cat, &miner, &scratch,
                        &unmined);
        EXPECT_TRUE(mined.graph.exceptions().empty());
        ExpectSameMeasure(mined, unmined);
        cov->star_segments += segments.size();
      }

      cov->cells++;
      if (tids.back() - tids.front() + 1 > tids.size()) cov->non_contiguous++;
      if (level.duration_level == 0) cov->star_levels++;
      for (uint32_t tid : tids) {
        if (agg[tid].stages.size() == 1) cov->single_stage_paths++;
      }
      const FlowCell ref = ReferenceMeasure(agg, tids, segments, cat, nullptr);
      std::set<NodeId> seen;
      for (FlowNodeId n = 1; n < ref.graph.num_nodes(); ++n) {
        if (!seen.insert(ref.graph.location(n)).second) {
          cov->shared_locations++;
        }
      }
    }
  }
}

// Ascending tid subsets of [0, n): everything, a single tid, every third
// tid, and random samples.
std::vector<std::vector<uint32_t>> Subsets(uint32_t n, uint64_t seed) {
  std::vector<std::vector<uint32_t>> out(3);
  for (uint32_t t = 0; t < n; ++t) out[0].push_back(t);
  out[1].push_back(n / 2);
  for (uint32_t t = 1; t < n; t += 3) out[2].push_back(t);
  Random rng(seed);
  for (double keep : {0.5, 0.15}) {
    std::vector<uint32_t>& s = out.emplace_back();
    for (uint32_t t = 0; t < n; ++t) {
      if (rng.Bernoulli(keep)) s.push_back(t);
    }
    if (s.empty()) s.push_back(0);
  }
  return out;
}

TEST(CellMeasureTest, PaperDatabaseEqualsReference) {
  const PathDatabase db = MakePaperDatabase();
  Coverage cov;
  CheckDatabase(db, Subsets(static_cast<uint32_t>(db.size()), 7), 2, &cov);
  EXPECT_GT(cov.non_contiguous, 0u);
  // truck under factory>dist.center and under factory directly.
  EXPECT_GT(cov.shared_locations, 0u);
  // dist.center and truck merge into transportation at the coarse cut.
  EXPECT_GT(cov.merged_stages, 0u);
  EXPECT_GT(cov.star_levels, 0u);
  EXPECT_GT(cov.star_segments, 0u);
}

TEST(CellMeasureTest, GeneratedDatabasesEqualReference) {
  Coverage cov;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GeneratorConfig cfg;
    cfg.num_dimensions = 2;
    cfg.dim_distinct_per_level = {2, 2, 2};
    cfg.num_location_groups = 3;
    cfg.locations_per_group = 3;
    cfg.num_sequences = 6 + static_cast<int>(seed);
    cfg.min_sequence_length = 1;
    cfg.max_sequence_length = 6;
    cfg.num_distinct_durations = 4;
    cfg.seed = 500 + seed;
    const PathDatabase db = PathGenerator(cfg).Generate(120);
    CheckDatabase(db, Subsets(static_cast<uint32_t>(db.size()), seed),
                  /*min_support=*/3, &cov);
  }
  EXPECT_GT(cov.cells, 0u);
  EXPECT_GT(cov.non_contiguous, 0u);
  EXPECT_GT(cov.single_stage_paths, 0u);
  EXPECT_GT(cov.shared_locations, 0u);
  EXPECT_GT(cov.star_levels, 0u);
  EXPECT_GT(cov.star_segments, 0u);
  EXPECT_GT(cov.merged_stages, 0u);
  EXPECT_GT(cov.exceptions, 0u);
}

}  // namespace
}  // namespace flowcube
