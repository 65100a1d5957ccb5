// Differential oracle for the two mining algorithms. A naive Basic-style
// reference recomputes the support of EVERY possible cell directly from the
// raw path records — no shared counting, no pruning, no transform — by
// enumerating the full cartesian product of dimension values across all
// hierarchy levels. Both SharedMiner and CubingMiner must agree with it
// exactly on 50 seeded random workloads: identical frequent-cell sets,
// identical supports, and byte-identical canonical cube dumps
// (flowcube/dump renders cells sorted with %.17g doubles, so string
// equality is bitwise cube equality). Every support either miner reports,
// segments included, is also recounted with the reference counting engine.
// A second oracle enumerates every frequent cell's path segments from its
// members' transactions by brute-force subset counting; both miners'
// segments and the maintainer's per-cell miner (MineCellSegments) must
// equal it.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cube/cubing_miner.h"
#include "flowcube/builder.h"
#include "flowcube/dump.h"
#include "flowcube/flowcube.h"
#include "flowgraph/builder.h"
#include "gen/path_generator.h"
#include "hierarchy/lattice.h"
#include "mining/counting_backend.h"
#include "mining/local_segments.h"
#include "mining/mining_result.h"
#include "mining/shared_miner.h"
#include "mining/stage_chains.h"
#include "mining/transform.h"
#include "path/path_aggregator.h"
#include "path/path_view.h"

namespace flowcube {
namespace {

struct Workload {
  GeneratorConfig cfg;
  size_t num_records = 0;
  uint32_t min_support = 0;
};

// Small, fully-checkable workloads: 2 dimensions with 3-level {2,2,2}
// hierarchies (15 nodes each, so the oracle's cartesian product is 16x16
// coordinate combinations) and 60..120 paths. The seed drives every knob so
// the 50 workloads cover different densities and thresholds.
Workload MakeWorkload(int seed) {
  Workload w;
  w.cfg.num_dimensions = 2;
  w.cfg.dim_distinct_per_level = {2, 2, 2};
  w.cfg.dim_zipf_alpha = 0.5 + 0.1 * (seed % 5);
  w.cfg.num_location_groups = 3;
  w.cfg.locations_per_group = 3;
  w.cfg.num_sequences = 4 + seed % 5;
  w.cfg.min_sequence_length = 2;
  w.cfg.max_sequence_length = 5;
  w.cfg.num_distinct_durations = 4 + seed % 4;
  w.cfg.seed = 1000 + static_cast<uint64_t>(seed) * 97;
  w.num_records = 60 + (static_cast<size_t>(seed) * 7) % 61;
  w.min_support = 2 + static_cast<uint32_t>(seed) % 5;
  return w;
}

// The naive reference: support of every cell, keyed by the cell's sorted
// dimension items (empty = apex). One coordinate per dimension, drawn from
// {'*'} + every hierarchy node; a record supports a coordinate when the
// record's leaf value generalizes to it.
std::map<Itemset, uint32_t> OracleCellSupports(const PathDatabase& db,
                                               const ItemCatalog& cat) {
  const PathSchema& schema = db.schema();
  const size_t num_dims = schema.num_dimensions();
  // options[d] holds the hierarchy root (meaning '*') plus every concept.
  std::vector<std::vector<NodeId>> options(num_dims);
  for (size_t d = 0; d < num_dims; ++d) {
    for (NodeId n = 0; n < schema.dimensions[d].NodeCount(); ++n) {
      options[d].push_back(n);
    }
  }

  std::map<Itemset, uint32_t> supports;
  std::vector<NodeId> combo(num_dims);
  const auto count_combo = [&] {
    uint32_t support = 0;
    for (const PathRecord& rec : db.records()) {
      bool covered = true;
      for (size_t d = 0; d < num_dims; ++d) {
        const ConceptHierarchy& h = schema.dimensions[d];
        if (h.AncestorAtLevel(rec.dims[d], h.Level(combo[d])) != combo[d]) {
          covered = false;
          break;
        }
      }
      if (covered) support++;
    }
    Itemset key;
    for (size_t d = 0; d < num_dims; ++d) {
      if (combo[d] == schema.dimensions[d].root()) continue;
      key.push_back(cat.DimItem(d, combo[d]));
    }
    std::sort(key.begin(), key.end());
    supports[std::move(key)] = support;
  };
  // Odometer over the cartesian product of per-dimension options.
  std::vector<size_t> idx(num_dims, 0);
  for (;;) {
    for (size_t d = 0; d < num_dims; ++d) combo[d] = options[d][idx[d]];
    count_combo();
    size_t d = 0;
    while (d < num_dims && ++idx[d] == options[d].size()) idx[d++] = 0;
    if (d == num_dims) break;
  }
  return supports;
}

// A miner's frequent PROPER cells (at most one item per dimension): the
// union of CellsAtLevel over the full item lattice plus the apex. This is
// the shape the oracle enumerates; it is also exactly what the flowcube
// materializes.
std::set<Itemset> ProperFrequentCells(const MiningResult& result,
                                      const PathSchema& schema) {
  std::vector<int> max_levels;
  for (const ConceptHierarchy& dim : schema.dimensions) {
    max_levels.push_back(dim.MaxLevel());
  }
  std::set<Itemset> out;
  for (const ItemLevel& il : ItemLattice(std::move(max_levels)).AllLevels()) {
    for (Itemset& cell : result.CellsAtLevel(il)) {
      out.insert(std::move(cell));
    }
  }
  return out;
}

void ExpectMatchesOracle(const MiningResult& result,
                         const std::map<Itemset, uint32_t>& oracle,
                         uint32_t min_support, const PathSchema& schema,
                         const ItemCatalog& cat, const char* miner_name) {
  SCOPED_TRACE(miner_name);
  std::set<Itemset> expected;
  for (const auto& [cell, support] : oracle) {
    if (support >= min_support) expected.insert(cell);
  }
  const std::set<Itemset> got = ProperFrequentCells(result, schema);
  EXPECT_EQ(got, expected);
  for (const Itemset& cell : expected) {
    const std::optional<uint32_t> support = result.CellSupport(cell);
    ASSERT_TRUE(support.has_value())
        << "missing support for a frequent cell of " << cell.size()
        << " item(s)";
    std::string name;
    for (ItemId id : cell) name += cat.ToString(id) + " ";
    EXPECT_EQ(*support, oracle.at(cell)) << "cell " << name;
  }
}

// Recounts every support a miner reports — cells, segments and their
// combinations, at every length — over the workload's transactions:
// single items by direct scan, longer itemsets with the reference engine
// (CandidateCounter's pair-index scan), which shares no code with the
// tidlist engine the miners count with.
void ExpectSupportsMatchReference(const MiningResult& result,
                                  const TransformedDatabase& tdb,
                                  const char* miner_name) {
  SCOPED_TRACE(miner_name);
  std::vector<std::span<const ItemId>> txns;
  std::vector<uint32_t> item_support(tdb.catalog().num_items(), 0);
  for (const Transaction& t : tdb.transactions()) {
    txns.emplace_back(t.items);
    for (ItemId id : t.items) item_support[id]++;
  }
  CandidateCounter counter;
  std::vector<uint32_t> reported;
  for (const FrequentItemset& fi : result.all()) {
    if (fi.items.size() == 1) {
      EXPECT_EQ(fi.support, item_support[fi.items[0]]);
      continue;
    }
    Itemset items = fi.items;
    std::sort(items.begin(), items.end());
    counter.Add(std::move(items));
    reported.push_back(fi.support);
  }
  ASSERT_FALSE(reported.empty());
  EXPECT_EQ(ReferenceCounts(txns, counter), reported);
}

// Every complete cell key at item level `il` with its member tids
// (ascending), straight from the raw records.
std::map<Itemset, std::vector<uint32_t>> MembersAtLevel(
    const PathDatabase& db, const ItemLevel& il, const ItemCatalog& cat) {
  std::map<Itemset, std::vector<uint32_t>> members;
  Itemset key;
  for (uint32_t tid = 0; tid < db.size(); ++tid) {
    const PathRecord& rec = db.record(tid);
    key.clear();
    bool complete = true;
    for (size_t d = 0; d < rec.dims.size(); ++d) {
      if (il.levels[d] == 0) continue;
      const ConceptHierarchy& h = db.schema().dimensions[d];
      const NodeId n = h.AncestorAtLevel(rec.dims[d], il.levels[d]);
      if (h.Level(n) == 0) {
        complete = false;
        continue;
      }
      key.push_back(cat.DimItem(d, n));
    }
    if (!complete) continue;
    std::sort(key.begin(), key.end());
    members[key].push_back(tid);
  }
  return members;
}

using Segments = std::vector<std::pair<Itemset, uint32_t>>;

Segments AsPairs(const std::vector<SegmentPattern>& segments) {
  Segments out;
  for (const SegmentPattern& s : segments) {
    out.emplace_back(s.stages, s.support);
  }
  return out;
}

// The segment oracle: a cell's frequent path segments at one mining path
// level, counted by enumerating every non-empty subset of each member's
// stage items at that level straight from its transaction — no miner, no
// candidate generation, no counting engine. Sorted like SegmentsForCell:
// support descending, then stages ascending.
Segments OracleSegments(const TransformedDatabase& tdb,
                        const std::vector<uint32_t>& members, int path_level,
                        uint32_t min_support) {
  const ItemCatalog& cat = tdb.catalog();
  std::map<Itemset, uint32_t> counts;
  Itemset stages;
  Itemset subset;
  for (uint32_t tid : members) {
    stages.clear();
    for (ItemId id : tdb.transactions()[tid].items) {
      if (cat.IsStageItem(id) && cat.StageOf(id).path_level == path_level) {
        stages.push_back(id);
      }
    }
    if (stages.size() > 16) {
      ADD_FAILURE() << "a member of " << stages.size()
                    << " stages: subset enumeration would explode";
      continue;
    }
    for (uint32_t mask = 1; mask < (1u << stages.size()); ++mask) {
      subset.clear();
      for (size_t k = 0; k < stages.size(); ++k) {
        if ((mask >> k) & 1u) subset.push_back(stages[k]);
      }
      counts[subset]++;
    }
  }
  Segments out;
  for (const auto& [items, support] : counts) {
    if (support >= min_support) out.emplace_back(items, support);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  return out;
}

// Every frequent cell at every item level and materialized path level:
// Shared's and Cubing's SegmentsForCell and MineCellSegments over the
// cell's members must each equal the oracle. Returns the number of
// segments checked.
size_t ExpectSegmentsMatchOracle(const PathDatabase& db,
                                 const FlowCubePlan& plan,
                                 const TransformedDatabase& tdb,
                                 const MiningResult& shared,
                                 const MiningResult& cubing,
                                 uint32_t min_support) {
  const ItemCatalog& cat = tdb.catalog();
  StageChains chains(plan.path_levels, plan.mining.path_levels.size());
  for (const Transaction& txn : tdb.transactions()) chains.Append(txn, cat);
  size_t checked = 0;
  for (const ItemLevel& il : plan.item_levels) {
    for (const auto& [key, tids] : MembersAtLevel(db, il, cat)) {
      if (tids.size() < min_support) continue;
      for (size_t p = 0; p < plan.path_levels.size(); ++p) {
        const int pl = plan.path_levels[p];
        SCOPED_TRACE("cell of " + std::to_string(key.size()) +
                     " item(s), " + std::to_string(tids.size()) +
                     " member(s), path level " + std::to_string(pl));
        const Segments want = OracleSegments(tdb, tids, pl, min_support);
        EXPECT_EQ(AsPairs(shared.SegmentsForCell(key, pl)), want)
            << "SharedMiner";
        EXPECT_EQ(AsPairs(cubing.SegmentsForCell(key, pl)), want)
            << "CubingMiner";
        EXPECT_EQ(AsPairs(MineCellSegments(chains.level(p), tids,
                                           min_support)),
                  want)
            << "MineCellSegments";
        checked += want.size();
      }
    }
  }
  return checked;
}

// Materializes a flowcube from any miner's output, mirroring the builder's
// measure phase with exceptions and redundancy analysis off: for every
// cuboid, the frequent cells' member paths are gathered and their flowgraph
// is rebuilt from the aggregated raw paths. Because supports and graphs
// come from the raw records (not from the miner's counts), the dumps of two
// miners agree iff their frequent-cell sets agree.
std::string CubeDumpFromMining(const PathDatabase& db,
                               const FlowCubePlan& plan,
                               const TransformedDatabase& tdb,
                               const MiningResult& result) {
  FlowCube cube(plan, db.schema_ptr());
  const ItemCatalog& cat = tdb.catalog();
  const PathAggregator aggregator(db.schema_ptr());

  std::vector<std::vector<Path>> agg(plan.path_levels.size());
  for (size_t p = 0; p < plan.path_levels.size(); ++p) {
    const PathLevel& level =
        plan.mining.path_levels[static_cast<size_t>(plan.path_levels[p])];
    agg[p].reserve(db.size());
    for (uint32_t tid = 0; tid < db.size(); ++tid) {
      agg[p].push_back(aggregator.AggregatePath(
          db.record(tid).path,
          plan.mining.cuts[static_cast<size_t>(level.cut_index)],
          level.duration_level));
    }
  }

  for (size_t i = 0; i < plan.item_levels.size(); ++i) {
    const ItemLevel& il = plan.item_levels[i];
    std::unordered_set<Itemset, ItemsetHash> frequent_cells;
    for (Itemset& cell : result.CellsAtLevel(il)) {
      frequent_cells.insert(std::move(cell));
    }
    const std::map<Itemset, std::vector<uint32_t>> members =
        MembersAtLevel(db, il, cat);
    for (size_t p = 0; p < plan.path_levels.size(); ++p) {
      Cuboid& cuboid = cube.mutable_cuboid(i, p);
      for (const auto& [cell_key, tids] : members) {
        if (!frequent_cells.contains(cell_key)) continue;
        FlowCell cell;
        cell.dims = cell_key;
        cell.support = static_cast<uint32_t>(tids.size());
        cell.graph = BuildFlowGraph(PathView(agg[p], tids));
        cuboid.Insert(std::move(cell));
      }
    }
  }
  return DumpFlowCube(cube);
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, MinersAgreeWithNaiveOracle) {
  const Workload w = MakeWorkload(GetParam());
  SCOPED_TRACE("seed=" + std::to_string(w.cfg.seed) +
               " n=" + std::to_string(w.num_records) +
               " minsup=" + std::to_string(w.min_support));
  PathGenerator gen(w.cfg);
  const PathDatabase db = gen.Generate(w.num_records);

  const FlowCubePlan plan = FlowCubePlan::Default(db.schema()).value();
  const TransformedDatabase tdb =
      std::move(TransformPathDatabase(db, plan.mining).value());

  SharedMinerOptions sopts;
  sopts.min_support = w.min_support;
  sopts.num_threads = 1;
  const MiningResult shared(&tdb, SharedMiner(tdb, sopts).Run().frequent);

  CubingMinerOptions copts;
  copts.min_support = w.min_support;
  const MiningResult cubing(
      &tdb, CubingMiner(db, tdb, copts).Run().frequent);

  const std::map<Itemset, uint32_t> oracle =
      OracleCellSupports(db, tdb.catalog());

  // Not vacuous: with 2x2 level-1 values over >= 60 paths, some non-apex
  // cell always clears a threshold of at most 6.
  size_t non_apex_frequent = 0;
  for (const auto& [cell, support] : oracle) {
    if (!cell.empty() && support >= w.min_support) non_apex_frequent++;
  }
  ASSERT_GT(non_apex_frequent, 0u);

  ExpectMatchesOracle(shared, oracle, w.min_support, db.schema(),
                      tdb.catalog(), "SharedMiner");
  ExpectMatchesOracle(cubing, oracle, w.min_support, db.schema(),
                      tdb.catalog(), "CubingMiner");
  ExpectSupportsMatchReference(shared, tdb, "SharedMiner");
  ExpectSupportsMatchReference(cubing, tdb, "CubingMiner");
  // Not vacuous either: every workload's apex alone has frequent segments.
  EXPECT_GT(ExpectSegmentsMatchOracle(db, plan, tdb, shared, cubing,
                                      w.min_support),
            0u);

  // Byte-equal canonical dumps: Shared-derived cube == Cubing-derived cube
  // == the production builder's cube (exceptions/redundancy off — those
  // phases are holistic post-processing, not part of the mining contract).
  const std::string dump_shared = CubeDumpFromMining(db, plan, tdb, shared);
  const std::string dump_cubing = CubeDumpFromMining(db, plan, tdb, cubing);
  EXPECT_FALSE(dump_shared.empty());
  EXPECT_EQ(dump_shared, dump_cubing);

  FlowCubeBuilderOptions bopts;
  bopts.min_support = w.min_support;
  bopts.compute_exceptions = false;
  bopts.mark_redundant = false;
  bopts.num_threads = 1;
  const Result<FlowCube> built =
      FlowCubeBuilder(bopts).Build(db, plan);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(dump_shared, DumpFlowCube(built.value()));
}

INSTANTIATE_TEST_SUITE_P(Seeded, DifferentialTest,
                         ::testing::Range(1, 51));

}  // namespace
}  // namespace flowcube
