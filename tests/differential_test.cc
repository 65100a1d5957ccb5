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
// equal it. A third oracle recomputes every cell's Definition 4.4
// redundancy flag from its own graphs and distance walk; the builder's
// flags must equal it at the default tau and at a tau equal to a distance
// the oracle observed.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
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

// The cell key of record `tid` at item level `il`, straight from its raw
// dimension values; false when the record belongs to no cell of the level.
bool KeyAtLevel(const PathDatabase& db, uint32_t tid, const ItemLevel& il,
                const ItemCatalog& cat, Itemset* key) {
  const PathRecord& rec = db.record(tid);
  key->clear();
  for (size_t d = 0; d < rec.dims.size(); ++d) {
    if (il.levels[d] == 0) continue;
    const ConceptHierarchy& h = db.schema().dimensions[d];
    const NodeId n = h.AncestorAtLevel(rec.dims[d], il.levels[d]);
    if (h.Level(n) == 0) return false;
    key->push_back(cat.DimItem(d, n));
  }
  std::sort(key->begin(), key->end());
  return true;
}

// Every complete cell key at item level `il` with its member tids
// (ascending), straight from the raw records.
std::map<Itemset, std::vector<uint32_t>> MembersAtLevel(
    const PathDatabase& db, const ItemLevel& il, const ItemCatalog& cat) {
  std::map<Itemset, std::vector<uint32_t>> members;
  Itemset key;
  for (uint32_t tid = 0; tid < db.size(); ++tid) {
    if (KeyAtLevel(db, tid, il, cat, &key)) members[key].push_back(tid);
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

// Segments the oracle checked, split by the duration level of their path
// level.
struct SegmentsChecked {
  size_t timed = 0;
  size_t star = 0;
};

// Every frequent cell at every item level and materialized path level:
// Shared's and Cubing's SegmentsForCell and MineCellSegments over the
// cell's members must each equal the oracle. The duration-'*' levels are
// checked too: the builder and the maintainer do not ask for segments
// there (IsDurationStarLevel), but the miners must be exact at every
// level.
SegmentsChecked ExpectSegmentsMatchOracle(const PathDatabase& db,
                                          const FlowCubePlan& plan,
                                          const TransformedDatabase& tdb,
                                          const MiningResult& shared,
                                          const MiningResult& cubing,
                                          uint32_t min_support) {
  const ItemCatalog& cat = tdb.catalog();
  StageChains chains(plan.path_levels, plan.mining.path_levels.size());
  for (const Transaction& txn : tdb.transactions()) chains.Append(txn, cat);
  SegmentsChecked checked;
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
        const bool star =
            plan.mining.path_levels[static_cast<size_t>(pl)].duration_level ==
            0;
        (star ? checked.star : checked.timed) += want.size();
      }
    }
  }
  return checked;
}

// The redundancy oracle's distance: the reach-weighted Jensen-Shannon walk
// as documented (DESIGN.md §13), over std::map categoricals and FindChild
// lookups, sharing no code with flowgraph/similarity.cc. The lesser graph
// by the content order is walked first; at a matched pair the transition
// and duration distributions are compared over their key union in
// ascending order (the terminate outcome as key -1), then `a`'s children
// are visited in id order and `b`'s unmatched ones after them; a branch on
// one side only counts divergence 1. Each union outcome adds p/2 · log(p/m)
// and then q/2 · log(q/m), m = (p + q)/2, so the distances are bit-equal
// to the production walk's, not merely close.
using Categorical = std::map<int64_t, double>;

constexpr double kOracleLn2 = 0.6931471805599453;

Categorical OracleTransitions(const FlowGraph& g, FlowNodeId n) {
  Categorical out;
  const uint32_t paths = g.path_count(n);
  const auto share = [paths](uint32_t count) {
    return paths == 0 ? 0.0 : static_cast<double>(count) / paths;
  };
  out[-1] = share(g.terminate_count(n));
  for (FlowNodeId c : g.children(n)) {
    out[g.location(c)] = share(g.path_count(c));
  }
  return out;
}

Categorical OracleDurations(const FlowGraph& g, FlowNodeId n) {
  Categorical out;
  const double total = g.path_count(n);
  for (const DurationCount& dc : g.duration_counts(n)) {
    out[dc.duration] = dc.count / total;
  }
  return out;
}

double OracleJs(const Categorical& p, const Categorical& q) {
  std::set<int64_t> keys;
  for (const auto& [key, prob] : p) keys.insert(key);
  for (const auto& [key, prob] : q) keys.insert(key);
  double d = 0.0;
  for (int64_t key : keys) {
    const double pp = p.contains(key) ? p.at(key) : 0.0;
    const double qq = q.contains(key) ? q.at(key) : 0.0;
    const double m = 0.5 * (pp + qq);
    if (pp > 0.0) d += 0.5 * pp * std::log(pp / m);
    if (qq > 0.0) d += 0.5 * qq * std::log(qq / m);
  }
  return d / kOracleLn2;
}

void OracleWalk(const FlowGraph& a, const FlowGraph& b, FlowNodeId na,
                FlowNodeId nb, double* wd, double* tw) {
  const bool in_a = na != FlowGraph::kTerminate;
  const bool in_b = nb != FlowGraph::kTerminate;
  const double wa =
      in_a ? static_cast<double>(a.path_count(na)) / a.total_paths() : 0.0;
  const double wb =
      in_b ? static_cast<double>(b.path_count(nb)) / b.total_paths() : 0.0;
  const double w = 0.5 * (wa + wb);
  if (w <= 0.0) return;
  if (!in_a || !in_b) {
    *wd += w * 1.0;
    *tw += w;
    return;
  }
  const double dt =
      OracleJs(OracleTransitions(a, na), OracleTransitions(b, nb));
  if (na == FlowGraph::kRoot) {
    *wd += w * dt;
  } else {
    const double dd = OracleJs(OracleDurations(a, na), OracleDurations(b, nb));
    *wd += w * 0.5 * (dt + dd);
  }
  *tw += w;
  for (FlowNodeId ca : a.children(na)) {
    OracleWalk(a, b, ca, b.FindChild(nb, a.location(ca)), wd, tw);
  }
  for (FlowNodeId cb : b.children(nb)) {
    if (a.FindChild(na, b.location(cb)) == FlowGraph::kTerminate) {
      OracleWalk(a, b, FlowGraph::kTerminate, cb, wd, tw);
    }
  }
}

// The content order: node by node the path and terminate counts, the
// location, the child id list and the (duration, count) list, then the
// node count.
bool OracleContentLess(const FlowGraph& a, const FlowGraph& b) {
  using NodeContent =
      std::tuple<uint32_t, uint32_t, NodeId, std::vector<FlowNodeId>,
                 std::vector<std::pair<Duration, uint32_t>>>;
  const auto content = [](const FlowGraph& g, FlowNodeId v) {
    NodeContent c{g.path_count(v), g.terminate_count(v), g.location(v), {},
                  {}};
    for (FlowNodeId k : g.children(v)) std::get<3>(c).push_back(k);
    for (const DurationCount& dc : g.duration_counts(v)) {
      std::get<4>(c).emplace_back(dc.duration, dc.count);
    }
    return c;
  };
  const size_t n = std::min(a.num_nodes(), b.num_nodes());
  for (FlowNodeId v = 0; v < n; ++v) {
    const NodeContent ca = content(a, v);
    const NodeContent cb = content(b, v);
    if (ca != cb) return ca < cb;
  }
  return a.num_nodes() < b.num_nodes();
}

double OracleDistance(const FlowGraph& x, const FlowGraph& y) {
  const bool swap = OracleContentLess(y, x);
  const FlowGraph& a = swap ? y : x;
  const FlowGraph& b = swap ? x : y;
  if (a.total_paths() == 0 && b.total_paths() == 0) return 0.0;
  if (a.total_paths() == 0 || b.total_paths() == 0) return 1.0;
  double wd = 0.0;
  double tw = 0.0;
  OracleWalk(a, b, FlowGraph::kRoot, FlowGraph::kRoot, &wd, &tw);
  return tw <= 0.0 ? 0.0 : wd / tw;
}

// One materialized cell as the oracles see it.
struct OracleCell {
  std::vector<uint32_t> tids;
  FlowGraph graph;
  // The oracle distance to each materialized parent at the same path level
  // (filled by AddParentDistances).
  std::vector<double> parent_distances;

  // Definition 4.4: at least one parent, and within tau of every one.
  bool RedundantAt(double tau) const {
    return !parent_distances.empty() &&
           std::ranges::all_of(parent_distances,
                               [tau](double d) { return d <= tau; });
  }
};

// cells[i][p] holds the cells of cuboid <plan.item_levels[i],
// plan.path_levels[p]>.
using OracleCells = std::vector<std::vector<std::map<Itemset, OracleCell>>>;

// Materializes a flowcube from any miner's output, mirroring the builder's
// measure phase with exceptions off: for every cuboid, the frequent cells'
// member paths are gathered and their flowgraph is rebuilt from the
// aggregated raw paths. Because supports and graphs come from the raw
// records (not from the miner's counts), the cells of two miners agree iff
// their frequent-cell sets agree.
OracleCells CellsFromMining(const PathDatabase& db, const FlowCubePlan& plan,
                            const TransformedDatabase& tdb,
                            const MiningResult& result) {
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

  OracleCells cells(plan.item_levels.size());
  for (size_t i = 0; i < plan.item_levels.size(); ++i) {
    const ItemLevel& il = plan.item_levels[i];
    std::unordered_set<Itemset, ItemsetHash> frequent_cells;
    for (Itemset& cell : result.CellsAtLevel(il)) {
      frequent_cells.insert(std::move(cell));
    }
    cells[i].resize(plan.path_levels.size());
    for (const auto& [cell_key, tids] : MembersAtLevel(db, il, cat)) {
      if (!frequent_cells.contains(cell_key)) continue;
      for (size_t p = 0; p < plan.path_levels.size(); ++p) {
        OracleCell& cell = cells[i][p][cell_key];
        cell.tids = tids;
        cell.graph = BuildFlowGraph(PathView(agg[p], tids));
      }
    }
  }
  return cells;
}

// Fills every cell's parent distances. A parent generalizes one dimension
// by one level; its key is that of the cell's first member at the parent's
// item level, and it counts when the plan holds that level and the cell is
// materialized there.
void AddParentDistances(const PathDatabase& db, const FlowCubePlan& plan,
                        const ItemCatalog& cat, OracleCells* cells) {
  Itemset parent_key;
  for (size_t i = 0; i < plan.item_levels.size(); ++i) {
    const ItemLevel& il = plan.item_levels[i];
    for (size_t d = 0; d < il.levels.size(); ++d) {
      if (il.levels[d] == 0) continue;
      ItemLevel parent_level = il;
      parent_level.levels[d]--;
      const auto pi = std::ranges::find_if(
          plan.item_levels, [&](const ItemLevel& level) {
            return level.levels == parent_level.levels;
          });
      if (pi == plan.item_levels.end()) continue;
      const size_t parent_index =
          static_cast<size_t>(pi - plan.item_levels.begin());
      for (size_t p = 0; p < plan.path_levels.size(); ++p) {
        for (auto& [key, cell] : (*cells)[i][p]) {
          ASSERT_TRUE(KeyAtLevel(db, cell.tids.front(), parent_level, cat,
                                 &parent_key));
          const auto parent = (*cells)[parent_index][p].find(parent_key);
          if (parent == (*cells)[parent_index][p].end()) continue;
          cell.parent_distances.push_back(
              OracleDistance(cell.graph, parent->second.graph));
        }
      }
    }
  }
}

// The canonical dump of the oracle's cube, with the oracle's redundancy
// flags at `tau` (all clear when absent).
std::string OracleDump(const PathDatabase& db, const FlowCubePlan& plan,
                       const OracleCells& cells, std::optional<double> tau) {
  FlowCube cube(plan, db.schema_ptr());
  for (size_t i = 0; i < plan.item_levels.size(); ++i) {
    for (size_t p = 0; p < plan.path_levels.size(); ++p) {
      for (const auto& [key, oracle] : cells[i][p]) {
        FlowCell cell;
        cell.dims = key;
        cell.support = static_cast<uint32_t>(oracle.tids.size());
        cell.graph = oracle.graph;
        cell.redundant = tau.has_value() && oracle.RedundantAt(*tau);
        cube.mutable_cuboid(i, p).Insert(std::move(cell));
      }
    }
  }
  return DumpFlowCube(cube);
}

// Compares every built cell's flag with the oracle's at `tau` and tallies
// the cells whose flag the distances decided: redundant, and not redundant
// although they have a parent.
void ExpectFlagsMatchOracle(const FlowCube& built, const OracleCells& cells,
                            double tau, size_t* redundant,
                            size_t* not_redundant) {
  const FlowCubePlan& plan = built.plan();
  for (size_t i = 0; i < plan.item_levels.size(); ++i) {
    for (size_t p = 0; p < plan.path_levels.size(); ++p) {
      EXPECT_EQ(built.cuboid(i, p).size(), cells[i][p].size());
      for (const auto& [key, oracle] : cells[i][p]) {
        const FlowCell* cell = built.cuboid(i, p).Find(key);
        ASSERT_NE(cell, nullptr);
        const bool want = oracle.RedundantAt(tau);
        EXPECT_EQ(cell->redundant, want)
            << "cell of " << key.size() << " item(s) in cuboid " << i << "/"
            << p << ", parent distances " << testing::PrintToString(
                                                 oracle.parent_distances);
        if (want) {
          ++*redundant;
        } else if (!oracle.parent_distances.empty()) {
          ++*not_redundant;
        }
      }
    }
  }
}

// The largest parent distance of the median cell that has parents: a tau
// at which that cell is redundant only because the verdict is `>`, not
// `>=`.
double ObservedTau(const OracleCells& cells) {
  std::vector<double> max_distances;
  for (const auto& by_path_level : cells) {
    for (const auto& cuboid : by_path_level) {
      for (const auto& [key, cell] : cuboid) {
        if (cell.parent_distances.empty()) continue;
        max_distances.push_back(
            *std::ranges::max_element(cell.parent_distances));
      }
    }
  }
  if (max_distances.empty()) return 0.0;
  std::ranges::nth_element(max_distances,
                           max_distances.begin() + max_distances.size() / 2);
  return max_distances[max_distances.size() / 2];
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
  // Not vacuous either: every workload's apex alone has frequent segments,
  // at the timed levels and at the duration-'*' ones.
  const SegmentsChecked segments_checked = ExpectSegmentsMatchOracle(
      db, plan, tdb, shared, cubing, w.min_support);
  EXPECT_GT(segments_checked.timed, 0u);
  EXPECT_GT(segments_checked.star, 0u);

  // Byte-equal canonical dumps: Shared-derived cube == Cubing-derived cube
  // == the production builder's cube, with redundancy flags from the
  // oracle's own distances (exceptions off — they are holistic
  // post-processing, not part of the mining contract).
  OracleCells shared_cells = CellsFromMining(db, plan, tdb, shared);
  const OracleCells cubing_cells = CellsFromMining(db, plan, tdb, cubing);
  EXPECT_EQ(OracleDump(db, plan, shared_cells, std::nullopt),
            OracleDump(db, plan, cubing_cells, std::nullopt));
  AddParentDistances(db, plan, tdb.catalog(), &shared_cells);

  FlowCubeBuilderOptions bopts;
  bopts.min_support = w.min_support;
  bopts.compute_exceptions = false;
  bopts.mark_redundant = true;
  bopts.num_threads = 1;
  // The default tau, then one the oracle observed as the largest parent
  // distance of some cell: at it, a `>=` verdict would clear that flag.
  const double observed_tau = ObservedTau(shared_cells);
  for (const double tau : {bopts.redundancy_tau, observed_tau}) {
    SCOPED_TRACE("tau=" + testing::PrintToString(tau));
    bopts.redundancy_tau = tau;
    const Result<FlowCube> built = FlowCubeBuilder(bopts).Build(db, plan);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    size_t redundant = 0;
    size_t not_redundant = 0;
    ExpectFlagsMatchOracle(built.value(), shared_cells, tau, &redundant,
                           &not_redundant);
    EXPECT_EQ(OracleDump(db, plan, shared_cells, tau),
              DumpFlowCube(built.value()));
    if (tau == observed_tau) {
      // Not vacuous: the observed tau is a median, so both verdicts occur.
      EXPECT_GT(redundant, 0u);
      EXPECT_GT(not_redundant, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeded, DifferentialTest,
                         ::testing::Range(1, 51));

}  // namespace
}  // namespace flowcube
