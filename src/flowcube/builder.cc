#include "flowcube/builder.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/audit.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "flowcube/cell_build.h"
#include "mining/mining_result.h"
#include "mining/stage_chains.h"

namespace flowcube {

FlowCubeBuilder::FlowCubeBuilder(FlowCubeBuilderOptions options)
    : options_(options) {
  FC_CHECK_MSG(options_.min_support >= 1, "min_support must be >= 1");
}

Result<FlowCube> FlowCubeBuilder::Build(const PathDatabase& db,
                                        const FlowCubePlan& plan,
                                        FlowCubeBuildStats* stats) const {
  FlowCubeBuildStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  FC_AUDIT(AuditPathDatabase(db));
  TraceSpan build_span("flowcube.build");

  // One pool drives every phase. Each parallel loop either writes to a
  // pre-assigned slot of a shared array or accumulates into per-shard
  // partials merged at the phase boundary, so the cube and the stats are
  // bit-identical to a serial build for any thread count.
  ThreadPool pool(ResolveNumThreads(options_.num_threads));
  const size_t num_shards = pool.num_threads();
  stats->threads = num_shards;

  // --- Phase 0: transform paths into multi-level transactions.
  TraceSpan transform_span("flowcube.transform");
  Result<TransformedDatabase> transformed =
      TransformPathDatabase(db, plan.mining);
  stats->seconds_transform = transform_span.Stop();
  if (!transformed.ok()) return transformed.status();
  const TransformedDatabase& tdb = transformed.value();

  // --- Phase 1: one Shared mining run over the transformed database.
  TraceSpan mining_span("flowcube.mining");
  SharedMinerOptions mopts = options_.mining;
  mopts.min_support = options_.min_support;
  mopts.num_threads = static_cast<int>(num_shards);
  SharedMiner miner(tdb, mopts);
  SharedMiningOutput mined = miner.Run();
  stats->mining = mined.stats;
  const MiningResult result(&tdb, std::move(mined.frequent));
  stats->seconds_mining = mining_span.Stop();

  // --- Phase 2: materialize cells and their flowgraph measures.
  TraceSpan measures_span("flowcube.measures");
  FlowCube cube(plan, db.schema_ptr());
  const ItemCatalog& cat = tdb.catalog();
  const ExceptionMiner exception_miner(options_.exceptions);

  // Every path at every materialized path level, as the stage-item chain
  // the transform already resolved: the cells' graphs are counted from
  // these, with no per-member walk.
  StageChains chains(plan.path_levels, plan.mining.path_levels.size());
  for (const Transaction& txn : tdb.transactions()) chains.Append(txn, cat);
  std::vector<MeasureScratch> scratch(num_shards);

  for (size_t i = 0; i < plan.item_levels.size(); ++i) {
    const ItemLevel& il = plan.item_levels[i];
    // The frequent cells of this item level and their path ids. Kept
    // serial: it is one cheap hash per record, and it fixes the cell order
    // every later loop follows.
    std::unordered_map<Itemset, std::vector<uint32_t>, ItemsetHash> members;
    {
      std::unordered_set<Itemset, ItemsetHash> frequent_cells;
      for (Itemset& cell : result.CellsAtLevel(il)) {
        frequent_cells.insert(std::move(cell));
      }
      members.reserve(frequent_cells.size());
      Itemset key;
      for (uint32_t tid = 0; tid < db.size(); ++tid) {
        CellKeyAtLevel(db.record(tid), il, cat, db.schema(), &key);
        if (frequent_cells.contains(key)) {
          members[key].push_back(tid);
        }
      }
    }

    // Snapshot the cell order once; every (cell, path_level) pair is an
    // independent task whose result lands in a pre-assigned slot.
    std::vector<const std::pair<const Itemset, std::vector<uint32_t>>*>
        cells;
    cells.reserve(members.size());
    for (const auto& kv : members) cells.push_back(&kv);

    const size_t num_levels = plan.path_levels.size();
    std::vector<FlowCell> built(cells.size() * num_levels);
    std::vector<size_t> shard_exceptions(num_shards, 0);
    pool.ParallelForChunks(
        built.size(), /*grain=*/1,
        [&](size_t shard, size_t begin, size_t end) {
          for (size_t task = begin; task < end; ++task) {
            const size_t p = task / cells.size();
            const auto& [key, tids] = *cells[task % cells.size()];
            FlowCell& cell = built[task];
            cell.dims = key;
            const std::vector<SegmentPattern> segments =
                options_.compute_exceptions && !IsDurationStarLevel(plan, p)
                    ? result.SegmentsForCell(key, plan.path_levels[p])
                    : std::vector<SegmentPattern>();
            shard_exceptions[shard] += FillCellMeasure(
                chains.level(p), tids, segments, cat,
                options_.compute_exceptions ? &exception_miner : nullptr,
                &scratch[shard], &cell);
          }
        });
    for (size_t n : shard_exceptions) stats->exceptions_found += n;

    // Serial insertion in the snapshot order keeps cuboid iteration order
    // identical to the serial build's. Cardinality is known here, so every
    // cuboid is pre-sized once and never rehashes during insertion.
    for (size_t p = 0; p < num_levels; ++p) {
      Cuboid& cuboid = cube.mutable_cuboid(i, p);
      cuboid.Reserve(cells.size());
      for (size_t c = 0; c < cells.size(); ++c) {
        cuboid.Insert(std::move(built[p * cells.size() + c]));
        stats->cells_materialized++;
      }
    }
  }
  stats->seconds_measures = measures_span.Stop();

  // --- Phase 3: redundancy marking, walking cells from low abstraction to
  // high (Definition 4.4: redundant iff similar to every materialized
  // parent at the same path level). Within one cuboid every cell is
  // independent: it writes only its own flag and reads parent graphs from
  // other cuboids, which no longer change after phase 2.
  TraceSpan redundancy_span("flowcube.redundancy");
  if (options_.mark_redundant) {
    for (size_t i = 0; i < plan.item_levels.size(); ++i) {
      const ItemLevel& il = plan.item_levels[i];
      for (size_t p = 0; p < plan.path_levels.size(); ++p) {
        Cuboid& cuboid = cube.mutable_cuboid(i, p);
        std::vector<FlowCell*> cuboid_cells;
        cuboid_cells.reserve(cuboid.size());
        cuboid.ForEachMutable(
            [&cuboid_cells](FlowCell* cell) { cuboid_cells.push_back(cell); });
        std::vector<size_t> shard_marked(num_shards, 0);
        pool.ParallelForChunks(
            cuboid_cells.size(), /*grain=*/1,
            [&](size_t shard, size_t begin, size_t end) {
              for (size_t ci = begin; ci < end; ++ci) {
                FlowCell* cell = cuboid_cells[ci];
                if (CellIsRedundant(cube, il, p, *cell,
                                    options_.redundancy_tau,
                                    options_.similarity)) {
                  cell->redundant = true;
                  shard_marked[shard]++;
                }
              }
            });
        for (size_t n : shard_marked) stats->cells_marked_redundant += n;
      }
    }
  }
  stats->seconds_redundancy = redundancy_span.Stop();
  stats->seconds_total = build_span.Stop();

  {
    MetricRegistry& reg = MetricRegistry::Global();
    static Counter& m_builds = reg.counter("flowcube.build.runs");
    static Counter& m_paths = reg.counter("flowcube.build.paths");
    static Counter& m_cells = reg.counter("flowcube.build.cells_materialized");
    static Counter& m_exceptions =
        reg.counter("flowcube.build.exceptions_found");
    static Counter& m_redundant =
        reg.counter("flowcube.build.cells_marked_redundant");
    static Gauge& m_threads = reg.gauge("flowcube.build.threads");
    static Gauge& m_memory = reg.gauge("flowcube.memory_bytes");
    m_builds.Increment();
    m_paths.Add(db.size());
    m_cells.Add(stats->cells_materialized);
    m_exceptions.Add(stats->exceptions_found);
    m_redundant.Add(stats->cells_marked_redundant);
    m_threads.Set(static_cast<int64_t>(num_shards));
    m_memory.Set(static_cast<int64_t>(cube.MemoryUsage()));
  }
#if FC_AUDIT_ENABLED
  {
    FlowGraphAuditOptions graph_options;
    if (options_.compute_exceptions) {
      graph_options.min_condition_support = options_.exceptions.min_support;
    }
    FC_AUDIT(AuditFlowCube(cube, options_.min_support, graph_options));
  }
#endif
  return cube;
}

}  // namespace flowcube
