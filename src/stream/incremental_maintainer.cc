#include "stream/incremental_maintainer.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "flowcube/cell_build.h"
#include "mining/local_segments.h"
#include "path/path_database.h"

namespace flowcube {
namespace {

struct MaintainMetrics {
  Counter& batches;
  Counter& records;
  Counter& records_retired;
  Counter& cells_rebuilt;
  Counter& cells_promoted;
  Counter& cells_demoted;
  Counter& redundancy_updates;
  Gauge& live_records;
  // Shared with the batch builder: whoever touched the cube last reports
  // its current storage footprint.
  Gauge& memory_bytes;

  static MaintainMetrics& Get() {
    MetricRegistry& reg = MetricRegistry::Global();
    static MaintainMetrics m{reg.counter("stream.maintain.batches"),
                             reg.counter("stream.maintain.records"),
                             reg.counter("stream.maintain.records_retired"),
                             reg.counter("stream.maintain.cells_rebuilt"),
                             reg.counter("stream.maintain.cells_promoted"),
                             reg.counter("stream.maintain.cells_demoted"),
                             reg.counter("stream.maintain.redundancy_updates"),
                             reg.gauge("stream.maintain.live_records"),
                             reg.gauge("flowcube.memory_bytes")};
    return m;
  }
};

}  // namespace

Result<IncrementalMaintainer> IncrementalMaintainer::Create(
    SchemaPtr schema, FlowCubePlan plan, IncrementalMaintainerOptions options) {
  if (schema == nullptr) {
    return Status::InvalidArgument("IncrementalMaintainer requires a schema");
  }
  if (options.build.min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  if (options.window_records > 0 && options.build.compute_exceptions) {
    return Status::InvalidArgument(
        "sliding-window maintenance cannot compute exceptions: segment "
        "ordering depends on the full stream's stage interning order; set "
        "build.compute_exceptions = false");
  }
  // Mirror the checks TransformedDatabase/TransformPathDatabase enforce with
  // FC_CHECK, returning a Status instead of aborting on a bad plan.
  const MiningPlan& mining = plan.mining;
  if (mining.dim_levels.size() != schema->num_dimensions()) {
    return Status::InvalidArgument(
        "mining plan does not match the schema's dimension count");
  }
  if (mining.cuts.empty() || mining.path_levels.empty()) {
    return Status::InvalidArgument(
        "mining plan needs at least one cut and one path level");
  }
  if (mining.path_levels.size() >= 16) {
    return Status::InvalidArgument(
        "at most 15 path abstraction levels are supported");
  }
  for (const PathLevel& pl : mining.path_levels) {
    if (pl.cut_index < 0 ||
        pl.cut_index >= static_cast<int>(mining.cuts.size())) {
      return Status::InvalidArgument("path level cut index out of range");
    }
    if (pl.duration_level < 0 ||
        pl.duration_level > schema->durations.MaxLevel()) {
      return Status::InvalidArgument("path level duration level out of range");
    }
  }
  if (plan.item_levels.empty() || plan.path_levels.empty()) {
    return Status::InvalidArgument(
        "flowcube plan needs at least one item level and one path level");
  }
  for (const ItemLevel& il : plan.item_levels) {
    if (il.levels.size() != schema->num_dimensions()) {
      return Status::InvalidArgument(
          "item level does not match the schema's dimension count");
    }
    for (size_t d = 0; d < il.levels.size(); ++d) {
      if (il.levels[d] < 0 ||
          il.levels[d] > schema->dimensions[d].MaxLevel()) {
        return Status::InvalidArgument(
            StrFormat("item level out of range for dimension %zu", d));
      }
    }
  }
  for (int p : plan.path_levels) {
    if (p < 0 || p >= static_cast<int>(mining.path_levels.size())) {
      return Status::InvalidArgument(
          "materialized path level index out of range");
    }
  }
  return IncrementalMaintainer(std::move(schema), std::move(plan), options);
}

IncrementalMaintainer::IncrementalMaintainer(
    SchemaPtr schema, FlowCubePlan plan, IncrementalMaintainerOptions options)
    : schema_(std::move(schema)),
      plan_(std::move(plan)),
      options_(options),
      exception_miner_(options.build.exceptions),
      tdb_(schema_, plan_.mining),
      chains_(plan_.path_levels, plan_.mining.path_levels.size()),
      cells_(plan_.item_levels.size()),
      cube_(plan_, schema_) {}

bool IncrementalMaintainer::KeyComplete(const ItemLevel& il,
                                        const Itemset& key) {
  size_t expected = 0;
  for (int level : il.levels) {
    if (level > 0) expected++;
  }
  return key.size() == expected;
}

Status IncrementalMaintainer::Apply(const StreamDelta& delta,
                                    ApplyStats* stats) {
  return ApplyRecords(delta.records, stats);
}

Status IncrementalMaintainer::ApplyRecords(std::span<const PathRecord> records,
                                           ApplyStats* stats) {
  ApplyStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = ApplyStats();
  TraceSpan span("stream.apply");

  // Validate the whole delta before touching any index, so a malformed
  // record leaves the maintainer (and its cube) exactly as it was.
  for (const PathRecord& rec : records) {
    FC_RETURN_IF_ERROR(ValidateRecord(*schema_, rec));
  }
  FC_CHECK_MSG(records_.size() + records.size() <
                   std::numeric_limits<uint32_t>::max(),
               "transaction id space exhausted");

  // The delta size is known up front: pre-size the live indexes once so the
  // append loop never reallocates mid-batch.
  const size_t total_records = records_.size() + records.size();
  records_.reserve(total_records);

  std::vector<KeySet> dirty(plan_.item_levels.size());
  for (const PathRecord& rec : records) {
    AppendToIndexes(rec, &dirty);
    stats->records_applied++;
  }
  if (options_.window_records > 0) {
    while (live_record_count() > options_.window_records) {
      RetireOldest(&dirty);
      stats->records_retired++;
    }
  }

  {
    TraceSpan cells_span("stream.apply.cells");
    RebuildDirtyCells(dirty, stats);
    stats->seconds_cells = cells_span.Stop();
  }
  if (options_.build.mark_redundant) {
    TraceSpan redundancy_span("stream.apply.redundancy");
    RecomputeRedundancy(dirty, stats);
    stats->seconds_redundancy = redundancy_span.Stop();
  }
  stats->seconds = span.Stop();

  MaintainMetrics& metrics = MaintainMetrics::Get();
  metrics.batches.Increment();
  metrics.records.Add(stats->records_applied);
  metrics.records_retired.Add(stats->records_retired);
  metrics.cells_rebuilt.Add(stats->cells_rebuilt);
  metrics.cells_promoted.Add(stats->cells_promoted);
  metrics.cells_demoted.Add(stats->cells_demoted);
  metrics.redundancy_updates.Add(stats->redundancy_updates);
  metrics.live_records.Set(static_cast<int64_t>(live_record_count()));
  metrics.memory_bytes.Set(static_cast<int64_t>(cube_.MemoryUsage()));
  if (publish_hook_) publish_hook_(*this);
  return Status::OK();
}

void IncrementalMaintainer::AppendToIndexes(const PathRecord& rec,
                                            std::vector<KeySet>* dirty) {
  const uint32_t tid = static_cast<uint32_t>(records_.size());
  records_.push_back(rec);
  // Appending in tid order reproduces the stage-item interning order of a
  // batch transform over the same records.
  tdb_.Append(records_[tid]);
  const ItemCatalog& cat = tdb_.catalog();
  chains_.Append(tdb_.transactions()[tid], cat);

  Itemset key;
  for (size_t i = 0; i < plan_.item_levels.size(); ++i) {
    const ItemLevel& il = plan_.item_levels[i];
    CellKeyAtLevel(records_[tid], il, cat, *schema_, &key);
    // Records whose dimension values sit above the level belong to no cell
    // of this cuboid (their key misses a dimension), same as in the batch
    // build where mining emits only level-complete cell keys.
    if (!KeyComplete(il, key)) continue;
    cells_[i][key].tids.push_back(tid);
    (*dirty)[i].insert(key);
  }
}

void IncrementalMaintainer::RetireOldest(std::vector<KeySet>* dirty) {
  FC_CHECK(first_live_ < records_.size());
  const uint32_t tid = static_cast<uint32_t>(first_live_);
  const PathRecord& rec = records_[tid];
  const ItemCatalog& cat = tdb_.catalog();
  Itemset key;
  for (size_t i = 0; i < plan_.item_levels.size(); ++i) {
    const ItemLevel& il = plan_.item_levels[i];
    CellKeyAtLevel(rec, il, cat, *schema_, &key);
    if (!KeyComplete(il, key)) continue;
    const auto it = cells_[i].find(key);
    FC_CHECK_MSG(it != cells_[i].end() && !it->second.tids.empty() &&
                     it->second.tids.front() == tid,
                 "membership index out of sync with the record log");
    it->second.tids.erase(it->second.tids.begin());
    (*dirty)[i].insert(key);
  }
  first_live_++;
}

void IncrementalMaintainer::RebuildDirtyCells(const std::vector<KeySet>& dirty,
                                              ApplyStats* stats) {
  const ItemCatalog& cat = tdb_.catalog();
  const uint32_t min_support = options_.build.min_support;
  for (size_t i = 0; i < plan_.item_levels.size(); ++i) {
    for (const Itemset& key : dirty[i]) {
      const auto it = cells_[i].find(key);
      FC_CHECK(it != cells_[i].end());
      CellState& state = it->second;
      const uint32_t support = static_cast<uint32_t>(state.tids.size());
      // The iceberg condition. The apex cell (all dimensions at '*') is
      // always materialized — mining emits it unconditionally, so the batch
      // build keeps it regardless of delta.
      const bool qualifies =
          key.empty() ? support >= 1 : support >= min_support;
      if (!qualifies) {
        if (state.materialized) {
          for (size_t p = 0; p < plan_.path_levels.size(); ++p) {
            cube_.mutable_cuboid(i, p).Erase(key);
          }
          state.materialized = false;
          stats->cells_demoted++;
        }
        if (state.tids.empty()) cells_[i].erase(it);
        continue;
      }
      if (!state.materialized) stats->cells_promoted++;
      for (size_t p = 0; p < plan_.path_levels.size(); ++p) {
        const LevelChains& chains = chains_.level(p);
        FlowCell cell;
        cell.dims = key;
        const std::vector<SegmentPattern> segments =
            options_.build.compute_exceptions &&
                    !IsDurationStarLevel(plan_, p)
                ? MineCellSegments(chains, state.tids, min_support)
                : std::vector<SegmentPattern>();
        FillCellMeasure(
            chains, state.tids, segments, cat,
            options_.build.compute_exceptions ? &exception_miner_ : nullptr,
            &scratch_, &cell);
        Cuboid& cuboid = cube_.mutable_cuboid(i, p);
        cuboid.Erase(key);
        cuboid.Insert(std::move(cell));
        stats->cells_rebuilt++;
      }
      state.materialized = true;
    }
  }
}

void IncrementalMaintainer::RecomputeRedundancy(
    const std::vector<KeySet>& dirty, ApplyStats* stats) {
  const ItemCatalog& cat = cube_.catalog();
  for (size_t i = 0; i < plan_.item_levels.size(); ++i) {
    const ItemLevel& il = plan_.item_levels[i];
    // A cell's redundancy flag depends on its own graph and its materialized
    // parents' graphs, so it must be re-evaluated when the cell itself or
    // any parent cell changed (promotion and demotion included — both are
    // membership changes, so both keys are in the dirty sets).
    std::vector<Itemset> affected;
    cube_.cuboid(i, 0).ForEach([&](const FlowCell& cell) {
      bool hit = dirty[i].contains(cell.dims);
      for (size_t d = 0; !hit && d < schema_->num_dimensions(); ++d) {
        if (il.levels[d] == 0) continue;
        ItemLevel parent_level = il;
        parent_level.levels[d]--;
        const int pi = plan_.FindItemLevel(parent_level);
        if (pi < 0) continue;
        Itemset parent_key;
        if (!ParentCellKey(cell.dims, d, cat, *schema_, &parent_key)) continue;
        hit = dirty[static_cast<size_t>(pi)].contains(parent_key);
      }
      if (hit) affected.push_back(cell.dims);
    });
    for (size_t p = 0; p < plan_.path_levels.size(); ++p) {
      Cuboid& cuboid = cube_.mutable_cuboid(i, p);
      for (const Itemset& key : affected) {
        FlowCell* cell = cuboid.FindMutable(key);
        FC_CHECK(cell != nullptr);
        cell->redundant =
            CellIsRedundant(cube_, il, p, *cell, options_.build.redundancy_tau,
                            options_.build.similarity);
        stats->redundancy_updates++;
      }
    }
  }
}

std::vector<PathRecord> IncrementalMaintainer::LiveRecords() const {
  return std::vector<PathRecord>(records_.begin() +
                                     static_cast<ptrdiff_t>(first_live_),
                                 records_.end());
}

}  // namespace flowcube
