#ifndef FLOWCUBE_STREAM_INCREMENTAL_MAINTAINER_H_
#define FLOWCUBE_STREAM_INCREMENTAL_MAINTAINER_H_

#include <functional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "flowcube/builder.h"
#include "flowcube/cell_build.h"
#include "flowcube/flowcube.h"
#include "flowgraph/exception_miner.h"
#include "mining/stage_chains.h"
#include "mining/transform.h"
#include "stream/stream_ingestor.h"

namespace flowcube {

class CheckpointCodec;

// Knobs of incremental flowcube maintenance.
struct IncrementalMaintainerOptions {
  // The construction parameters the maintained cube must agree with: the
  // iceberg threshold delta (min_support), exception mining, and redundancy
  // marking all apply exactly as in FlowCubeBuilder, so the maintained cube
  // dumps byte-identically to a batch rebuild over the union database.
  // (num_threads and the mining pruning toggles are ignored — maintenance
  // re-mines locally, per dirty cell.)
  FlowCubeBuilderOptions build;

  // Sliding window: when > 0, only the newest `window_records` path records
  // stay live; older records retire as new ones arrive, demoting cells that
  // drop below delta. Incompatible with build.compute_exceptions (segment
  // tie-breaking depends on stage-item interning order, which a fresh
  // rebuild over the window alone would not reproduce); Create() rejects
  // the combination. 0 = unbounded, the paper's append-only setting.
  uint32_t window_records = 0;
};

// Counters filled by one Apply() call.
struct ApplyStats {
  size_t records_applied = 0;
  size_t records_retired = 0;
  // Cells whose measure was recomputed, summed over path levels.
  size_t cells_rebuilt = 0;
  // Cells crossing the iceberg threshold delta (counted once per key, not
  // per path level).
  size_t cells_promoted = 0;
  size_t cells_demoted = 0;
  // Redundancy flags re-evaluated, summed over path levels.
  size_t redundancy_updates = 0;
  // Wall time of the whole batch, and of its two cell stages: rebuilding
  // the dirty cells (trace span stream.apply.cells) and re-evaluating
  // redundancy flags (stream.apply.redundancy; 0 when redundancy marking
  // is off). The rest of `seconds` is validation, index appends and
  // window retirement.
  double seconds = 0.0;
  double seconds_cells = 0.0;
  double seconds_redundancy = 0.0;
};

// Folds micro-batch deltas into a live FlowCube. Instead of re-running the
// whole transform/Shared/measure pipeline, each Apply():
//   1. appends the delta's records to the live indexes (transaction table,
//      per-path-level stage chains, per-item-level membership lists);
//   2. updates cell supports and promotes/demotes cells across the iceberg
//      threshold delta, re-mining segments and rebuilding flowgraph
//      measures only for the cells the delta touched;
//   3. re-evaluates redundancy flags only for touched cells and cells
//      whose parent (one-dimension generalization) was touched.
// The maintained cube is bit-identical to FlowCubeBuilder::Build over the
// union path database after every Apply — cells are assembled through the
// same flowcube/cell_build.h primitives, and the per-cell local segment
// miner is exact (mining/local_segments.h).
//
// Threading contract: the maintainer holds no locks and must be externally
// synchronized — one logical owner calls Apply, and cube() readers must not
// overlap an Apply. The planned serving layer keeps this class
// single-writer and publishes immutable sealed-cube snapshots to readers
// via epoch/RCU pointer swap instead of locking here (ROADMAP: concurrent
// query serving); the thread-safety preset keeps that boundary honest by
// annotating every lock that does exist in src/common and src/stream.
class IncrementalMaintainer {
 public:
  // Validates plan/options against the schema. Rejects
  // window_records > 0 together with build.compute_exceptions.
  static Result<IncrementalMaintainer> Create(
      SchemaPtr schema, FlowCubePlan plan,
      IncrementalMaintainerOptions options);

  IncrementalMaintainer(IncrementalMaintainer&&) = default;
  IncrementalMaintainer& operator=(IncrementalMaintainer&&) = default;
  IncrementalMaintainer(const IncrementalMaintainer&) = delete;
  IncrementalMaintainer& operator=(const IncrementalMaintainer&) = delete;

  const PathSchema& schema() const { return *schema_; }
  SchemaPtr schema_ptr() const { return schema_; }
  const FlowCubePlan& plan() const { return plan_; }
  const IncrementalMaintainerOptions& options() const { return options_; }

  // The maintained cube. Valid (and queryable) between Apply calls.
  const FlowCube& cube() const { return cube_; }

  // Folds one delta into the cube.
  Status Apply(const StreamDelta& delta, ApplyStats* stats = nullptr);
  Status ApplyRecords(std::span<const PathRecord> records,
                      ApplyStats* stats = nullptr);

  // Called after every successful Apply/ApplyRecords, while the cube is
  // quiescent — the hook may read cube() and live_record_count() freely.
  // The serving layer uses this to clone and publish an immutable snapshot
  // per batch (serve/snapshot_registry.h); stream/ itself stays unaware of
  // the serving types. nullptr clears the hook. Runs on the Apply caller's
  // thread; external synchronization rules are unchanged.
  using PublishHook = std::function<void(const IncrementalMaintainer&)>;
  void SetPublishHook(PublishHook hook) { publish_hook_ = std::move(hook); }

  // Records currently live (the whole stream, or the trailing window), in
  // ingestion order. A batch rebuild over exactly these records reproduces
  // cube() byte-for-byte.
  std::vector<PathRecord> LiveRecords() const;
  size_t live_record_count() const { return records_.size() - first_live_; }
  // Total records ever applied, including retired ones.
  uint64_t total_records() const { return records_.size(); }

 private:
  friend class CheckpointCodec;

  // Live membership of one cell: its member transaction ids (ascending;
  // indexes into records_ and the chains) and whether it is currently
  // materialized in the cube.
  struct CellState {
    std::vector<uint32_t> tids;
    bool materialized = false;
  };
  using CellMap = std::unordered_map<Itemset, CellState, ItemsetHash>;
  using KeySet = std::unordered_set<Itemset, ItemsetHash>;

  IncrementalMaintainer(SchemaPtr schema, FlowCubePlan plan,
                        IncrementalMaintainerOptions options);

  // True when `key` is a complete cell coordinate at item level `il` (one
  // item for every dimension whose level is > 0); incomplete keys belong to
  // no cell of that cuboid.
  static bool KeyComplete(const ItemLevel& il, const Itemset& key);

  // Appends one (validated) record to every index; records the touched cell
  // key per item level in `dirty`.
  void AppendToIndexes(const PathRecord& rec, std::vector<KeySet>* dirty);

  // Retires the oldest live record; records touched keys in `dirty`.
  void RetireOldest(std::vector<KeySet>* dirty);

  // Phase 2 of Apply: rebuild/promote/demote every dirty cell.
  void RebuildDirtyCells(const std::vector<KeySet>& dirty, ApplyStats* stats);

  // Phase 3 of Apply: recompute redundancy flags of cells affected by the
  // dirty set (the cells themselves plus their children).
  void RecomputeRedundancy(const std::vector<KeySet>& dirty,
                           ApplyStats* stats);

  SchemaPtr schema_;
  FlowCubePlan plan_;
  IncrementalMaintainerOptions options_;
  ExceptionMiner exception_miner_;

  // Every record ever applied; index = transaction id. Retired records keep
  // their slot (ids are never reused) but drop out of every membership.
  std::vector<PathRecord> records_;
  size_t first_live_ = 0;

  // Encoded transactions + the item/stage catalog, maintained in lockstep
  // with records_. Stage-item interning order matches a batch transform of
  // the same records in the same order, which keeps exception segment
  // ordering identical to a full rebuild.
  TransformedDatabase tdb_;

  // chains_.level(p)[tid] = records_[tid]'s stage chain at materialized
  // path level p (indexes plan_.path_levels), the builder's measure input.
  StageChains chains_;
  MeasureScratch scratch_;

  // cells_[i] = membership of every (complete) cell key seen at item level
  // i, including keys below the iceberg threshold.
  std::vector<CellMap> cells_;

  FlowCube cube_;
  PublishHook publish_hook_;
};

}  // namespace flowcube

#endif  // FLOWCUBE_STREAM_INCREMENTAL_MAINTAINER_H_
