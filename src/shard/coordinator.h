#ifndef FLOWCUBE_SHARD_COORDINATOR_H_
#define FLOWCUBE_SHARD_COORDINATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "flowcube/flowcube.h"
#include "flowgraph/similarity.h"
#include "serve/protocol.h"
#include "shard/backend.h"

namespace flowcube {

// Coordinator knobs.
struct ShardCoordinatorOptions {
  // The *global* iceberg threshold delta: a cell exists for clients when
  // its per-shard supports sum to at least this. Must equal the
  // min_support a monolithic build would use.
  uint32_t min_support = 2;
  // Distance options for kSimilarity (the single-node service uses the
  // defaults; keep them unless every node agrees).
  SimilarityOptions similarity;
};

// One coordinator answer: the public FCQP response plus the epoch vector —
// for each shard, the snapshot epoch its contribution was pinned at. The
// response's own epoch field is always 0: a fanned-out answer has no single
// epoch, the vector is the honest version. Every public query costs
// exactly one internal round per shard, so each shard's slice of the
// answer is internally consistent at its pinned epoch by construction.
// `epochs` is empty when the query failed before fan-out (resolution or
// shape errors) and partial when a shard failed mid-fan-out: it then holds
// the shards whose answers were accepted before the failing one.
struct CoordinatorResult {
  QueryResponse response;
  std::vector<uint64_t> epochs;
};

// Fans public FCQP queries out to N shards and merges their results into
// byte-canonical responses (DESIGN.md §15). The coordinator holds no cube
// data — only a "skeleton" FlowCube (plan + schema + item catalog, zero
// cells) for name resolution and rendering. Measures arrive through the
// backend's typed fetches: in process, as flowgraphs that share the
// shards' own sealed columns; from remote shards, decoded from the wire
// codec. Supports are summed first; only the graphs of cells at or above
// the global threshold are combined, with the algebraic MergeFrom in
// ascending shard order, and canonicalized (FlowGraph::Canonical — shard
// counts must not leak into node numbering), then rendered with the same
// dump primitives the single-node service uses. kStats counts cells with
// one k-way merge per cuboid of the shards' sorted (key, support) columns.
// Responses are therefore byte-identical for any shard count and every
// transport; the shard differential suite pins this against a 1-shard
// deployment.
//
// Each request records its stage times in three histograms:
// shard.coordinator.fetch_seconds (the fan-out), merge_seconds (summing,
// merging and canonicalizing) and render_seconds (the response body).
//
// Error semantics mirror the single-node QueryService exactly (same codes,
// same messages) for every data-dependent outcome. Transport failures add
// the partial-failure vocabulary: kUnavailable / kDeadlineExceeded /
// kInternal with a "shard <i>: " message prefix. Shards are asked in
// ascending order and the first one that fails, whether by its transport,
// an error answer or a malformed body, is the one reported.
class ShardCoordinator {
 public:
  // `backend` must outlive the coordinator. `schema`/`plan` must be the
  // ones every shard runs (dimension-item ids are derived from the schema,
  // so coordinates resolved here mean the same thing on every shard).
  ShardCoordinator(SchemaPtr schema, FlowCubePlan plan, ShardBackend* backend,
                   ShardCoordinatorOptions options = {});

  // Executes one public query (kPointLookup, kCellOrAncestor, kDrillDown,
  // kSimilarity, kStats). Internal request types are rejected with
  // kInvalidArgument. Thread-safe if the backend's fetches are.
  CoordinatorResult Execute(const QueryRequest& request) const;

  // The catalog/plan skeleton (no cells); exposed for tests.
  const FlowCube& skeleton() const { return skeleton_; }

 private:
  CoordinatorResult PointLookup(const QueryRequest& request,
                                bool or_ancestor) const;
  CoordinatorResult DrillDown(const QueryRequest& request) const;
  CoordinatorResult Similarity(const QueryRequest& request) const;
  CoordinatorResult Stats(const QueryRequest& request) const;

  SchemaPtr schema_;
  FlowCube skeleton_;
  ShardBackend* backend_;
  ShardCoordinatorOptions options_;
};

}  // namespace flowcube

#endif  // FLOWCUBE_SHARD_COORDINATOR_H_
