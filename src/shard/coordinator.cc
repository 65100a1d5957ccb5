#include "shard/coordinator.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "flowcube/dump.h"
#include "flowcube/query.h"
#include "serve/shard_codec.h"

namespace flowcube {
namespace {

// Per-request stage times of the coordinator (DESIGN.md §15), registered
// once. A request records each stage it completes.
struct CoordinatorMetrics {
  // Every shard's typed fetch, decoding included on the codec path.
  Histogram& fetch =
      MetricRegistry::Global().histogram("shard.coordinator.fetch_seconds");
  // Summing supports, merging flowgraphs and canonicalizing them.
  Histogram& merge =
      MetricRegistry::Global().histogram("shard.coordinator.merge_seconds");
  // The response body from the merged result.
  Histogram& render =
      MetricRegistry::Global().histogram("shard.coordinator.render_seconds");

  static CoordinatorMetrics& Get() {
    static CoordinatorMetrics* m = new CoordinatorMetrics();
    return *m;
  }
};

// Times consecutive stages of one request: Lap records the seconds since
// construction or the previous lap into `stage`.
class StageTimer {
 public:
  void Lap(Histogram& stage) {
    stage.Record(watch_.ElapsedSeconds());
    watch_.Reset();
  }

 private:
  Stopwatch watch_;
};

// The same status with the shard named in front of its message.
Status ShardError(size_t shard, const Status& status) {
  return Status::FromCode(status.code(), "shard " + std::to_string(shard) +
                                             ": " + status.message());
}

// Fetches from every shard in ascending order. The first shard that fails,
// by its transport, its answer or a malformed body, aborts the fan-out
// with its status; `epochs` then holds the shards accepted before it.
template <typename T, typename Fetch>
Status FanOut(size_t num_shards, const Fetch& fetch, std::vector<T>* out,
              std::vector<uint64_t>* epochs) {
  out->reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    Result<Pinned<T>> fetched = fetch(s);
    if (!fetched.ok()) return ShardError(s, fetched.status());
    epochs->push_back(fetched->epoch);
    out->push_back(std::move(fetched->value));
  }
  return Status::OK();
}

QueryResponse ErrorResponse(const QueryRequest& request,
                            const Status& status) {
  QueryResponse response;
  response.request_id = request.request_id;
  response.epoch = 0;
  response.code = status.code();
  response.message = status.message();
  return response;
}

CoordinatorResult ErrorResult(const QueryRequest& request,
                              const Status& status,
                              std::vector<uint64_t> epochs = {}) {
  CoordinatorResult result;
  result.response = ErrorResponse(request, status);
  result.epochs = std::move(epochs);
  return result;
}

WireCellCoord ToWire(const CellCoords& coords) {
  WireCellCoord wire;
  wire.il_index = static_cast<uint32_t>(coords.il_index);
  wire.key.assign(coords.key.begin(), coords.key.end());
  return wire;
}

// One coordinate across shards: the summed support and the graphs of the
// shards that hold it, in ascending shard order.
struct MergedCell {
  uint64_t support = 0;
  std::vector<const FlowGraph*> graphs;

  void Add(const FetchedCell& fetched) {
    if (!fetched.found) return;
    support += fetched.support;
    graphs.push_back(&fetched.graph);
  }
  void Clear() {
    support = 0;
    graphs.clear();
  }
};

// The merged graph in canonical numbering: the algebraic MergeFrom in
// ascending shard order (Lemma 4.2), then Canonical(). A graph held by one
// shard only needs no accumulator, because Canonical() numbers nodes by
// content alone.
FlowGraph MergedCanonical(const MergedCell& merged) {
  if (merged.graphs.size() == 1) return merged.graphs[0]->Canonical();
  FlowGraph sum;
  for (const FlowGraph* graph : merged.graphs) sum.MergeFrom(*graph);
  return sum.Canonical();
}

// A rendered cell carries a u32 support, so a merged sum above that range
// cannot be answered (the shards' u32 path counts have wrapped with it).
bool SupportOverflows(const MergedCell& merged) {
  return merged.support > std::numeric_limits<uint32_t>::max();
}

Status SupportOverflow(const std::string& cell_name) {
  return Status::Internal("cell " + cell_name +
                          ": merged support exceeds the u32 range");
}

// The number of cells whose supports, summed over `shards`, reach `delta`.
// Per cuboid, one k-way merge of the shards' ascending key lists sums the
// supports of equal keys; nothing is allocated per key.
size_t CountFrequentCells(std::span<const FetchedStats> shards,
                          size_t num_cuboids, uint64_t delta) {
  std::vector<uint32_t> next(shards.size());
  size_t cells = 0;
  for (size_t c = 0; c < num_cuboids; ++c) {
    for (size_t s = 0; s < shards.size(); ++s) {
      next[s] = shards[s].cuboid_begin[c];
    }
    const auto has_next = [&](size_t s) {
      return next[s] < shards[s].cuboid_begin[c + 1];
    };
    while (true) {
      // The least key any shard has left in this cuboid.
      std::span<const ItemId> least;
      bool any = false;
      for (size_t s = 0; s < shards.size(); ++s) {
        if (!has_next(s)) continue;
        const std::span<const ItemId> key = shards[s].key(next[s]);
        if (!any || std::ranges::lexicographical_compare(key, least)) {
          least = key;
          any = true;
        }
      }
      if (!any) break;
      uint64_t support = 0;
      for (size_t s = 0; s < shards.size(); ++s) {
        if (has_next(s) && std::ranges::equal(shards[s].key(next[s]), least)) {
          support += shards[s].supports[next[s]++];
        }
      }
      if (support >= delta) ++cells;
    }
  }
  return cells;
}

}  // namespace

ShardCoordinator::ShardCoordinator(SchemaPtr schema, FlowCubePlan plan,
                                   ShardBackend* backend,
                                   ShardCoordinatorOptions options)
    : schema_(std::move(schema)),
      skeleton_(std::move(plan), schema_),
      backend_(backend),
      options_(options) {
  FC_CHECK(backend_ != nullptr);
  FC_CHECK_MSG(backend_->num_shards() > 0, "coordinator needs >= 1 shard");
}

CoordinatorResult ShardCoordinator::Execute(const QueryRequest& request) const {
  switch (request.type) {
    case RequestType::kPointLookup:
      return PointLookup(request, /*or_ancestor=*/false);
    case RequestType::kCellOrAncestor:
      return PointLookup(request, /*or_ancestor=*/true);
    case RequestType::kDrillDown:
      return DrillDown(request);
    case RequestType::kSimilarity:
      return Similarity(request);
    case RequestType::kStats:
      return Stats(request);
    case RequestType::kCellFetchBatch:
    case RequestType::kChildrenFetch:
    case RequestType::kStatsFetch:
      break;
  }
  return ErrorResult(request,
                     Status::InvalidArgument(
                         "internal request types are not accepted by the "
                         "coordinator"));
}

CoordinatorResult ShardCoordinator::PointLookup(const QueryRequest& request,
                                                bool or_ancestor) const {
  // Shape errors first, with the single-node CheckShape vocabulary.
  if (request.pl_index >= skeleton_.plan().path_levels.size()) {
    return ErrorResult(request,
                       Status::InvalidArgument("pl_index out of range"));
  }
  const PathSchema& schema = skeleton_.schema();
  if (request.values.size() != schema.num_dimensions()) {
    // Matches ResolveCellCoords' size error before candidate expansion can
    // index dimensions out of range.
    Result<CellCoords> bad =
        ResolveCellCoords(skeleton_, request.values, request.pl_index);
    return ErrorResult(request, bad.status());
  }

  // The candidate list, in probe order. For a point lookup it is just the
  // requested cell; for cell-or-ancestor it is the whole generalization
  // closure, fanned out in ONE internal round per shard so every candidate
  // is answered at the same pinned epoch.
  std::vector<std::vector<std::string>> candidates;
  if (or_ancestor) {
    Result<std::vector<std::vector<std::string>>> closure =
        EnumerateAncestorCandidates(schema, request.values);
    if (!closure.ok()) return ErrorResult(request, closure.status());
    candidates = std::move(closure).value();
  } else {
    candidates.push_back(request.values);
  }

  std::vector<CellCoords> resolved;
  resolved.reserve(candidates.size());
  for (const std::vector<std::string>& candidate : candidates) {
    Result<CellCoords> coords =
        ResolveCellCoords(skeleton_, candidate, request.pl_index);
    if (coords.ok()) {
      resolved.push_back(std::move(coords).value());
      continue;
    }
    // Unmaterialized-cuboid candidates are walkable for cell-or-ancestor
    // (exactly FlowCubeQuery::CellOrAncestor's rule); every other error —
    // and any error on a plain point lookup — surfaces.
    if (!or_ancestor ||
        coords.status().code() != Status::Code::kNotFound) {
      return ErrorResult(request, coords.status());
    }
  }
  if (resolved.empty()) {
    return ErrorResult(
        request,
        Status::NotFound(
            "no materialized ancestor (not even the apex) for the "
            "requested cell"));
  }

  QueryRequest internal;
  internal.type = RequestType::kCellFetchBatch;
  internal.request_id = request.request_id;
  internal.pl_index = request.pl_index;
  internal.coords.reserve(resolved.size());
  for (const CellCoords& coords : resolved) {
    internal.coords.push_back(ToWire(coords));
  }

  CoordinatorMetrics& metrics = CoordinatorMetrics::Get();
  StageTimer timer;
  CoordinatorResult result;
  std::vector<std::vector<FetchedCell>> per_shard;
  const Status fetched = FanOut(
      backend_->num_shards(),
      [&](size_t s) { return backend_->FetchCells(s, internal, schema); },
      &per_shard, &result.epochs);
  if (!fetched.ok()) {
    return ErrorResult(request, fetched, std::move(result.epochs));
  }
  timer.Lap(metrics.fetch);

  const uint64_t delta = std::max<uint32_t>(options_.min_support, 1);
  MergedCell merged;
  for (size_t i = 0; i < resolved.size(); ++i) {
    merged.Clear();
    for (const std::vector<FetchedCell>& shard : per_shard) {
      merged.Add(shard[i]);
    }
    if (merged.support < delta) continue;
    // First candidate at or above the global threshold is the answer
    // (candidates are in CellOrAncestor probe order).
    if (SupportOverflows(merged)) {
      return ErrorResult(request,
                         SupportOverflow(skeleton_.CellName(resolved[i].key)),
                         std::move(result.epochs));
    }
    FlowCell cell;
    cell.dims = resolved[i].key;
    cell.support = static_cast<uint32_t>(merged.support);
    cell.graph = MergedCanonical(merged);
    timer.Lap(metrics.merge);
    result.response.request_id = request.request_id;
    result.response.body =
        "cell " + skeleton_.CellName(cell.dims) + "\nil " +
        std::to_string(resolved[i].il_index) + " pl " +
        std::to_string(request.pl_index) + "\n" + DumpFlowCell(cell);
    timer.Lap(metrics.render);
    return result;
  }
  timer.Lap(metrics.merge);

  const Status miss =
      or_ancestor
          ? Status::NotFound(
                "no materialized ancestor (not even the apex) for the "
                "requested cell")
          : Status::NotFound("cell " + skeleton_.CellName(resolved[0].key) +
                             " is not materialized (below the iceberg "
                             "threshold or pruned)");
  return ErrorResult(request, miss, std::move(result.epochs));
}

CoordinatorResult ShardCoordinator::DrillDown(const QueryRequest& request) const {
  if (request.pl_index >= skeleton_.plan().path_levels.size()) {
    return ErrorResult(request,
                       Status::InvalidArgument("pl_index out of range"));
  }
  if (request.dim >= skeleton_.schema().num_dimensions()) {
    return ErrorResult(
        request, Status::InvalidArgument("dimension index out of range"));
  }
  Result<CellCoords> parent =
      ResolveCellCoords(skeleton_, request.values, request.pl_index);
  if (!parent.ok()) return ErrorResult(request, parent.status());

  QueryRequest internal;
  internal.type = RequestType::kChildrenFetch;
  internal.request_id = request.request_id;
  internal.pl_index = request.pl_index;
  internal.dim = request.dim;
  internal.coords.push_back(ToWire(*parent));

  CoordinatorMetrics& metrics = CoordinatorMetrics::Get();
  StageTimer timer;
  CoordinatorResult result;
  std::vector<FetchedChildren> per_shard;
  const Status fetched = FanOut(
      backend_->num_shards(),
      [&](size_t s) {
        return backend_->FetchChildren(s, internal, skeleton_.schema());
      },
      &per_shard, &result.epochs);
  if (!fetched.ok()) {
    return ErrorResult(request, fetched, std::move(result.epochs));
  }
  timer.Lap(metrics.fetch);

  const uint64_t delta = std::max<uint32_t>(options_.min_support, 1);
  uint64_t parent_support = 0;
  for (const FetchedChildren& shard : per_shard) {
    if (shard.parent.found) parent_support += shard.parent.support;
  }
  if (parent_support < delta) {
    timer.Lap(metrics.merge);
    return ErrorResult(
        request,
        Status::NotFound("cell " + skeleton_.CellName(parent->key) +
                         " is not materialized (below the iceberg "
                         "threshold or pruned)"),
        std::move(result.epochs));
  }

  // std::map keeps children in ascending key order — the same coordinate
  // sort the single-node drill-down body uses.
  std::map<Itemset, MergedCell> children;
  for (const FetchedChildren& shard : per_shard) {
    for (const auto& [key, cell] : shard.children) children[key].Add(cell);
  }
  std::vector<FlowCell> cells;
  for (const auto& [key, merged] : children) {
    if (merged.support < delta) continue;
    if (SupportOverflows(merged)) {
      return ErrorResult(request, SupportOverflow(skeleton_.CellName(key)),
                         std::move(result.epochs));
    }
    FlowCell& cell = cells.emplace_back();
    cell.dims = key;
    cell.support = static_cast<uint32_t>(merged.support);
    cell.graph = MergedCanonical(merged);
  }
  timer.Lap(metrics.merge);

  std::string body = "children " + std::to_string(cells.size()) + "\n";
  for (const FlowCell& cell : cells) {
    body += "child " + skeleton_.CellName(cell.dims) + "\n" +
            DumpFlowCell(cell);
  }
  result.response.request_id = request.request_id;
  result.response.body = std::move(body);
  timer.Lap(metrics.render);
  return result;
}

CoordinatorResult ShardCoordinator::Similarity(const QueryRequest& request) const {
  if (request.pl_index >= skeleton_.plan().path_levels.size()) {
    return ErrorResult(request,
                       Status::InvalidArgument("pl_index out of range"));
  }
  Result<CellCoords> a =
      ResolveCellCoords(skeleton_, request.values, request.pl_index);
  if (!a.ok()) return ErrorResult(request, a.status());
  // b's resolution error may only surface after a's materialization is
  // known (the single-node service evaluates Cell(a) fully before touching
  // b), so hold it until a's support has been summed.
  Result<CellCoords> b =
      ResolveCellCoords(skeleton_, request.values_b, request.pl_index);

  QueryRequest internal;
  internal.type = RequestType::kCellFetchBatch;
  internal.request_id = request.request_id;
  internal.pl_index = request.pl_index;
  internal.coords.push_back(ToWire(*a));
  if (b.ok()) internal.coords.push_back(ToWire(*b));

  CoordinatorMetrics& metrics = CoordinatorMetrics::Get();
  StageTimer timer;
  CoordinatorResult result;
  std::vector<std::vector<FetchedCell>> per_shard;
  const Status fetched = FanOut(
      backend_->num_shards(),
      [&](size_t s) {
        return backend_->FetchCells(s, internal, skeleton_.schema());
      },
      &per_shard, &result.epochs);
  if (!fetched.ok()) {
    return ErrorResult(request, fetched, std::move(result.epochs));
  }
  timer.Lap(metrics.fetch);

  const uint64_t delta = std::max<uint32_t>(options_.min_support, 1);
  MergedCell merged_a;
  for (const std::vector<FetchedCell>& shard : per_shard) {
    merged_a.Add(shard[0]);
  }
  if (merged_a.support < delta) {
    timer.Lap(metrics.merge);
    return ErrorResult(
        request,
        Status::NotFound("cell " + skeleton_.CellName(a->key) +
                         " is not materialized (below the iceberg "
                         "threshold or pruned)"),
        std::move(result.epochs));
  }
  if (!b.ok()) {
    timer.Lap(metrics.merge);
    return ErrorResult(request, b.status(), std::move(result.epochs));
  }
  MergedCell merged_b;
  for (const std::vector<FetchedCell>& shard : per_shard) {
    merged_b.Add(shard[1]);
  }
  if (merged_b.support < delta) {
    timer.Lap(metrics.merge);
    return ErrorResult(
        request,
        Status::NotFound("cell " + skeleton_.CellName(b->key) +
                         " is not materialized (below the iceberg "
                         "threshold or pruned)"),
        std::move(result.epochs));
  }
  // Canonicalize both sides: the distance scan walks nodes in id order, so
  // float accumulation order — and therefore the printed %.17g — must not
  // depend on how many shards contributed counts.
  const FlowGraph graph_a = MergedCanonical(merged_a);
  const FlowGraph graph_b = MergedCanonical(merged_b);
  timer.Lap(metrics.merge);

  const double distance =
      FlowGraphDistance(graph_a, graph_b, options_.similarity);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "distance %.17g\n", distance);
  result.response.request_id = request.request_id;
  result.response.body = buf;
  timer.Lap(metrics.render);
  return result;
}

CoordinatorResult ShardCoordinator::Stats(const QueryRequest& request) const {
  QueryRequest internal;
  internal.type = RequestType::kStatsFetch;
  internal.request_id = request.request_id;

  CoordinatorMetrics& metrics = CoordinatorMetrics::Get();
  StageTimer timer;
  CoordinatorResult result;
  std::vector<FetchedStats> per_shard;
  const Status fetched = FanOut(
      backend_->num_shards(),
      [&](size_t s) {
        return backend_->FetchStats(s, internal, skeleton_.plan());
      },
      &per_shard, &result.epochs);
  if (!fetched.ok()) {
    return ErrorResult(request, fetched, std::move(result.epochs));
  }
  timer.Lap(metrics.fetch);

  const uint64_t delta = std::max<uint32_t>(options_.min_support, 1);
  uint64_t records = 0;
  for (const FetchedStats& shard : per_shard) records += shard.records;
  const size_t num_cuboids = skeleton_.num_cuboids();
  const size_t cells = CountFrequentCells(per_shard, num_cuboids, delta);
  timer.Lap(metrics.merge);

  // Redundancy analysis is a whole-cube post-pass a sharded deployment does
  // not run (DESIGN.md §15), so the global count is by definition 0.
  result.response.request_id = request.request_id;
  result.response.body = "records " + std::to_string(records) + "\ncuboids " +
                         std::to_string(num_cuboids) + "\ncells " +
                         std::to_string(cells) + "\nredundant 0\n";
  timer.Lap(metrics.render);
  return result;
}

}  // namespace flowcube
