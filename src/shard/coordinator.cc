#include "shard/coordinator.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "flowcube/dump.h"
#include "flowcube/query.h"
#include "serve/shard_codec.h"

namespace flowcube {
namespace {

// Rebuilds a status with the same code but a different message (used to
// prefix shard errors while preserving the partial-failure code).
Status StatusWithCode(Status::Code code, std::string_view msg) {
  switch (code) {
    case Status::Code::kOk:
      return Status::OK();
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(msg);
    case Status::Code::kNotFound:
      return Status::NotFound(msg);
    case Status::Code::kAlreadyExists:
      return Status::AlreadyExists(msg);
    case Status::Code::kOutOfRange:
      return Status::OutOfRange(msg);
    case Status::Code::kFailedPrecondition:
      return Status::FailedPrecondition(msg);
    case Status::Code::kInternal:
      return Status::Internal(msg);
    case Status::Code::kUnavailable:
      return Status::Unavailable(msg);
    case Status::Code::kDeadlineExceeded:
      return Status::DeadlineExceeded(msg);
  }
  return Status::Internal(msg);
}

Status ShardError(size_t shard, Status::Code code, std::string_view msg) {
  return StatusWithCode(
      code, "shard " + std::to_string(shard) + ": " + std::string(msg));
}

Status MalformedBody(size_t shard) {
  return Status::Internal("shard " + std::to_string(shard) +
                          ": malformed internal response body");
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

// Merged (support, graph) of one coordinate across shards, in ascending
// shard order so the accumulated counts are order-deterministic.
struct MergedCell {
  uint64_t support = 0;
  FlowGraph graph;  // mutable accumulator
};

void MergeShard(const FetchedCell& fetched, MergedCell* merged) {
  if (!fetched.found) return;
  merged->support += fetched.support;
  merged->graph.MergeFrom(fetched.graph);
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

Result<std::vector<std::string>> ShardCoordinator::FanOut(
    const QueryRequest& internal, std::vector<uint64_t>* epochs) const {
  const size_t n = backend_->num_shards();
  std::vector<std::string> bodies;
  bodies.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    Result<QueryResponse> response = backend_->Call(s, internal);
    if (!response.ok()) {
      return ShardError(s, response.status().code(),
                        response.status().message());
    }
    if (response->code != Status::Code::kOk) {
      return ShardError(s, response->code, response->message);
    }
    epochs->push_back(response->epoch);
    bodies.push_back(std::move(response->body));
  }
  return bodies;
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

  CoordinatorResult result;
  Result<std::vector<std::string>> bodies = FanOut(internal, &result.epochs);
  if (!bodies.ok()) {
    return ErrorResult(request, bodies.status(), std::move(result.epochs));
  }
  std::vector<std::vector<FetchedCell>> per_shard(bodies->size());
  for (size_t s = 0; s < bodies->size(); ++s) {
    if (!DecodeCellFetchBody((*bodies)[s], schema, resolved.size(),
                             &per_shard[s])
             .ok()) {
      return ErrorResult(request, MalformedBody(s), std::move(result.epochs));
    }
  }

  const uint64_t delta = std::max<uint32_t>(options_.min_support, 1);
  for (size_t i = 0; i < resolved.size(); ++i) {
    MergedCell merged;
    for (const std::vector<FetchedCell>& shard : per_shard) {
      MergeShard(shard[i], &merged);
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
    cell.graph = merged.graph.Canonical();
    result.response.request_id = request.request_id;
    result.response.body =
        "cell " + skeleton_.CellName(cell.dims) + "\nil " +
        std::to_string(resolved[i].il_index) + " pl " +
        std::to_string(request.pl_index) + "\n" + DumpFlowCell(cell);
    return result;
  }

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

  CoordinatorResult result;
  Result<std::vector<std::string>> bodies = FanOut(internal, &result.epochs);
  if (!bodies.ok()) {
    return ErrorResult(request, bodies.status(), std::move(result.epochs));
  }
  std::vector<FetchedChildren> per_shard(bodies->size());
  for (size_t s = 0; s < bodies->size(); ++s) {
    if (!DecodeChildrenBody((*bodies)[s], skeleton_.schema(), &per_shard[s])
             .ok()) {
      return ErrorResult(request, MalformedBody(s), std::move(result.epochs));
    }
  }

  const uint64_t delta = std::max<uint32_t>(options_.min_support, 1);
  uint64_t parent_support = 0;
  for (const FetchedChildren& shard : per_shard) {
    if (shard.parent.found) parent_support += shard.parent.support;
  }
  if (parent_support < delta) {
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
    for (const auto& [key, cell] : shard.children) {
      MergeShard(cell, &children[key]);
    }
  }

  std::string body;
  size_t materialized = 0;
  for (const auto& [key, merged] : children) {
    if (merged.support < delta) continue;
    if (SupportOverflows(merged)) {
      return ErrorResult(request, SupportOverflow(skeleton_.CellName(key)),
                         std::move(result.epochs));
    }
    ++materialized;
  }
  body = "children " + std::to_string(materialized) + "\n";
  for (auto& [key, merged] : children) {
    if (merged.support < delta) continue;
    FlowCell cell;
    cell.dims = key;
    cell.support = static_cast<uint32_t>(merged.support);
    cell.graph = merged.graph.Canonical();
    body += "child " + skeleton_.CellName(cell.dims) + "\n" +
            DumpFlowCell(cell);
  }
  result.response.request_id = request.request_id;
  result.response.body = std::move(body);
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

  CoordinatorResult result;
  Result<std::vector<std::string>> bodies = FanOut(internal, &result.epochs);
  if (!bodies.ok()) {
    return ErrorResult(request, bodies.status(), std::move(result.epochs));
  }
  std::vector<std::vector<FetchedCell>> per_shard(bodies->size());
  for (size_t s = 0; s < bodies->size(); ++s) {
    if (!DecodeCellFetchBody((*bodies)[s], skeleton_.schema(),
                             internal.coords.size(), &per_shard[s])
             .ok()) {
      return ErrorResult(request, MalformedBody(s), std::move(result.epochs));
    }
  }

  const uint64_t delta = std::max<uint32_t>(options_.min_support, 1);
  MergedCell merged_a;
  for (const std::vector<FetchedCell>& shard : per_shard) {
    MergeShard(shard[0], &merged_a);
  }
  if (merged_a.support < delta) {
    return ErrorResult(
        request,
        Status::NotFound("cell " + skeleton_.CellName(a->key) +
                         " is not materialized (below the iceberg "
                         "threshold or pruned)"),
        std::move(result.epochs));
  }
  if (!b.ok()) {
    return ErrorResult(request, b.status(), std::move(result.epochs));
  }
  MergedCell merged_b;
  for (const std::vector<FetchedCell>& shard : per_shard) {
    MergeShard(shard[1], &merged_b);
  }
  if (merged_b.support < delta) {
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
  const double distance =
      FlowGraphDistance(merged_a.graph.Canonical(), merged_b.graph.Canonical(),
                        options_.similarity);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "distance %.17g\n", distance);
  result.response.request_id = request.request_id;
  result.response.body = buf;
  return result;
}

CoordinatorResult ShardCoordinator::Stats(const QueryRequest& request) const {
  QueryRequest internal;
  internal.type = RequestType::kStatsFetch;
  internal.request_id = request.request_id;

  CoordinatorResult result;
  Result<std::vector<std::string>> bodies = FanOut(internal, &result.epochs);
  if (!bodies.ok()) {
    return ErrorResult(request, bodies.status(), std::move(result.epochs));
  }
  std::vector<FetchedStats> per_shard(bodies->size());
  for (size_t s = 0; s < bodies->size(); ++s) {
    if (!DecodeStatsBody((*bodies)[s], skeleton_.plan(), &per_shard[s])
             .ok()) {
      return ErrorResult(request, MalformedBody(s), std::move(result.epochs));
    }
  }

  const uint64_t delta = std::max<uint32_t>(options_.min_support, 1);
  uint64_t records = 0;
  size_t cells = 0;
  const size_t num_cuboids = skeleton_.num_cuboids();
  std::map<Itemset, uint64_t> supports;
  for (const FetchedStats& shard : per_shard) records += shard.records;
  for (size_t c = 0; c < num_cuboids; ++c) {
    supports.clear();
    for (const FetchedStats& shard : per_shard) {
      for (const auto& [key, support] : shard.cuboids[c]) {
        supports[key] += support;
      }
    }
    for (const auto& [key, support] : supports) {
      if (support >= delta) ++cells;
    }
  }

  // Redundancy analysis is a whole-cube post-pass a sharded deployment does
  // not run (DESIGN.md §15), so the global count is by definition 0.
  result.response.request_id = request.request_id;
  result.response.body = "records " + std::to_string(records) + "\ncuboids " +
                         std::to_string(num_cuboids) + "\ncells " +
                         std::to_string(cells) + "\nredundant 0\n";
  return result;
}

}  // namespace flowcube
