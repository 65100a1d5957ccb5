#include "serve/query_service.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "flowcube/dump.h"
#include "flowcube/query.h"
#include "serve/shard_codec.h"

namespace flowcube {
namespace {

struct ServiceMetrics {
  Counter& requests = MetricRegistry::Global().counter("serve.requests");
  Counter& errors = MetricRegistry::Global().counter("serve.request_errors");
  // How many epochs behind the newest publication the pinned snapshot was
  // at execution time (0 = served the freshest cube).
  Gauge& epoch_lag = MetricRegistry::Global().gauge("serve.epoch_lag");
  Counter& cache_hits =
      MetricRegistry::Global().counter("serve.cell_cache_hits");
  Counter& cache_misses =
      MetricRegistry::Global().counter("serve.cell_cache_misses");

  static ServiceMetrics& Get() {
    static ServiceMetrics* m = new ServiceMetrics();
    return *m;
  }
};

QueryResponse ErrorResponse(const QueryRequest& request, uint64_t epoch,
                            const Status& status) {
  QueryResponse response;
  response.request_id = request.request_id;
  response.epoch = epoch;
  response.code = status.code();
  response.message = status.message();
  return response;
}

void AppendCell(const FlowCube& cube, const CellRef& ref, const char* tag,
                std::string* body) {
  body->append(tag);
  body->append(" ");
  body->append(cube.CellName(ref.cell->dims));
  body->append("\n");
  body->append(DumpFlowCell(*ref.cell));
}

Status CheckShape(const FlowCube& cube, const QueryRequest& request) {
  if (request.pl_index >= cube.plan().path_levels.size()) {
    return Status::InvalidArgument("pl_index out of range");
  }
  if ((request.type == RequestType::kDrillDown ||
       request.type == RequestType::kChildrenFetch) &&
      request.dim >= cube.schema().num_dimensions()) {
    return Status::InvalidArgument("dimension index out of range");
  }
  if (request.type == RequestType::kCellFetchBatch ||
      request.type == RequestType::kChildrenFetch) {
    for (const WireCellCoord& c : request.coords) {
      if (c.il_index >= cube.plan().item_levels.size()) {
        return Status::InvalidArgument("il_index out of range");
      }
    }
  }
  if (request.type == RequestType::kChildrenFetch &&
      request.coords.size() != 1) {
    return Status::InvalidArgument(
        "children fetch takes exactly one coordinate");
  }
  return Status::OK();
}

// The unambiguous string key of a point lookup inside one epoch:
// length-prefixing each value name keeps "ab"+"c" distinct from "a"+"bc".
std::string LookupCacheKey(uint64_t epoch, const QueryRequest& request) {
  std::string key = std::to_string(epoch);
  key.push_back('/');
  key += std::to_string(request.pl_index);
  for (const std::string& v : request.values) {
    key.push_back('/');
    key += std::to_string(v.size());
    key.push_back(':');
    key += v;
  }
  return key;
}

Status NoSnapshotYet() {
  return Status::FailedPrecondition("no snapshot published yet");
}

// The cells a kCellFetchBatch names; null where the shard holds none.
std::vector<const FlowCell*> FindCells(const FlowCube& cube,
                                       const QueryRequest& request) {
  std::vector<const FlowCell*> cells;
  cells.reserve(request.coords.size());
  for (const WireCellCoord& c : request.coords) {
    cells.push_back(cube.cuboid(c.il_index, request.pl_index).Find(c.key));
  }
  return cells;
}

// The parent a kChildrenFetch names (null when the shard does not hold it)
// and its drill-down children, sorted by coordinates.
const FlowCell* FindChildren(const FlowCube& cube, const QueryRequest& request,
                             std::vector<const FlowCell*>* children) {
  const WireCellCoord& c = request.coords[0];
  const FlowCell* parent =
      cube.cuboid(c.il_index, request.pl_index).Find(c.key);
  children->clear();
  if (parent == nullptr) return nullptr;
  const FlowCubeQuery query(&cube);
  for (const CellRef& child : query.DrillDown(
           CellRef{parent, c.il_index, request.pl_index}, request.dim)) {
    children->push_back(child.cell);
  }
  std::sort(children->begin(), children->end(),
            [](const FlowCell* a, const FlowCell* b) {
              return a->dims < b->dims;
            });
  return parent;
}

// Every cell key and support of the snapshot: the kStatsFetch answer.
FetchedStats CollectStats(const CubeSnapshot& snapshot) {
  const FlowCube& cube = *snapshot.cube;
  const FlowCubePlan& plan = cube.plan();
  const size_t cells = cube.TotalCells();
  FetchedStats stats;
  stats.records = snapshot.records;
  stats.cuboid_begin.reserve(cube.num_cuboids() + 1);
  stats.key_begin.reserve(cells + 1);
  stats.items.reserve(cells * cube.schema().num_dimensions());
  stats.supports.reserve(cells);
  for (size_t il = 0; il < plan.item_levels.size(); ++il) {
    for (size_t pl = 0; pl < plan.path_levels.size(); ++pl) {
      for (const FlowCell* cell : cube.cuboid(il, pl).SortedCells()) {
        stats.AddCell(cell->dims, cell->support);
      }
      stats.EndCuboid();
    }
  }
  return stats;
}

// One cell handed out in process. The graph copy shares the sealed column
// block; the support check is the one the wire decoder makes.
Status ToFetched(const FlowCell* cell, FetchedCell* out) {
  if (cell == nullptr) return Status::OK();
  if (cell->support != cell->graph.total_paths()) {
    return MalformedInternalBody();
  }
  out->found = true;
  out->support = cell->support;
  out->graph = cell->graph;
  return Status::OK();
}

}  // namespace

QueryService::QueryService(const SnapshotRegistry* registry,
                           QueryServiceOptions options)
    : registry_(registry), options_(options) {
  FC_CHECK(registry_ != nullptr);
}

bool QueryService::CacheGet(const std::string& key, uint64_t* epoch,
                            std::string* body) const {
  MutexLock lock(cache_mu_);
  const auto it = cache_index_.find(key);
  if (it == cache_index_.end()) return false;
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  *epoch = it->second->epoch;
  *body = it->second->body;
  return true;
}

void QueryService::CachePut(const std::string& key, uint64_t epoch,
                            const std::string& body) const {
  MutexLock lock(cache_mu_);
  const auto it = cache_index_.find(key);
  if (it != cache_index_.end()) {
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return;
  }
  cache_lru_.push_front(CachedLookup{key, epoch, body});
  cache_index_[key] = cache_lru_.begin();
  while (cache_lru_.size() > options_.cell_cache_capacity) {
    cache_index_.erase(cache_lru_.back().key);
    cache_lru_.pop_back();
  }
}

QueryResponse QueryService::Execute(const QueryRequest& request) const {
  SnapshotPtr snapshot = registry_->Acquire();
  if (snapshot == nullptr) {
    ServiceMetrics::Get().requests.Increment();
    ServiceMetrics::Get().errors.Increment();
    return ErrorResponse(request, 0, NoSnapshotYet());
  }
  ServiceMetrics::Get().epoch_lag.Set(
      static_cast<int64_t>(registry_->current_epoch() - snapshot->epoch));
  if (request.type == RequestType::kPointLookup &&
      options_.cell_cache_capacity > 0) {
    const std::string key = LookupCacheKey(snapshot->epoch, request);
    QueryResponse response;
    if (CacheGet(key, &response.epoch, &response.body)) {
      ServiceMetrics::Get().cache_hits.Increment();
      ServiceMetrics::Get().requests.Increment();
      response.request_id = request.request_id;
      return response;
    }
    ServiceMetrics::Get().cache_misses.Increment();
    QueryResponse fresh = ExecuteOn(*snapshot, request);
    if (fresh.code == Status::Code::kOk) {
      CachePut(key, fresh.epoch, fresh.body);
    }
    return fresh;
  }
  return ExecuteOn(*snapshot, request);
}

QueryResponse QueryService::ExecuteOn(const CubeSnapshot& snapshot,
                                      const QueryRequest& request) {
  ServiceMetrics& metrics = ServiceMetrics::Get();
  metrics.requests.Increment();
  const FlowCube& cube = *snapshot.cube;
  const uint64_t epoch = snapshot.epoch;

  if (request.type != RequestType::kStats &&
      request.type != RequestType::kStatsFetch) {
    Status shape = CheckShape(cube, request);
    if (!shape.ok()) {
      metrics.errors.Increment();
      return ErrorResponse(request, epoch, shape);
    }
  }

  FlowCubeQuery query(&cube);
  QueryResponse response;
  response.request_id = request.request_id;
  response.epoch = epoch;

  switch (request.type) {
    case RequestType::kPointLookup:
    case RequestType::kCellOrAncestor: {
      Result<CellRef> ref =
          request.type == RequestType::kPointLookup
              ? query.Cell(request.values, request.pl_index)
              : query.CellOrAncestor(request.values, request.pl_index);
      if (!ref.ok()) {
        metrics.errors.Increment();
        return ErrorResponse(request, epoch, ref.status());
      }
      response.body = "cell " + cube.CellName(ref->cell->dims) + "\nil " +
                      std::to_string(ref->il_index) + " pl " +
                      std::to_string(ref->pl_index) + "\n" +
                      DumpFlowCell(*ref->cell);
      break;
    }
    case RequestType::kDrillDown: {
      Result<CellRef> parent = query.Cell(request.values, request.pl_index);
      if (!parent.ok()) {
        metrics.errors.Increment();
        return ErrorResponse(request, epoch, parent.status());
      }
      std::vector<CellRef> children = query.DrillDown(*parent, request.dim);
      // Cuboid iteration order is insertion order, which a maintained cube
      // and a rebuilt cube need not share; the body sorts by coordinates so
      // equal cubes produce equal bytes.
      std::sort(children.begin(), children.end(),
                [](const CellRef& a, const CellRef& b) {
                  return a.cell->dims < b.cell->dims;
                });
      response.body = "children " + std::to_string(children.size()) + "\n";
      for (const CellRef& child : children) {
        AppendCell(cube, child, "child", &response.body);
      }
      break;
    }
    case RequestType::kSimilarity: {
      Result<CellRef> a = query.Cell(request.values, request.pl_index);
      if (!a.ok()) {
        metrics.errors.Increment();
        return ErrorResponse(request, epoch, a.status());
      }
      Result<CellRef> b = query.Cell(request.values_b, request.pl_index);
      if (!b.ok()) {
        metrics.errors.Increment();
        return ErrorResponse(request, epoch, b.status());
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "distance %.17g\n",
                    query.Compare(*a, *b));
      response.body = buf;
      break;
    }
    case RequestType::kStats: {
      response.body = "records " + std::to_string(snapshot.records) +
                      "\ncuboids " + std::to_string(cube.num_cuboids()) +
                      "\ncells " + std::to_string(cube.TotalCells()) +
                      "\nredundant " + std::to_string(cube.RedundantCells()) +
                      "\n";
      break;
    }
    case RequestType::kCellFetchBatch:
      response.body = EncodeCellFetchBody(FindCells(cube, request));
      break;
    case RequestType::kChildrenFetch: {
      std::vector<const FlowCell*> children;
      const FlowCell* parent = FindChildren(cube, request, &children);
      response.body = EncodeChildrenBody(parent, children);
      break;
    }
    case RequestType::kStatsFetch:
      response.body = EncodeStatsBody(cube.plan(), CollectStats(snapshot));
      break;
  }
  return response;
}

Result<SnapshotPtr> QueryService::PinFor(const QueryRequest& request) const {
  ServiceMetrics& metrics = ServiceMetrics::Get();
  metrics.requests.Increment();
  SnapshotPtr snapshot = registry_->Acquire();
  Status status = NoSnapshotYet();
  if (snapshot != nullptr) {
    // ExecuteOn checks the shape of every request but the stats ones.
    status = request.type == RequestType::kStatsFetch
                 ? Status::OK()
                 : CheckShape(*snapshot->cube, request);
  }
  if (!status.ok()) {
    metrics.errors.Increment();
    return status;
  }
  metrics.epoch_lag.Set(
      static_cast<int64_t>(registry_->current_epoch() - snapshot->epoch));
  return snapshot;
}

Result<Pinned<std::vector<FetchedCell>>> QueryService::FetchCells(
    const QueryRequest& request) const {
  FC_CHECK(request.type == RequestType::kCellFetchBatch);
  Result<SnapshotPtr> snapshot = PinFor(request);
  if (!snapshot.ok()) return snapshot.status();
  const std::vector<const FlowCell*> cells =
      FindCells(*(*snapshot)->cube, request);
  Pinned<std::vector<FetchedCell>> out;
  out.epoch = (*snapshot)->epoch;
  out.value.resize(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    FC_RETURN_IF_ERROR(ToFetched(cells[i], &out.value[i]));
  }
  return out;
}

Result<Pinned<FetchedChildren>> QueryService::FetchChildren(
    const QueryRequest& request) const {
  FC_CHECK(request.type == RequestType::kChildrenFetch);
  Result<SnapshotPtr> snapshot = PinFor(request);
  if (!snapshot.ok()) return snapshot.status();
  std::vector<const FlowCell*> children;
  const FlowCell* parent =
      FindChildren(*(*snapshot)->cube, request, &children);
  Pinned<FetchedChildren> out;
  out.epoch = (*snapshot)->epoch;
  FC_RETURN_IF_ERROR(ToFetched(parent, &out.value.parent));
  out.value.children.resize(children.size());
  for (size_t i = 0; i < children.size(); ++i) {
    out.value.children[i].first = children[i]->dims;
    FC_RETURN_IF_ERROR(ToFetched(children[i], &out.value.children[i].second));
  }
  return out;
}

Result<Pinned<FetchedStats>> QueryService::FetchStats(
    const QueryRequest& request) const {
  FC_CHECK(request.type == RequestType::kStatsFetch);
  Result<SnapshotPtr> snapshot = PinFor(request);
  if (!snapshot.ok()) return snapshot.status();
  Pinned<FetchedStats> out;
  out.epoch = (*snapshot)->epoch;
  out.value = CollectStats(**snapshot);
  return out;
}

}  // namespace flowcube
