#ifndef FLOWCUBE_SERVE_QUERY_SERVICE_H_
#define FLOWCUBE_SERVE_QUERY_SERVICE_H_

#include <cstddef>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "serve/protocol.h"
#include "serve/shard_codec.h"
#include "serve/snapshot_registry.h"

namespace flowcube {

// A shard-internal request answered in process: its typed result and the
// epoch of the snapshot it was read from.
template <typename T>
struct Pinned {
  uint64_t epoch = 0;
  T value;
};

// Tuning knobs for QueryService.
struct QueryServiceOptions {
  // Entry capacity of the cell-name lookup cache: successful kPointLookup
  // responses keyed by (epoch, pl_index, value names), evicted LRU. The
  // epoch lives in the key, so a cached body can never describe anything
  // but the snapshot it was rendered from; entries from superseded epochs
  // simply age out. 0 disables the cache. Hit/miss counts are exported as
  // serve.cell_cache_hits / serve.cell_cache_misses.
  size_t cell_cache_capacity = 256;
};

// Executes decoded FCQP requests against published cube snapshots. One
// request pins exactly one snapshot for its whole execution (the epoch is
// echoed in the response), so the body always describes a single consistent
// cube even while the maintainer keeps publishing newer epochs.
//
// Response bodies are deterministic text built from the canonical cell
// serialization (flowcube/dump.h), chosen so a response is byte-comparable
// against a from-scratch rebuild of the same epoch — the snapshot isolation
// test's differential oracle:
//
//   kPointLookup / kCellOrAncestor:
//     "cell <name>\nil <il> pl <pl>\n" + DumpFlowCell(cell)
//   kDrillDown:
//     "children <n>\n" then per child (sorted by coordinates)
//     "child <name>\n" + DumpFlowCell(child)
//   kSimilarity:
//     "distance <%.17g>\n"
//   kStats:
//     "records <n>\ncuboids <n>\ncells <n>\nredundant <n>\n"
//     (memory is deliberately absent: vector capacities differ between a
//     clone and a rebuild, and the body must not)
//
// The shard-internal requests (kCellFetchBatch, kChildrenFetch,
// kStatsFetch) carry the binary bodies of serve/shard_codec.h instead, or,
// in process, skip the body: FetchCells / FetchChildren / FetchStats run
// the same lookups and return the typed results the decoders would.
//
// Errors map straight onto the Status vocabulary: the response carries the
// failing code and message with an empty body.
class QueryService {
 public:
  // `registry` must outlive the service.
  explicit QueryService(const SnapshotRegistry* registry,
                        QueryServiceOptions options = {});

  // Pins the registry's current snapshot and executes. Before the first
  // Publish, every request fails with kFailedPrecondition and epoch 0.
  // Successful point lookups are served from / inserted into the cell-name
  // cache; cached responses are byte-identical to a fresh execution
  // because the cache stores completed ExecuteOn output per epoch.
  QueryResponse Execute(const QueryRequest& request) const;

  // Executes against an explicit snapshot, bypassing the cache. Exposed so
  // the differential oracle can run the same code path against a full
  // rebuild of one epoch.
  static QueryResponse ExecuteOn(const CubeSnapshot& snapshot,
                                 const QueryRequest& request);

  // The shard-internal requests answered in process (the in-process shard
  // transport, shard/backend.h): the lookups ExecuteOn encodes for the
  // wire, on one pinned snapshot, as the typed results the wire decoders
  // produce. A fetched graph is a copy that shares the cell's sealed column
  // block, so nothing is encoded, decoded or re-sealed, and it stays
  // readable after the snapshot is unpinned. `request` must have the
  // matching internal type. Errors are the ones ExecuteOn answers with; a
  // cell whose support is not its graph's path count fails as the wire
  // decoder would (MalformedInternalBody).
  Result<Pinned<std::vector<FetchedCell>>> FetchCells(
      const QueryRequest& request) const;
  Result<Pinned<FetchedChildren>> FetchChildren(
      const QueryRequest& request) const;
  Result<Pinned<FetchedStats>> FetchStats(const QueryRequest& request) const;

 private:
  // An LRU entry: cache key -> the successful response's (epoch, body).
  struct CachedLookup {
    std::string key;
    uint64_t epoch = 0;
    std::string body;
  };

  // Pins the current snapshot for one shard-internal request and checks
  // the request's shape, counting it as ExecuteOn counts requests.
  Result<SnapshotPtr> PinFor(const QueryRequest& request) const;

  bool CacheGet(const std::string& key, uint64_t* epoch,
                std::string* body) const;
  void CachePut(const std::string& key, uint64_t epoch,
                const std::string& body) const;

  const SnapshotRegistry* registry_;
  QueryServiceOptions options_;

  mutable Mutex cache_mu_;
  // Most-recently-used at the front.
  mutable std::list<CachedLookup> cache_lru_ FC_GUARDED_BY(cache_mu_);
  mutable std::unordered_map<std::string, std::list<CachedLookup>::iterator>
      cache_index_ FC_GUARDED_BY(cache_mu_);
};

}  // namespace flowcube

#endif  // FLOWCUBE_SERVE_QUERY_SERVICE_H_
