#ifndef FLOWCUBE_SHARD_BACKEND_H_
#define FLOWCUBE_SHARD_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/query_service.h"
#include "serve/shard_codec.h"

namespace flowcube {

// Transport abstraction between the coordinator and its shards. The
// coordinator asks through the typed fetches, one internal request to one
// shard each, answered with the typed result it merges and the epoch of the
// snapshot the shard pinned. Their defaults go through Call, the one
// untyped round trip, and decode the body with serve/shard_codec.h, so a
// transport that implements only Call (RemoteShardBackend, test and trace
// wrappers) keeps every check of the wire decoders. The in-process
// transport overrides them and hands out the shards' own sealed graphs.
// Responses must be byte-identical through every transport, which the
// shard differential suite enforces by running every scenario through each.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  // Executes `request` on shard `shard`. Transport-level failures surface
  // as the partial-failure vocabulary: kUnavailable (shard unreachable),
  // kDeadlineExceeded (per-shard timeout), kInternal (broken mid-call).
  virtual Result<QueryResponse> Call(size_t shard,
                                     const QueryRequest& request) = 0;

  // The typed fetches for kCellFetchBatch, kChildrenFetch and kStatsFetch
  // requests. `schema` and `plan` are what the decoders check a body
  // against. A failure is the shard's status: the transport's, the code
  // and message of an error response, or MalformedInternalBody() for an
  // answer that breaks the wire contract.
  virtual Result<Pinned<std::vector<FetchedCell>>> FetchCells(
      size_t shard, const QueryRequest& request, const PathSchema& schema);
  virtual Result<Pinned<FetchedChildren>> FetchChildren(
      size_t shard, const QueryRequest& request, const PathSchema& schema);
  virtual Result<Pinned<FetchedStats>> FetchStats(size_t shard,
                                                  const QueryRequest& request,
                                                  const FlowCubePlan& plan);

  virtual size_t num_shards() const = 0;
};

// In-process transport: shards are threads in this address space and the
// backend asks each shard's QueryService directly, which still pins one
// RCU snapshot per call, exactly the isolation a remote shard has. The
// typed fetches skip the codec: fetched graphs share the shard's sealed
// column blocks (QueryService::FetchCells).
class LocalShardBackend : public ShardBackend {
 public:
  // `services[i]` must outlive the backend.
  explicit LocalShardBackend(std::vector<const QueryService*> services);

  Result<QueryResponse> Call(size_t shard,
                             const QueryRequest& request) override;
  Result<Pinned<std::vector<FetchedCell>>> FetchCells(
      size_t shard, const QueryRequest& request,
      const PathSchema& schema) override;
  Result<Pinned<FetchedChildren>> FetchChildren(
      size_t shard, const QueryRequest& request,
      const PathSchema& schema) override;
  Result<Pinned<FetchedStats>> FetchStats(size_t shard,
                                          const QueryRequest& request,
                                          const FlowCubePlan& plan) override;
  size_t num_shards() const override { return services_.size(); }

 private:
  std::vector<const QueryService*> services_;
};

// Remote-transport knobs.
struct RemoteShardBackendOptions {
  // Per-shard connect/read deadline for one call attempt.
  int timeout_ms = 5000;
  // Extra connect attempts (with exponential backoff) when establishing a
  // connection.
  int reconnect_attempts = 3;
};

// FCQP transport: each shard is fronted by a QueryServer and the backend
// speaks the wire protocol through one ServeClient per shard, with the
// internal frame cap, a per-shard timeout on every call, and a single
// retry over a fresh connection when a call fails mid-conversation (the
// server may have dropped an idle connection; one reconnect distinguishes
// that from a dead shard). Calls are serialized per shard; different
// shards proceed independently.
class RemoteShardBackend : public ShardBackend {
 public:
  RemoteShardBackend(std::vector<uint16_t> ports,
                     RemoteShardBackendOptions options = {});

  Result<QueryResponse> Call(size_t shard,
                             const QueryRequest& request) override;
  size_t num_shards() const override { return channels_.size(); }

 private:
  struct Channel {
    Mutex mu;
    uint16_t port = 0;
    std::unique_ptr<ServeClient> client FC_GUARDED_BY(mu);
  };

  Result<QueryResponse> CallLocked(Channel* channel,
                                   const QueryRequest& request)
      FC_EXCLUSIVE_LOCKS_REQUIRED(channel->mu);

  RemoteShardBackendOptions options_;
  std::vector<std::unique_ptr<Channel>> channels_;
};

}  // namespace flowcube

#endif  // FLOWCUBE_SHARD_BACKEND_H_
