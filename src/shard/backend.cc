#include "shard/backend.h"

#include <string_view>
#include <utility>

#include "common/logging.h"

namespace flowcube {
namespace {

// The default typed fetch: Call, then `decode(body, &value)` on an OK
// response.
template <typename T, typename Decode>
Result<Pinned<T>> CallAndDecode(ShardBackend* backend, size_t shard,
                                const QueryRequest& request, Decode decode) {
  Result<QueryResponse> response = backend->Call(shard, request);
  if (!response.ok()) return response.status();
  if (response->code != Status::Code::kOk) {
    return Status::FromCode(response->code, response->message);
  }
  Pinned<T> out;
  out.epoch = response->epoch;
  if (!decode(std::string_view(response->body), &out.value).ok()) {
    return MalformedInternalBody();
  }
  return out;
}

}  // namespace

Result<Pinned<std::vector<FetchedCell>>> ShardBackend::FetchCells(
    size_t shard, const QueryRequest& request, const PathSchema& schema) {
  return CallAndDecode<std::vector<FetchedCell>>(
      this, shard, request,
      [&](std::string_view body, std::vector<FetchedCell>* out) {
        return DecodeCellFetchBody(body, schema, request.coords.size(), out);
      });
}

Result<Pinned<FetchedChildren>> ShardBackend::FetchChildren(
    size_t shard, const QueryRequest& request, const PathSchema& schema) {
  return CallAndDecode<FetchedChildren>(
      this, shard, request,
      [&](std::string_view body, FetchedChildren* out) {
        return DecodeChildrenBody(body, schema, out);
      });
}

Result<Pinned<FetchedStats>> ShardBackend::FetchStats(
    size_t shard, const QueryRequest& request, const FlowCubePlan& plan) {
  return CallAndDecode<FetchedStats>(
      this, shard, request, [&](std::string_view body, FetchedStats* out) {
        return DecodeStatsBody(body, plan, out);
      });
}

LocalShardBackend::LocalShardBackend(std::vector<const QueryService*> services)
    : services_(std::move(services)) {
  for (const QueryService* service : services_) FC_CHECK(service != nullptr);
}

Result<QueryResponse> LocalShardBackend::Call(size_t shard,
                                              const QueryRequest& request) {
  FC_CHECK(shard < services_.size());
  return services_[shard]->Execute(request);
}

Result<Pinned<std::vector<FetchedCell>>> LocalShardBackend::FetchCells(
    size_t shard, const QueryRequest& request, const PathSchema& /*schema*/) {
  FC_CHECK(shard < services_.size());
  return services_[shard]->FetchCells(request);
}

Result<Pinned<FetchedChildren>> LocalShardBackend::FetchChildren(
    size_t shard, const QueryRequest& request, const PathSchema& /*schema*/) {
  FC_CHECK(shard < services_.size());
  return services_[shard]->FetchChildren(request);
}

Result<Pinned<FetchedStats>> LocalShardBackend::FetchStats(
    size_t shard, const QueryRequest& request, const FlowCubePlan& plan) {
  FC_CHECK(shard < services_.size());
  Result<Pinned<FetchedStats>> stats = services_[shard]->FetchStats(request);
  // The decoder's plan check: a shard running another plan is a deployment
  // error the merge must not index past.
  if (stats.ok() && stats->value.num_cuboids() !=
                        plan.item_levels.size() * plan.path_levels.size()) {
    return MalformedInternalBody();
  }
  return stats;
}

RemoteShardBackend::RemoteShardBackend(std::vector<uint16_t> ports,
                                       RemoteShardBackendOptions options)
    : options_(options) {
  channels_.reserve(ports.size());
  for (uint16_t port : ports) {
    auto channel = std::make_unique<Channel>();
    channel->port = port;
    channels_.push_back(std::move(channel));
  }
}

Result<QueryResponse> RemoteShardBackend::CallLocked(
    Channel* channel, const QueryRequest& request) {
  if (channel->client == nullptr) {
    ClientOptions client_options;
    client_options.connect_timeout_ms = options_.timeout_ms;
    client_options.read_timeout_ms = options_.timeout_ms;
    client_options.reconnect_attempts = options_.reconnect_attempts;
    client_options.max_frame_payload = kMaxInternalFramePayload;
    Result<ServeClient> client =
        ServeClient::Connect(channel->port, client_options);
    if (!client.ok()) return client.status();
    channel->client =
        std::make_unique<ServeClient>(std::move(client).value());
  }
  Result<QueryResponse> response = channel->client->Call(request);
  if (!response.ok()) {
    // The connection is in an unknown state after any failure; drop it so
    // the next attempt starts fresh.
    channel->client.reset();
  }
  return response;
}

Result<QueryResponse> RemoteShardBackend::Call(size_t shard,
                                               const QueryRequest& request) {
  FC_CHECK(shard < channels_.size());
  Channel* channel = channels_[shard].get();
  MutexLock lock(channel->mu);
  Result<QueryResponse> response = CallLocked(channel, request);
  if (response.ok()) return response;
  // Single retry over a fresh connection: a server-dropped idle connection
  // fails the first send or read, not the shard. A second failure is the
  // shard's true state and surfaces to the coordinator.
  return CallLocked(channel, request);
}

}  // namespace flowcube
