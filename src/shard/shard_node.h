#ifndef FLOWCUBE_SHARD_SHARD_NODE_H_
#define FLOWCUBE_SHARD_SHARD_NODE_H_

#include <memory>
#include <span>
#include <string>

#include "common/status.h"
#include "serve/query_service.h"
#include "serve/server.h"
#include "serve/snapshot_registry.h"
#include "stream/incremental_maintainer.h"

namespace flowcube {

// Knobs of one shard.
struct ShardNodeOptions {
  // The *global* construction options of the sharded deployment — the ones
  // a monolithic build of the whole database would use. The shard derives
  // its local options from these via ShardLocalBuild(): local min_support
  // drops to 1 and exception mining / redundancy marking turn off, because
  // the iceberg threshold, exceptions, and redundancy are global properties
  // only the coordinator (or nobody, for the holistic ones) can evaluate.
  FlowCubeBuilderOptions global_build;
  // Sliding window passed through to the shard maintainer.
  uint32_t window_records = 0;
  // Serve-path cache of the shard's QueryService. Internal fetches bypass
  // it (they are not kPointLookup), so the default is fine.
  QueryServiceOptions service;
  // When true the shard fronts itself with a QueryServer speaking FCQP on
  // a loopback ephemeral port (the remote transport); when false the shard
  // is queried in-process through service().
  bool serve_remote = false;
};

// One shard of a sharded FlowCube deployment: its own IncrementalMaintainer
// over the records the partitioner routes here, its own SnapshotRegistry
// (RCU epochs, exactly as in the single-node serving stack), a QueryService
// over that registry, and optionally a QueryServer fronting it all over
// FCQP. Created with one epoch already published (the empty cube), so a
// shard that has not yet received a single record still answers queries —
// a freshly resharded deployment is queryable immediately.
//
// Why min_support is forced to 1 locally: a cell globally above the
// iceberg threshold can be locally below it on every shard (its paths
// spread out). Shards therefore materialize every cell they hold paths for
// and the coordinator applies the global delta to summed supports; local
// pruning would silently lose globally-frequent cells.
class ShardNode {
 public:
  // Derives the shard-local build options from the global ones. Exposed so
  // the differential suite's oracle can rebuild a shard's cube with exactly
  // the options the shard runs.
  static FlowCubeBuilderOptions ShardLocalBuild(
      const FlowCubeBuilderOptions& global);

  // Validates options and publishes epoch 1 (the empty cube). Rejects
  // window_records combined with compute_exceptions exactly as the
  // maintainer does.
  static Result<std::unique_ptr<ShardNode>> Create(SchemaPtr schema,
                                                   FlowCubePlan plan,
                                                   ShardNodeOptions options);

  // Like Create, but epoch 1 is the cube stored in `checkpoint_file`
  // instead of the empty cube, and the maintainer resumes that file's live
  // records — a restarted shard is queryable at its pre-restart state
  // before any re-ingestion. The checkpoint must have been written by this
  // shard's SaveCheckpoint (the config fingerprint covers the derived
  // shard-local options, so a monolithic checkpoint is rejected). The file
  // is read once: the published epoch is a clone of the restored cube,
  // whose sealed graphs view the restored image.
  static Result<std::unique_ptr<ShardNode>> ColdStart(
      SchemaPtr schema, FlowCubePlan plan, ShardNodeOptions options,
      const std::string& checkpoint_file);

  // Checkpoints this shard's maintainer to `filename` (no ingestor state —
  // the splitter upstream owns buffering).
  Status SaveCheckpoint(const std::string& filename) const;

  ~ShardNode();
  ShardNode(const ShardNode&) = delete;
  ShardNode& operator=(const ShardNode&) = delete;

  // Applies one sub-batch of records. Publishes the next epoch on success
  // (the maintainer's registry hook). Single-writer, like the maintainer.
  Status Apply(std::span<const PathRecord> records);

  const IncrementalMaintainer& maintainer() const { return *maintainer_; }
  const SnapshotRegistry& registry() const { return registry_; }
  const QueryService& service() const { return *service_; }

  // The FCQP port when serve_remote was set; 0 otherwise.
  uint16_t port() const { return server_ ? server_->port() : 0; }

  uint64_t current_epoch() const { return registry_.current_epoch(); }
  size_t live_record_count() const { return maintainer_->live_record_count(); }

 private:
  ShardNode() = default;

  // Wraps `maintainer` in a node: attaches the registry, publishes its cube
  // as epoch 1, and starts the service (and server when serve_remote).
  static Result<std::unique_ptr<ShardNode>> Start(
      IncrementalMaintainer maintainer, const ShardNodeOptions& options);

  std::unique_ptr<IncrementalMaintainer> maintainer_;
  SnapshotRegistry registry_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<QueryServer> server_;
};

}  // namespace flowcube

#endif  // FLOWCUBE_SHARD_SHARD_NODE_H_
