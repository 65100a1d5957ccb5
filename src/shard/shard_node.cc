#include "shard/shard_node.h"

#include <utility>

#include "common/logging.h"
#include "stream/checkpoint.h"

namespace flowcube {

FlowCubeBuilderOptions ShardNode::ShardLocalBuild(
    const FlowCubeBuilderOptions& global) {
  FlowCubeBuilderOptions local = global;
  // Materialize every cell with at least one path: the global iceberg
  // threshold is applied coordinator-side to summed supports.
  local.min_support = 1;
  // Exceptions are holistic (Lemma 4.3) and redundancy is a global
  // property; neither can be assembled from per-shard results.
  local.compute_exceptions = false;
  local.mark_redundant = false;
  return local;
}

namespace {

IncrementalMaintainerOptions LocalMaintainerOptions(
    const ShardNodeOptions& options) {
  IncrementalMaintainerOptions local;
  local.build = ShardNode::ShardLocalBuild(options.global_build);
  local.window_records = options.window_records;
  return local;
}

}  // namespace

Result<std::unique_ptr<ShardNode>> ShardNode::Start(
    IncrementalMaintainer maintainer, const ShardNodeOptions& options) {
  std::unique_ptr<ShardNode> node(new ShardNode());
  node->maintainer_ =
      std::make_unique<IncrementalMaintainer>(std::move(maintainer));
  AttachToRegistry(node->maintainer_.get(), &node->registry_);
  // Publish the maintainer's cube as epoch 1 so the shard is queryable
  // before its next batch (every coordinator query pins one epoch per
  // shard; "no snapshot yet" would poison the whole fan-out).
  node->registry_.Publish(
      std::make_shared<const FlowCube>(node->maintainer_->cube().Clone()),
      node->maintainer_->live_record_count());
  node->service_ = std::make_unique<QueryService>(&node->registry_,
                                                  options.service);
  if (options.serve_remote) {
    ServerOptions server_options;
    server_options.max_frame_payload = kMaxInternalFramePayload;
    Result<std::unique_ptr<QueryServer>> server =
        QueryServer::Start(node->service_.get(), server_options);
    if (!server.ok()) return server.status();
    node->server_ = std::move(server).value();
  }
  return node;
}

Result<std::unique_ptr<ShardNode>> ShardNode::Create(SchemaPtr schema,
                                                     FlowCubePlan plan,
                                                     ShardNodeOptions options) {
  Result<IncrementalMaintainer> maintainer = IncrementalMaintainer::Create(
      std::move(schema), std::move(plan), LocalMaintainerOptions(options));
  if (!maintainer.ok()) return maintainer.status();
  return Start(std::move(maintainer).value(), options);
}

Result<std::unique_ptr<ShardNode>> ShardNode::ColdStart(
    SchemaPtr schema, FlowCubePlan plan, ShardNodeOptions options,
    const std::string& checkpoint_file) {
  // The restore validates the fingerprint against the derived shard-local
  // options and rebuilds the live-record indexes, so ingestion continues
  // exactly where the checkpointed shard stopped; the published clone's
  // sealed graphs share the restored image's columns.
  Result<RestoredPipeline> restored =
      LoadCheckpoint(checkpoint_file, std::move(schema), std::move(plan),
                     LocalMaintainerOptions(options));
  if (!restored.ok()) return restored.status();
  return Start(std::move(restored.value().maintainer), options);
}

Status ShardNode::SaveCheckpoint(const std::string& filename) const {
  return flowcube::SaveCheckpoint(*maintainer_, nullptr, filename);
}

ShardNode::~ShardNode() {
  // The server's workers call into service_ (and through it the registry);
  // stop them before any of that is torn down.
  if (server_ != nullptr) server_->Shutdown();
  if (maintainer_ != nullptr) maintainer_->SetPublishHook(nullptr);
}

Status ShardNode::Apply(std::span<const PathRecord> records) {
  return maintainer_->ApplyRecords(records);
}

}  // namespace flowcube
