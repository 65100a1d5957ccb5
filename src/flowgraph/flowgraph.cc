#include "flowgraph/flowgraph.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "common/logging.h"

namespace flowcube {

FlowGraph::FlowGraph() { nodes_.emplace_back(); }

void FlowGraph::BumpDuration(FlowNodeId n, Duration d, uint32_t by) {
  std::vector<DurationCount>& counts = nodes_[n].duration_counts;
  const auto it = std::lower_bound(
      counts.begin(), counts.end(), d,
      [](const DurationCount& e, Duration v) { return e.duration < v; });
  if (it != counts.end() && it->duration == d) {
    it->count += by;
  } else {
    counts.insert(it, DurationCount{d, by});
  }
}

void FlowGraph::AddPath(const Path& path) {
  FC_CHECK_MSG(!sealed_, "cannot add paths to a sealed flowgraph");
  FC_CHECK_MSG(!path.empty(), "cannot add an empty path to a flowgraph");
  nodes_[kRoot].path_count++;
  FlowNodeId cur = kRoot;
  for (const Stage& s : path.stages) {
    FlowNodeId child = FindChild(cur, s.location);
    if (child == kTerminate) {
      child = static_cast<FlowNodeId>(nodes_.size());
      Node node;
      node.location = s.location;
      node.parent = cur;
      node.depth = nodes_[cur].depth + 1;
      nodes_.push_back(std::move(node));
      nodes_[cur].children.push_back(child);
    }
    nodes_[child].path_count++;
    BumpDuration(child, s.duration, 1);
    cur = child;
  }
  nodes_[cur].terminate_count++;
}

void FlowGraph::MergeFrom(const FlowGraph& other) {
  FC_CHECK_MSG(!sealed_, "cannot merge into a sealed flowgraph");
  // Iterative pairwise walk over (other node, this node). `other` is read
  // through accessors only, so sealed graphs are valid merge sources.
  std::vector<std::pair<FlowNodeId, FlowNodeId>> work = {{kRoot, kRoot}};
  while (!work.empty()) {
    const auto [src, dst] = work.back();
    work.pop_back();
    nodes_[dst].path_count += other.path_count(src);
    nodes_[dst].terminate_count += other.terminate_count(src);
    for (const DurationCount& dc : other.duration_counts(src)) {
      BumpDuration(dst, dc.duration, dc.count);
    }
    for (FlowNodeId src_child : other.children(src)) {
      const NodeId loc = other.location(src_child);
      FlowNodeId dst_child = FindChild(dst, loc);
      if (dst_child == kTerminate) {
        dst_child = static_cast<FlowNodeId>(nodes_.size());
        Node node;
        node.location = loc;
        node.parent = dst;
        node.depth = nodes_[dst].depth + 1;
        nodes_.push_back(std::move(node));
        nodes_[dst].children.push_back(dst_child);
      }
      work.emplace_back(src_child, dst_child);
    }
  }
}

FlowGraph FlowGraph::Canonical() const {
  FlowGraph out;
  // Breadth-first over (source node, canonical node) pairs. Canonical ids
  // are assigned in visit order, which depends only on the abstract tree
  // because each node's children are expanded in ascending location order
  // (locations are unique among siblings).
  std::deque<std::pair<FlowNodeId, FlowNodeId>> work;
  work.emplace_back(kRoot, kRoot);
  std::vector<FlowNodeId> kids;
  while (!work.empty()) {
    const auto [src, dst] = work.front();
    work.pop_front();
    out.nodes_[dst].path_count = path_count(src);
    out.nodes_[dst].terminate_count = terminate_count(src);
    const std::span<const DurationCount> durs = duration_counts(src);
    out.nodes_[dst].duration_counts.assign(durs.begin(), durs.end());
    kids.assign(children(src).begin(), children(src).end());
    std::sort(kids.begin(), kids.end(), [this](FlowNodeId a, FlowNodeId b) {
      return location(a) < location(b);
    });
    for (FlowNodeId c : kids) {
      const FlowNodeId id = static_cast<FlowNodeId>(out.nodes_.size());
      Node node;
      node.location = location(c);
      node.parent = dst;
      node.depth = out.nodes_[dst].depth + 1;
      out.nodes_.push_back(std::move(node));
      out.nodes_[dst].children.push_back(id);
      work.emplace_back(c, id);
    }
  }
  return out;
}

size_t FlowGraph::Columns::OwnedBytes() const {
  size_t bytes = 0;
  bytes += owned.location.capacity() * sizeof(NodeId);
  bytes += owned.parent.capacity() * sizeof(FlowNodeId);
  bytes += owned.depth.capacity() * sizeof(int32_t);
  bytes += owned.path_count.capacity() * sizeof(uint32_t);
  bytes += owned.terminate_count.capacity() * sizeof(uint32_t);
  bytes += owned.child_begin.capacity() * sizeof(uint32_t);
  bytes += owned.child_arena.capacity() * sizeof(FlowNodeId);
  bytes += owned.duration_begin.capacity() * sizeof(uint32_t);
  bytes += owned.duration_arena.capacity() * sizeof(DurationCount);
  return bytes;
}

void FlowGraph::Seal() {
  if (sealed_) return;
  const size_t n = nodes_.size();
  size_t num_edges = 0;
  size_t num_durations = 0;
  for (const Node& node : nodes_) {
    num_edges += node.children.size();
    num_durations += node.duration_counts.size();
  }

  SealedColumns o;
  o.location.reserve(n);
  o.parent.reserve(n);
  o.depth.reserve(n);
  o.path_count.reserve(n);
  o.terminate_count.reserve(n);
  o.child_begin.reserve(n + 1);
  o.child_arena.reserve(num_edges);
  o.duration_begin.reserve(n + 1);
  o.duration_arena.reserve(num_durations);

  for (const Node& node : nodes_) {
    o.location.push_back(node.location);
    o.parent.push_back(node.parent);
    o.depth.push_back(node.depth);
    o.path_count.push_back(node.path_count);
    o.terminate_count.push_back(node.terminate_count);
    o.child_begin.push_back(static_cast<uint32_t>(o.child_arena.size()));
    o.child_arena.insert(o.child_arena.end(), node.children.begin(),
                         node.children.end());
    o.duration_begin.push_back(
        static_cast<uint32_t>(o.duration_arena.size()));
    o.duration_arena.insert(o.duration_arena.end(),
                            node.duration_counts.begin(),
                            node.duration_counts.end());
  }
  o.child_begin.push_back(static_cast<uint32_t>(o.child_arena.size()));
  o.duration_begin.push_back(static_cast<uint32_t>(o.duration_arena.size()));
  InstallColumns(std::move(o));
}

FlowGraph FlowGraph::FromSealedColumns(SealedColumns columns) {
  FC_CHECK(!columns.location.empty() &&
           columns.child_begin.size() == columns.location.size() + 1 &&
           columns.duration_begin.size() == columns.location.size() + 1);
  FlowGraph g;
  g.InstallColumns(std::move(columns));
  return g;
}

void FlowGraph::InstallColumns(SealedColumns columns) {
  auto cols = std::make_shared<Columns>();
  cols->owned = std::move(columns);
  const SealedColumns& o = cols->owned;
  // The views are set only after the owned vectors reach their final
  // addresses inside the heap block.
  cols->location = {o.location.data(), o.location.size()};
  cols->parent = {o.parent.data(), o.parent.size()};
  cols->depth = {o.depth.data(), o.depth.size()};
  cols->path_count = {o.path_count.data(), o.path_count.size()};
  cols->terminate_count = {o.terminate_count.data(),
                           o.terminate_count.size()};
  cols->child_begin = {o.child_begin.data(), o.child_begin.size()};
  cols->child_arena = {o.child_arena.data(), o.child_arena.size()};
  cols->duration_begin = {o.duration_begin.data(), o.duration_begin.size()};
  cols->duration_arena = {o.duration_arena.data(), o.duration_arena.size()};

  cols_ = std::move(cols);
  nodes_.clear();
  nodes_.shrink_to_fit();
  sealed_ = true;
}

size_t FlowGraph::MemoryUsage() const {
  size_t bytes = sizeof(*this);
  if (sealed_) {
    // The column block is shared between copies of a sealed graph (and is
    // empty of heap when the columns borrow a checkpoint mapping); each
    // holder reports the full block, mirroring how shared snapshots are
    // accounted per cube.
    bytes += sizeof(Columns) + cols_->OwnedBytes();
  } else {
    bytes += nodes_.capacity() * sizeof(Node);
    for (const Node& node : nodes_) {
      bytes += node.children.capacity() * sizeof(FlowNodeId);
      bytes += node.duration_counts.capacity() * sizeof(DurationCount);
    }
  }
  bytes += exceptions_.capacity() * sizeof(FlowException);
  for (const FlowException& e : exceptions_) {
    bytes += e.condition.capacity() * sizeof(StageCondition);
  }
  return bytes;
}

void FlowGraph::AddException(FlowException e) {
  exceptions_.push_back(std::move(e));
}

FlowNodeId FlowGraph::FindChild(FlowNodeId n, NodeId loc) const {
  FC_DCHECK(n < num_nodes());
  for (FlowNodeId c : children(n)) {
    if (location(c) == loc) return c;
  }
  return kTerminate;
}

FlowNodeId FlowGraph::Walk(const Path& path, size_t upto) const {
  FlowNodeId cur = kRoot;
  const size_t n = std::min(upto, path.stages.size());
  for (size_t i = 0; i < n; ++i) {
    cur = FindChild(cur, path.stages[i].location);
    if (cur == kTerminate) return kTerminate;
  }
  return cur;
}

double FlowGraph::DurationProbability(FlowNodeId n, Duration d) const {
  FC_CHECK(n < num_nodes());
  const uint32_t paths = path_count(n);
  if (paths == 0) return 0.0;
  const std::span<const DurationCount> counts = duration_counts(n);
  const auto it = std::lower_bound(
      counts.begin(), counts.end(), d,
      [](const DurationCount& e, Duration v) { return e.duration < v; });
  if (it == counts.end() || it->duration != d) return 0.0;
  return static_cast<double>(it->count) / paths;
}

double FlowGraph::TransitionProbability(FlowNodeId n, FlowNodeId target) const {
  FC_CHECK(n < num_nodes());
  const uint32_t paths = path_count(n);
  if (paths == 0) return 0.0;
  if (target == kTerminate) {
    return static_cast<double>(terminate_count(n)) / paths;
  }
  FC_CHECK(target < num_nodes());
  FC_CHECK_MSG(parent(target) == n && target != kRoot,
               "transition target must be a child of the node");
  return static_cast<double>(path_count(target)) / paths;
}

double FlowGraph::PathProbability(const Path& path) const {
  double p = 1.0;
  FlowNodeId cur = kRoot;
  for (const Stage& s : path.stages) {
    const FlowNodeId child = FindChild(cur, s.location);
    if (child == kTerminate) return 0.0;
    p *= TransitionProbability(cur, child);
    p *= DurationProbability(child, s.duration);
    cur = child;
  }
  p *= TransitionProbability(cur, kTerminate);
  return p;
}

}  // namespace flowcube
