#ifndef FLOWCUBE_FLOWGRAPH_FLOWGRAPH_H_
#define FLOWCUBE_FLOWGRAPH_FLOWGRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "path/path.h"

namespace flowcube {

// Index of a node inside one FlowGraph.
using FlowNodeId = uint32_t;

// One entry of a node's stay-duration distribution: `count` paths stayed at
// the node for exactly `duration`. A node's entries are kept sorted by
// duration ascending, in both the mutable and the sealed representation, so
// iteration order matches the std::map the accumulation code historically
// used (dumps and checkpoints depend on it).
struct DurationCount {
  Duration duration = 0;
  uint32_t count = 0;

  friend bool operator==(const DurationCount& a,
                         const DurationCount& b) = default;
};

// One duration (or passage) constraint of an exception condition: the path
// visited flowgraph node `node` with the given duration (kAnyDuration = any
// duration, i.e. only passage through the node is required).
struct StageCondition {
  FlowNodeId node = 0;
  Duration duration = kAnyDuration;

  friend bool operator==(const StageCondition& a, const StageCondition& b) {
    return a.node == b.node && a.duration == b.duration;
  }
};

// A recorded deviation from the flowgraph's general distributions given a
// frequent path prefix (paper Section 3): conditioned on `condition`, the
// probability of `transition_target` (or of `duration_value`) at `node`
// differs from the unconditional one by at least epsilon, with the
// condition matched by at least delta paths.
struct FlowException {
  enum class Kind { kTransition, kDuration };

  Kind kind = Kind::kTransition;
  // Conditions sorted by node depth; every condition node is an ancestor of
  // (or equal to, for transition exceptions) `node`.
  std::vector<StageCondition> condition;
  // The node whose distribution deviates.
  FlowNodeId node = 0;
  // Kind::kTransition — the deviating transition (child node index, or
  // FlowGraph::kTerminate for the termination probability).
  FlowNodeId transition_target = 0;
  // Kind::kDuration — the deviating duration value.
  Duration duration_value = 0;
  double global_probability = 0.0;
  double conditional_probability = 0.0;
  // Number of paths matching the condition (and reaching `node`).
  uint32_t condition_support = 0;
};

// The flowgraph (paper Definition 3.1): a tree-shaped probabilistic
// workflow. Each node corresponds to a unique path prefix; it carries a
// multinomial distribution over stay durations, a multinomial distribution
// over transitions to child locations (plus termination), and a set of
// exceptions to those distributions under frequent path prefixes.
//
// The tree is built by accumulating counts over a collection of paths
// (AddPath); distributions are exact count ratios, which is what makes the
// distribution component an algebraic measure (Lemma 4.2).
//
// The graph has two storage forms behind one accessor API:
//
//   * mutable (the default): node-at-a-time records, each owning its child
//     vector and duration vector — cheap to grow while counts accumulate.
//   * sealed (after Seal()): immutable structure-of-arrays column tables,
//     CSR child-edge arrays, and a single flat arena of sorted
//     (duration, count) pairs addressed by per-node spans — half the
//     memory and scan-friendly for similarity/query/serialization.
//
// Seal() preserves node ids, child order, and duration order exactly, so
// every derived artifact (dump text, checkpoint bytes, probabilities) is
// bit-identical across the two forms. Count mutation (AddPath / MergeFrom)
// is only legal on the mutable form; a sealed graph can still be a *source*
// of MergeFrom. Graphs counted straight into columns (FromSealedColumns)
// are born sealed and never take the mutable form.
//
// The sealed columns live behind a shared immutable block
// (shared_ptr<const Columns>): the column *views* are spans that resolve
// against either vectors owned by the block (heap-sealed graphs) or an
// external checkpoint mapping pinned by the block's keepalive handle
// (store/mapped_cube.h). Copying a sealed graph therefore shares the
// column block instead of deep-copying it — which is both what makes a
// mapped cube zero-copy and what lets the serving layer share unchanged
// graphs across snapshot epochs (sealed_identity()).
class FlowGraph {
 public:
  // Sentinel transition target meaning "path terminates here".
  static constexpr FlowNodeId kTerminate = static_cast<FlowNodeId>(-1);
  // The virtual root node (empty prefix). Its children are the first
  // locations of paths; its path_count is the total number of paths.
  static constexpr FlowNodeId kRoot = 0;

  FlowGraph();

  // Accumulates one path into the counts. Requires !sealed().
  void AddPath(const Path& path);

  // Adds `other`'s counts into this graph, creating missing branches — the
  // algebraic aggregation of Lemma 4.2. Exceptions are holistic (Lemma
  // 4.3) and are NOT merged; this graph's exception list is left unchanged
  // and should be re-mined when needed. Requires !sealed(); `other` may be
  // in either form.
  void MergeFrom(const FlowGraph& other);

  // Returns a structurally-equal copy whose node numbering is a pure
  // function of the abstract tree: breadth-first from the root, each node's
  // children ordered by ascending location. Two graphs accumulating the same
  // counts — regardless of AddPath/MergeFrom order — canonicalize to the
  // same node tables, so dumps and serializations of the canonical form are
  // byte-comparable. Exceptions are dropped (their node ids refer to the
  // original numbering, and the exception set is holistic anyway). The
  // result is mutable (unsealed). Works on either storage form.
  FlowGraph Canonical() const;

  // Freezes the graph into the columnar form. Idempotent. Accessors keep
  // returning the same values; AddPath and MergeFrom FC_CHECK afterwards.
  void Seal();
  bool sealed() const { return sealed_; }

  // The owned column vectors of a sealed graph: five node columns of
  // num_nodes entries; child_begin and duration_begin, num_nodes + 1 CSR
  // offsets into child_arena (each node's children in ascending id order)
  // and duration_arena (each node's entries sorted by duration).
  struct SealedColumns {
    std::vector<NodeId> location;
    std::vector<FlowNodeId> parent;
    std::vector<int32_t> depth;
    std::vector<uint32_t> path_count;
    std::vector<uint32_t> terminate_count;
    std::vector<uint32_t> child_begin;
    std::vector<FlowNodeId> child_arena;
    std::vector<uint32_t> duration_begin;
    std::vector<DurationCount> duration_arena;
  };

  // A sealed graph over columns counted directly into their final form
  // (flowcube/cell_build.h counts cell measures this way), with no
  // node-at-a-time form and no Seal() copy. The columns must be ones
  // AddPath + Seal() could have produced, node numbering included; the
  // caller audits the result.
  static FlowGraph FromSealedColumns(SealedColumns columns);

  // Bytes owned by this graph: sizeof(*this) plus all heap the current
  // representation holds (node records, child edges, duration entries,
  // exceptions).
  size_t MemoryUsage() const;

  size_t num_nodes() const {
    return sealed_ ? cols_->location.size() : nodes_.size();
  }

  // Total number of paths added.
  uint32_t total_paths() const { return path_count(kRoot); }

  // Identity of the sealed column block: two sealed graphs share storage
  // iff their identities compare equal (copies of a sealed graph share the
  // block). nullptr for mutable graphs. The serving layer counts
  // epoch-over-epoch snapshot sharing with this.
  const void* sealed_identity() const {
    return static_cast<const void*>(cols_.get());
  }

  // --- Node structure -------------------------------------------------------

  NodeId location(FlowNodeId n) const {
    return sealed_ ? cols_->location[n] : nodes_[n].location;
  }
  FlowNodeId parent(FlowNodeId n) const {
    return sealed_ ? cols_->parent[n] : nodes_[n].parent;
  }
  std::span<const FlowNodeId> children(FlowNodeId n) const {
    if (sealed_) {
      return {cols_->child_arena.data() + cols_->child_begin[n],
              cols_->child_begin[n + 1] - cols_->child_begin[n]};
    }
    return {nodes_[n].children.data(), nodes_[n].children.size()};
  }
  int depth(FlowNodeId n) const {
    return sealed_ ? cols_->depth[n] : nodes_[n].depth;
  }

  // Child of `n` whose location is `loc`, or kTerminate if none.
  FlowNodeId FindChild(FlowNodeId n, NodeId loc) const;

  // Node reached by following the path's locations from the root, or
  // kTerminate when the graph has no such branch. `upto` limits the number
  // of stages followed (SIZE_MAX = all).
  FlowNodeId Walk(const Path& path, size_t upto = SIZE_MAX) const;

  // --- Counts and distributions ----------------------------------------------

  // Paths passing through the node.
  uint32_t path_count(FlowNodeId n) const {
    return sealed_ ? cols_->path_count[n] : nodes_[n].path_count;
  }
  // Paths terminating at the node.
  uint32_t terminate_count(FlowNodeId n) const {
    return sealed_ ? cols_->terminate_count[n] : nodes_[n].terminate_count;
  }
  // Count of each observed stay duration at the node, sorted by duration
  // ascending.
  std::span<const DurationCount> duration_counts(FlowNodeId n) const {
    if (sealed_) {
      return {cols_->duration_arena.data() + cols_->duration_begin[n],
              cols_->duration_begin[n + 1] - cols_->duration_begin[n]};
    }
    return {nodes_[n].duration_counts.data(),
            nodes_[n].duration_counts.size()};
  }

  // P(duration = d | at node), exact count ratio.
  double DurationProbability(FlowNodeId n, Duration d) const;

  // P(next = child | at node) for a child node index; use kTerminate for
  // the termination probability.
  double TransitionProbability(FlowNodeId n, FlowNodeId target) const;

  // Probability of observing exactly `path` under the model (product of
  // transition and duration probabilities, with termination). 0 when the
  // path leaves the tree.
  double PathProbability(const Path& path) const;

  // --- Exceptions (paper Section 3) ------------------------------------------

  // Legal on either form: exceptions are held per graph, outside the shared
  // column block.
  void AddException(FlowException e);
  const std::vector<FlowException>& exceptions() const { return exceptions_; }

 private:
  // Corruption backdoor for tests/audit_test.cc.
  friend struct FlowGraphTestPeer;
  // Shard wire codec (src/serve/shard_codec.cc): serializes the node
  // tables verbatim (children order included) so a decoded graph merges
  // and dumps byte-identically.
  friend struct FlowGraphWireCodec;
  // Store loader (src/store/cube_codec.cc): assembles sealed graphs whose
  // column views borrow a checkpoint mapping.
  friend struct FlowGraphStoreAccess;

  // Mutable accumulation form: one record per node.
  struct Node {
    NodeId location = kInvalidNode;
    FlowNodeId parent = kRoot;
    int depth = 0;
    std::vector<FlowNodeId> children;
    uint32_t path_count = 0;
    uint32_t terminate_count = 0;
    // Sorted by duration ascending; AddPath/MergeFrom insert in place.
    std::vector<DurationCount> duration_counts;
  };

  // Sealed columnar form: parallel column views indexed by node id, plus
  // CSR offset arrays (num_nodes + 1 entries) into the two arenas. The
  // views resolve against `owned` for heap-sealed graphs, or against an
  // external allocation pinned by `keepalive` for mapped graphs — in which
  // case child_begin/duration_begin values may be absolute offsets into an
  // arena shared by every graph of a cuboid (the accessor arithmetic
  // `arena.data() + begin[n]` is the same either way). Immutable once
  // built; shared between graph copies via shared_ptr.
  struct Columns {
    std::span<const NodeId> location;
    std::span<const FlowNodeId> parent;
    std::span<const int32_t> depth;
    std::span<const uint32_t> path_count;
    std::span<const uint32_t> terminate_count;
    std::span<const uint32_t> child_begin;
    std::span<const FlowNodeId> child_arena;
    std::span<const uint32_t> duration_begin;
    std::span<const DurationCount> duration_arena;

    SealedColumns owned;                    // empty for mapped graphs
    std::shared_ptr<const void> keepalive;  // mapping pin for mapped graphs

    // Heap bytes held by the owned vectors (0 for mapped graphs).
    size_t OwnedBytes() const;
  };

  // Increments the count of duration `d` at mutable node `n`, keeping the
  // entries sorted.
  void BumpDuration(FlowNodeId n, Duration d, uint32_t by);

  // Moves `columns` into a fresh heap block and points the views at it.
  void InstallColumns(SealedColumns columns);

  std::vector<Node> nodes_;              // empty once sealed
  std::shared_ptr<const Columns> cols_;  // null until sealed
  bool sealed_ = false;
  std::vector<FlowException> exceptions_;
};

}  // namespace flowcube

#endif  // FLOWCUBE_FLOWGRAPH_FLOWGRAPH_H_
