#ifndef FLOWCUBE_PERFBENCH_CHECKS_H_
#define FLOWCUBE_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "flowcube/flowcube.h"
#include "flowcube/plan.h"
#include "flowgraph/flowgraph.h"
#include "path/path.h"
#include "serve/protocol.h"

// Output checks of the benchmark. Each one compares what the program
// answered with a value computed apart from it (brute-force counts over
// the input records) or with a property the method must have (count
// conservation in a flowgraph, Lemma 4.2). The checks run after the timed
// phase, so neither their time nor their memory enters a metric.
namespace perfbench {

// Collects check failures; keeps the first few messages for the report.
class Errors {
 public:
  void Add(const std::string& message);
  bool ok() const { return count_ == 0; }
  size_t count() const { return count_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  size_t count_ = 0;
  std::vector<std::string> messages_;
};

// Per-dimension concept nodes of a cell (the hierarchy root for '*').
using CellNodes = std::vector<flowcube::NodeId>;

// Cell supports counted straight from the records: each record's dimension
// values are rolled up the concept hierarchies to every item level of the
// plan, with no mining and no catalog.
class BruteForceSupports {
 public:
  BruteForceSupports(const flowcube::PathSchema& schema,
                     const flowcube::FlowCubePlan& plan,
                     std::span<const flowcube::PathRecord> records);

  // Every cell key of item level `il` with its support (all supports >= 1).
  const std::map<CellNodes, uint32_t>& level(size_t il) const {
    return levels_[il];
  }
  size_t num_item_levels() const { return levels_.size(); }

  // Support of the cell named by `values` (one concept name per dimension,
  // "*" for the root); -1 when a name is unknown or its item level is not
  // in the plan.
  int64_t SupportOf(const std::vector<std::string>& values) const;

  // Number of cells with support >= min_support over all item levels.
  size_t CellsAtLeast(uint32_t min_support) const;

  // The cells one level more specific than `values` along `dim` with
  // support >= min_support; -1 as in SupportOf.
  int64_t ChildrenAtLeast(const std::vector<std::string>& values, size_t dim,
                          uint32_t min_support) const;

  size_t num_records() const { return num_records_; }
  const flowcube::PathSchema& schema() const { return schema_; }

 private:
  // Resolves names to nodes and the plan's item-level index; false when a
  // name is unknown or the item level is not materialized.
  bool Resolve(const std::vector<std::string>& values, CellNodes* nodes,
               size_t* il) const;

  const flowcube::PathSchema& schema_;
  const flowcube::FlowCubePlan& plan_;
  std::vector<std::map<CellNodes, uint32_t>> levels_;
  size_t num_records_ = 0;
};

// The per-dimension nodes of a cube cell's coordinates.
CellNodes NodesOfCell(const flowcube::FlowCube& cube,
                      const flowcube::Itemset& dims);

// Every cuboid holds exactly the brute-force cells with support >=
// min_support, each with the brute-force support.
void CheckCellSupports(const flowcube::FlowCube& cube,
                       const BruteForceSupports& truth, uint32_t min_support,
                       Errors* errors);

// The counts of one flowgraph, copied out of it so that a test can corrupt
// one of them.
struct GraphCounts {
  std::vector<flowcube::FlowNodeId> parent;
  std::vector<uint32_t> paths;
  std::vector<uint32_t> terminations;
  std::vector<uint64_t> duration_sum;
};
GraphCounts CountsOf(const flowcube::FlowGraph& graph);

// Count conservation: the root's count is the cell's support, and every
// node's count equals its children's counts plus its terminations and,
// below the root, the sum of its duration counts.
void CheckConservation(const GraphCounts& counts, uint32_t support,
                       const std::string& where, Errors* errors);
void CheckConservation(const flowcube::FlowCube& cube, Errors* errors);

// Lemma 4.2: a flowgraph merged from a cell's children equals the cell's
// own counts. `merged` comes from FlowCubeQuery::MergeChildren.
void CheckMergedEqualsParent(const flowcube::FlowGraph& parent,
                             const flowcube::FlowGraph& merged,
                             const std::string& where, Errors* errors);
// Runs the check above for every cell and dimension where MergeChildren
// succeeds; returns the number of merges checked.
size_t CheckLemma42(const flowcube::FlowCube& cube, Errors* errors);

// The paper's two compressions are exercised: at least one exception
// (Section 3) and at least one redundant cell (Section 4.3).
void CheckMethodOutputs(const flowcube::FlowCube& cube, Errors* errors);

// Two cubes dump byte-identically (flowcube/dump.h).
void CheckDumpsEqual(const flowcube::FlowCube& got,
                     const flowcube::FlowCube& want, Errors* errors);

// A freshness answer must come from the epoch that the batch's publication
// made: the one after `before`, the registry's epoch read before
// ApplyRecords (AttachToRegistry publishes once per ApplyRecords). A batch
// that was applied but not published leaves the answer at `before`.
void CheckFreshEpoch(uint64_t answered, uint64_t before,
                     const std::string& where, Errors* errors);

// 64-bit FNV-1a of a response body, kept instead of the body during the
// timed phase.
uint64_t BodyHash(const std::string& body);

// A served body (by its hash) equals the reference body.
void CheckSameBody(uint64_t served_hash, uint64_t reference_hash,
                   const std::string& where, Errors* errors);

// Checks one answer to a public request against the records it was built
// from: status OK, the request id echoed, and — by request type — cell
// supports, drill-down child counts and supports, a zero self-distance, and
// the kStats record and cell counts.
class AnswerOracle {
 public:
  AnswerOracle(const BruteForceSupports* truth, uint32_t min_support)
      : truth_(truth), min_support_(min_support) {}

  void Check(const flowcube::QueryRequest& request,
             const flowcube::QueryResponse& response,
             Errors* errors) const;

 private:
  void CheckCellBody(const std::string& body, const std::string& what,
                     Errors* errors) const;

  const BruteForceSupports* truth_;
  uint32_t min_support_;
};

// Similarity must be symmetric: d(a, b) == d(b, a) up to rounding, read
// from the two bodies.
void CheckSymmetric(const std::string& body_ab, const std::string& body_ba,
                    Errors* errors);

// Parses the value names of a rendered cell name "(a, b, *)".
std::vector<std::string> ParseCellName(const std::string& name);

// The cell name a point or ancestor lookup answered: the rest of the body's
// first line after "cell ", or "" when the body does not start with it.
std::string AnsweredCellName(const std::string& body);

}  // namespace perfbench

#endif  // FLOWCUBE_PERFBENCH_CHECKS_H_
