#ifndef FLOWCUBE_MINING_SHARED_MINER_H_
#define FLOWCUBE_MINING_SHARED_MINER_H_

#include <unordered_map>
#include <vector>

#include "mining/apriori.h"
#include "mining/compatibility.h"
#include "mining/transform.h"

namespace flowcube {

// Options of algorithm Shared (paper Section 5.1). The three toggles map to
// the paper's candidate-pruning optimizations; switching them all off yields
// algorithm Basic ("the same algorithm as Shared except that we do not
// perform any candidate pruning"). The fourth optimization — dropping
// items aggregated to '*' — is applied in the transform and is always on.
struct SharedMinerOptions {
  // Absolute minimum support count (the iceberg threshold delta).
  uint32_t min_support = 1;

  // Optimization 1: pre-count high-abstraction-level patterns of length k+1
  // while counting length-k candidates, and prune low-level candidates
  // whose high-level generalization is known infrequent.
  bool prune_precount = true;

  // Optimization 2: prune candidates whose items cannot co-occur in one
  // transaction — two stages whose prefixes are not in a strict prefix
  // relation, two stages at different path abstraction levels, or two
  // different non-ancestor values of the same dimension.
  bool prune_unlinkable = true;

  // Optimization 4 (from [Srikant & Agrawal 95]): never count a candidate
  // containing an item together with one of its ancestors — the ancestor is
  // implied, so the support equals the candidate without it.
  bool prune_ancestors = true;

  // Dimension items at hierarchy level <= this count as "high level" for
  // pre-counting (the paper pre-counts at abstraction level 2 of its 3-level
  // hierarchies). Stage items are high level when their duration is '*'.
  int high_level_dim_level = 2;

  // Threads for pass 1's transaction scan and each candidate-counting
  // pass. 0 = FLOWCUBE_THREADS env, falling back to hardware concurrency;
  // 1 = serial. Any value produces bit-identical output: pass 1 merges
  // per-thread partial counters at the pass boundary and counting passes
  // give each thread disjoint candidates, so supports — and therefore the
  // frequent set and its order — never depend on the thread count.
  int num_threads = 0;
};

// The result of a full mining run: every frequent itemset (cells, path
// segments, and cell+segment combinations, at every interesting
// abstraction level) plus counting statistics.
struct SharedMiningOutput {
  std::vector<FrequentItemset> frequent;
  MiningStats stats;
};

// Algorithm Shared: a modified Apriori over the transformed transaction
// database that simultaneously finds the frequent cells of the flowcube and
// the frequent path segments in every cell, at every abstraction level of
// the item and path lattices, in one set of shared scans.
class SharedMiner {
 public:
  SharedMiner(const TransformedDatabase& db, SharedMinerOptions options);

  // Runs the mining loop to completion.
  SharedMiningOutput Run();

  // True when items a and b may appear together in a candidate under the
  // enabled pruning rules. Exposed for tests.
  bool ItemsCompatible(ItemId a, ItemId b) const;

  // Maps an item to its high-level generalization for pre-count pruning:
  // dimension items roll up to high_level_dim_level, stage items to their
  // same-cut duration-'*' twin. Returns the item itself when it is already
  // high level; kInvalidItem when no generalization exists. Exposed for
  // tests.
  ItemId GeneralizeItem(ItemId id) const;

  // True when the item is at a high abstraction level. Exposed for tests.
  bool IsHighLevel(ItemId id) const;

 private:
  // Maps a whole candidate through GeneralizeItem (sorted, deduped).
  // Returns false when some item has no generalization.
  bool GeneralizeItemset(const Itemset& in, Itemset* out) const;

  const TransformedDatabase& db_;
  SharedMinerOptions options_;
  ItemCompatibility compat_;
  // Exact supports of every pre-counted high-level pattern.
  std::unordered_map<Itemset, uint32_t, ItemsetHash> hl_counts_;
};

}  // namespace flowcube

#endif  // FLOWCUBE_MINING_SHARED_MINER_H_
