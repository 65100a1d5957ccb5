#ifndef FLOWCUBE_MINING_STAGE_CHAINS_H_
#define FLOWCUBE_MINING_STAGE_CHAINS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "mining/transaction.h"

namespace flowcube {

// The stage items of every transaction at one path abstraction level, in
// stage order: transaction t's aggregated path at this level is
// items[begin[t] .. begin[t + 1]), stage k being the item whose prefix has
// depth k + 1. The transform already resolved every stage to its prefix
// (paper Table 3), so a chain is the path in prefix-trie space and a cell's
// measure can be counted from its members' chains without walking a
// flowgraph per member.
struct LevelChains {
  std::vector<uint32_t> begin = {0};
  std::vector<ItemId> items;

  size_t size() const { return begin.size() - 1; }
  std::span<const ItemId> operator[](uint32_t tid) const {
    return {items.data() + begin[tid], begin[tid + 1] - begin[tid]};
  }
};

// Chains at a chosen subset of the mining plan's path levels (a flowcube
// keeps the levels it materializes). Kept beside the transformed database,
// not in it, so mining-only runs never pay for them.
class StageChains {
 public:
  // `path_levels` lists mining path-level indices (below
  // `num_mining_levels`); level(i) holds the chains of path_levels[i].
  StageChains(std::span<const int> path_levels, size_t num_mining_levels);

  // Appends one transaction's chains at every kept level, in one pass over
  // its stage items. Transactions must be appended in id order.
  void Append(const Transaction& txn, const ItemCatalog& cat);

  const LevelChains& level(size_t i) const {
    return levels_[static_cast<size_t>(slot_of_level_[path_levels_[i]])];
  }

 private:
  std::vector<size_t> path_levels_;
  // Mining path level -> index into levels_ (one per distinct kept level),
  // or -1 when not kept.
  std::vector<int> slot_of_level_;
  std::vector<LevelChains> levels_;
};

}  // namespace flowcube

#endif  // FLOWCUBE_MINING_STAGE_CHAINS_H_
