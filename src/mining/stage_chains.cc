#include "mining/stage_chains.h"

#include "common/logging.h"

namespace flowcube {

StageChains::StageChains(std::span<const int> path_levels,
                         size_t num_mining_levels)
    : slot_of_level_(num_mining_levels, -1) {
  for (int pl : path_levels) {
    FC_CHECK(pl >= 0 && static_cast<size_t>(pl) < num_mining_levels);
    path_levels_.push_back(static_cast<size_t>(pl));
    if (slot_of_level_[static_cast<size_t>(pl)] < 0) {
      slot_of_level_[static_cast<size_t>(pl)] =
          static_cast<int>(levels_.size());
      levels_.emplace_back();
    }
  }
}

void StageChains::Append(const Transaction& txn, const ItemCatalog& cat) {
  const PrefixTrie& trie = cat.trie();
  // A path's stage items at one level have prefix depths 1..len, one each,
  // so depth - 1 is the item's offset in the chain and the chain ends at
  // the deepest offset written.
  for (ItemId id : txn.StageItems(cat)) {
    const ItemCatalog::StageInfo& info = cat.StageOf(id);
    const int slot = slot_of_level_[info.path_level];
    if (slot < 0) continue;
    LevelChains& chains = levels_[static_cast<size_t>(slot)];
    const size_t pos =
        chains.begin.back() + static_cast<size_t>(trie.depth(info.prefix)) - 1;
    if (pos >= chains.items.size()) chains.items.resize(pos + 1);
    chains.items[pos] = id;
  }
  for (LevelChains& chains : levels_) {
    chains.begin.push_back(static_cast<uint32_t>(chains.items.size()));
  }
}

}  // namespace flowcube
