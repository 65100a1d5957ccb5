#include "mining/local_segments.h"

#include <algorithm>

#include "common/logging.h"
#include "mining/apriori.h"

namespace flowcube {

std::vector<SegmentPattern> MineCellSegments(const LevelChains& chains,
                                             std::span<const uint32_t> tids,
                                             uint32_t min_support) {
  // Project each member onto its chain at the level. A chain is in stage
  // order; Apriori wants each transaction's items sorted.
  std::vector<uint32_t> begin = {0};
  std::vector<ItemId> items;
  for (uint32_t tid : tids) {
    FC_CHECK(tid < chains.size());
    const std::span<const ItemId> chain = chains[tid];
    items.insert(items.end(), chain.begin(), chain.end());
    std::sort(items.end() - static_cast<ptrdiff_t>(chain.size()), items.end());
    begin.push_back(static_cast<uint32_t>(items.size()));
  }
  std::vector<std::span<const ItemId>> txns;
  txns.reserve(tids.size());
  for (size_t i = 0; i < tids.size(); ++i) {
    txns.emplace_back(items.data() + begin[i], begin[i + 1] - begin[i]);
  }

  AprioriOptions apriori_options;
  apriori_options.min_support = min_support;
  Apriori miner(apriori_options);
  std::vector<SegmentPattern> out;
  for (FrequentItemset& fi : miner.Mine(txns)) {
    out.push_back(SegmentPattern{std::move(fi.items), fi.support});
  }
  std::sort(out.begin(), out.end(),
            [](const SegmentPattern& a, const SegmentPattern& b) {
              if (a.support != b.support) return a.support > b.support;
              return a.stages < b.stages;
            });
  return out;
}

}  // namespace flowcube
