#include "mining/local_segments.h"

#include <algorithm>

#include "common/logging.h"
#include "mining/apriori.h"

namespace flowcube {

std::vector<SegmentPattern> MineCellSegments(const LevelChains& chains,
                                             std::span<const uint32_t> tids,
                                             uint32_t min_support) {
  // Prefilter: count the members' stage items once. Every item of a
  // frequent segment is itself frequent (Apriori's anti-monotonicity), so
  // a cell with no item at min_support has no segment, and an infrequent
  // item takes part in no frequent segment.
  std::vector<std::span<const ItemId>> txns;
  txns.reserve(tids.size());
  for (uint32_t tid : tids) {
    FC_CHECK(tid < chains.size());
    txns.push_back(chains[tid]);
  }
  const std::vector<ItemCount> frequent =
      CountFrequentItems(txns, min_support);
  if (frequent.empty()) return {};

  // Project each member onto its frequent items. A chain is in stage
  // order; Apriori wants each transaction's items sorted. A member left
  // with no item supports no segment and is dropped.
  std::vector<uint32_t> begin = {0};
  std::vector<ItemId> items;
  for (const std::span<const ItemId> chain : txns) {
    const size_t start = items.size();
    for (ItemId id : chain) {
      if (std::ranges::binary_search(frequent, id, {}, &ItemCount::item)) {
        items.push_back(id);
      }
    }
    if (items.size() == start) continue;
    std::sort(items.begin() + static_cast<ptrdiff_t>(start), items.end());
    begin.push_back(static_cast<uint32_t>(items.size()));
  }
  txns.clear();
  for (size_t i = 0; i + 1 < begin.size(); ++i) {
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
