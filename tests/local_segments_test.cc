// Unit cases of MineCellSegments, the stream maintainer's per-cell segment
// miner, against a brute-force count: every non-empty subset of each
// member's chain, kept when its count reaches min_support and sorted like
// SegmentsForCell (support descending, then stages ascending). The cases
// aim at the prefilter that counts the members' stage items before any
// Apriori runs.

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "mining/local_segments.h"
#include "mining/stage_chains.h"

namespace flowcube {
namespace {

using Segments = std::vector<std::pair<Itemset, uint32_t>>;

// One chain per transaction id, items in stage order.
LevelChains MakeChains(const std::vector<std::vector<ItemId>>& paths) {
  LevelChains chains;
  for (const std::vector<ItemId>& path : paths) {
    chains.items.insert(chains.items.end(), path.begin(), path.end());
    chains.begin.push_back(static_cast<uint32_t>(chains.items.size()));
  }
  return chains;
}

Segments BruteForce(const LevelChains& chains,
                    const std::vector<uint32_t>& tids, uint32_t min_support) {
  std::map<Itemset, uint32_t> counts;
  for (uint32_t tid : tids) {
    Itemset items(chains[tid].begin(), chains[tid].end());
    std::sort(items.begin(), items.end());
    for (uint32_t mask = 1; mask < (1u << items.size()); ++mask) {
      Itemset subset;
      for (size_t k = 0; k < items.size(); ++k) {
        if ((mask >> k) & 1u) subset.push_back(items[k]);
      }
      counts[subset]++;
    }
  }
  Segments out;
  for (const auto& [items, support] : counts) {
    if (support >= min_support) out.emplace_back(items, support);
  }
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  return out;
}

Segments Mine(const LevelChains& chains, const std::vector<uint32_t>& tids,
              uint32_t min_support) {
  Segments out;
  for (const SegmentPattern& seg :
       MineCellSegments(chains, tids, min_support)) {
    out.emplace_back(seg.stages, seg.support);
  }
  return out;
}

std::vector<uint32_t> AllTids(const LevelChains& chains) {
  std::vector<uint32_t> tids(chains.size());
  for (uint32_t t = 0; t < tids.size(); ++t) tids[t] = t;
  return tids;
}

TEST(MineCellSegments, NoItemReachingMinSupportYieldsNothing) {
  // Every item appears at most twice; a support of 3 admits none. Item 10
  // appears three times in the chains, but one of those members is not in
  // the cell.
  const LevelChains chains = MakeChains(
      {{10, 20, 30}, {10, 21, 31}, {11, 20, 32}, {11, 21}, {10, 22}});
  const std::vector<uint32_t> tids = {0, 1, 2, 3};
  EXPECT_TRUE(BruteForce(chains, tids, 3).empty());
  EXPECT_TRUE(Mine(chains, tids, 3).empty());
}

TEST(MineCellSegments, ItemAtExactlyMinSupportIsKept) {
  // Item 20 appears in exactly three members: at min_support 3 it is the
  // only frequent segment.
  const LevelChains chains =
      MakeChains({{10, 20}, {11, 20, 30}, {12, 20}, {13, 21}});
  const std::vector<uint32_t> tids = AllTids(chains);
  const Segments want = {{{20}, 3}};
  EXPECT_EQ(BruteForce(chains, tids, 3), want);
  EXPECT_EQ(Mine(chains, tids, 3), want);
  // One above the count, nothing survives.
  EXPECT_TRUE(Mine(chains, tids, 4).empty());
}

TEST(MineCellSegments, FrequentPairBesideInfrequentItemsAtOtherDepths) {
  // {10, 20} is frequent at support 2; its members also carry infrequent
  // items at depth 3 (30, 31), and other members carry infrequent items at
  // depths 1 and 2. Chains are in stage order, not id order.
  const LevelChains chains = MakeChains({{10, 20, 30},
                                         {10, 20, 31},
                                         {11, 21, 32},
                                         {12, 20},
                                         {33, 5, 20}});
  const std::vector<uint32_t> tids = {0, 1, 2, 3};
  const Segments want = {{{20}, 3}, {{10}, 2}, {{10, 20}, 2}};
  EXPECT_EQ(BruteForce(chains, tids, 2), want);
  EXPECT_EQ(Mine(chains, tids, 2), want);
  // With the fifth member, 20 reaches 4 and the members' other items stay
  // infrequent.
  const Segments want_all = {{{20}, 4}, {{10}, 2}, {{10, 20}, 2}};
  EXPECT_EQ(Mine(chains, AllTids(chains), 2), want_all);
}

TEST(MineCellSegments, RandomCellsEqualBruteForce) {
  Random rng(2006);
  size_t empty = 0;
  size_t pairs = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::vector<ItemId>> paths(2 + rng.Uniform(30));
    for (std::vector<ItemId>& path : paths) {
      const size_t len = 1 + rng.Uniform(5);
      for (size_t depth = 0; depth < len; ++depth) {
        // A few items per depth, ids interleaved across depths.
        path.push_back(static_cast<ItemId>(depth + 6 * rng.Uniform(4)));
      }
    }
    const LevelChains chains = MakeChains(paths);
    std::vector<uint32_t> tids;
    for (uint32_t t = 0; t < chains.size(); ++t) {
      if (rng.Bernoulli(0.7)) tids.push_back(t);
    }
    const uint32_t min_support = 1 + static_cast<uint32_t>(rng.Uniform(6));
    const Segments want = BruteForce(chains, tids, min_support);
    ASSERT_EQ(Mine(chains, tids, min_support), want)
        << "trial " << trial << ", min_support " << min_support;
    if (want.empty()) empty++;
    for (const auto& [items, support] : want) {
      if (items.size() >= 2) pairs++;
    }
  }
  // Both the early return and multi-item segments occur.
  EXPECT_GT(empty, 0u);
  EXPECT_GT(pairs, 0u);
}

}  // namespace
}  // namespace flowcube
