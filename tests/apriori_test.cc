#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "mining/apriori.h"

namespace flowcube {
namespace {

std::vector<std::span<const ItemId>> Spans(
    const std::vector<std::vector<ItemId>>& txns) {
  std::vector<std::span<const ItemId>> out;
  out.reserve(txns.size());
  for (const auto& t : txns) out.emplace_back(t.data(), t.size());
  return out;
}

// Brute force: count every subset of every transaction (bounded lengths).
std::map<Itemset, uint32_t> BruteForceFrequent(
    const std::vector<std::vector<ItemId>>& txns, uint32_t minsup,
    size_t max_len) {
  std::map<Itemset, uint32_t> counts;
  for (const auto& txn : txns) {
    // Enumerate subsets up to max_len via recursion.
    Itemset cur;
    std::function<void(size_t)> rec = [&](size_t start) {
      if (!cur.empty()) counts[cur]++;
      if (cur.size() == max_len) return;
      for (size_t i = start; i < txn.size(); ++i) {
        cur.push_back(txn[i]);
        rec(i + 1);
        cur.pop_back();
      }
    };
    rec(0);
  }
  std::map<Itemset, uint32_t> frequent;
  for (const auto& [items, c] : counts) {
    if (c >= minsup) frequent[items] = c;
  }
  return frequent;
}

// --- CandidateCounter: the reference engine --------------------------------------

TEST(CandidateCounter, CountsPairs) {
  CandidateCounter counter;
  const size_t ab = counter.Add({1, 2});
  const size_t ac = counter.Add({1, 3});
  counter.BuildPairIndex();
  const std::vector<ItemId> t1 = {1, 2, 3};
  const std::vector<ItemId> t2 = {1, 2};
  const std::vector<ItemId> t3 = {2, 3};
  counter.CountTransaction(t1);
  counter.CountTransaction(t2);
  counter.CountTransaction(t3);
  EXPECT_EQ(counter.count(ab), 2u);
  EXPECT_EQ(counter.count(ac), 1u);
}

TEST(CandidateCounter, CountsLongerItemsets) {
  CandidateCounter counter;
  const size_t abc = counter.Add({1, 2, 3});
  const size_t abd = counter.Add({1, 2, 4});
  const size_t abcde = counter.Add({1, 2, 3, 4, 5});
  counter.BuildPairIndex();
  const std::vector<ItemId> full = {1, 2, 3, 4, 5};
  const std::vector<ItemId> part = {1, 2, 3, 5};
  counter.CountTransaction(full);
  counter.CountTransaction(part);
  EXPECT_EQ(counter.count(abc), 2u);
  EXPECT_EQ(counter.count(abd), 1u);
  EXPECT_EQ(counter.count(abcde), 1u);
}

TEST(CandidateCounter, MixedLengthsInOnePass) {
  CandidateCounter counter;
  const size_t pair = counter.Add({1, 5});
  const size_t triple = counter.Add({1, 5, 9});
  counter.BuildPairIndex();
  const std::vector<ItemId> t = {1, 3, 5, 9};
  counter.CountTransaction(t);
  EXPECT_EQ(counter.count(pair), 1u);
  EXPECT_EQ(counter.count(triple), 1u);
}

TEST(CandidateCounter, IgnoresIrrelevantItems) {
  CandidateCounter counter;
  const size_t c = counter.Add({100, 200});
  counter.BuildPairIndex();
  std::vector<ItemId> t;
  for (ItemId i = 0; i < 50; ++i) t.push_back(i);
  t.push_back(100);
  t.push_back(200);
  counter.CountTransaction(t);
  EXPECT_EQ(counter.count(c), 1u);
}

TEST(CandidateCounter, ClearResets) {
  CandidateCounter counter;
  counter.Add({1, 2});
  counter.BuildPairIndex();
  counter.Clear();
  EXPECT_EQ(counter.size(), 0u);
  counter.Add({3, 4});
  counter.BuildPairIndex();
  EXPECT_EQ(counter.size(), 1u);
}

// --- AprioriJoin ------------------------------------------------------------------

TEST(AprioriJoin, JoinsSingletonsIntoAllPairs) {
  const auto out = AprioriJoin({{1}, {2}, {3}});
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (Itemset{1, 2}));
  EXPECT_EQ(out[1], (Itemset{1, 3}));
  EXPECT_EQ(out[2], (Itemset{2, 3}));
}

TEST(AprioriJoin, JoinsOnSharedPrefix) {
  const auto out = AprioriJoin({{1, 2}, {1, 3}, {2, 3}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (Itemset{1, 2, 3}));
}

TEST(AprioriJoin, EmptyInput) { EXPECT_TRUE(AprioriJoin({}).empty()); }

TEST(AllSubsetsFrequent, DetectsMissingSubset) {
  std::unordered_set<Itemset, ItemsetHash> frequent = {{1, 2}, {1, 3}};
  EXPECT_FALSE(AllSubsetsFrequent({1, 2, 3}, frequent));
  frequent.insert({2, 3});
  EXPECT_TRUE(AllSubsetsFrequent({1, 2, 3}, frequent));
}

// --- Apriori ----------------------------------------------------------------------

TEST(Apriori, ClassicTextbookExample) {
  const std::vector<std::vector<ItemId>> txns = {
      {1, 3, 4}, {2, 3, 5}, {1, 2, 3, 5}, {2, 5}};
  Apriori apriori(AprioriOptions{2, nullptr});
  const auto result = apriori.Mine(Spans(txns));
  std::map<Itemset, uint32_t> got;
  for (const auto& fi : result) got[fi.items] = fi.support;
  // The classic Agrawal-Srikant example result.
  EXPECT_EQ(got.at({1}), 2u);
  EXPECT_EQ(got.at({2}), 3u);
  EXPECT_EQ(got.at({3}), 3u);
  EXPECT_EQ(got.at({5}), 3u);
  EXPECT_EQ(got.at({1, 3}), 2u);
  EXPECT_EQ(got.at({2, 3}), 2u);
  EXPECT_EQ(got.at({2, 5}), 3u);
  EXPECT_EQ(got.at({3, 5}), 2u);
  EXPECT_EQ(got.at({2, 3, 5}), 2u);
  EXPECT_EQ(got.size(), 9u);
  EXPECT_FALSE(got.contains({4}));
}

TEST(Apriori, CandidateFilterPrunes) {
  const std::vector<std::vector<ItemId>> txns = {{1, 2}, {1, 2}, {1, 2}};
  AprioriOptions opts;
  opts.min_support = 2;
  opts.candidate_filter = [](const Itemset&) { return false; };
  Apriori apriori(opts);
  const auto result = apriori.Mine(Spans(txns));
  // Only singletons survive: every longer candidate is filtered.
  for (const auto& fi : result) EXPECT_EQ(fi.items.size(), 1u);
}

TEST(Apriori, StatsTrackCandidatesAndPasses) {
  const std::vector<std::vector<ItemId>> txns = {
      {1, 2, 3}, {1, 2, 3}, {1, 2, 3}};
  Apriori apriori(AprioriOptions{3, nullptr});
  apriori.Mine(Spans(txns));
  const MiningStats& stats = apriori.stats();
  EXPECT_GE(stats.passes, 3);
  ASSERT_GT(stats.candidates_per_length.size(), 3u);
  EXPECT_EQ(stats.candidates_per_length[2], 3u);
  EXPECT_EQ(stats.candidates_per_length[3], 1u);
  EXPECT_EQ(stats.frequent_per_length[3], 1u);
  EXPECT_EQ(stats.TotalCandidates(),
            stats.candidates_per_length[1] + 3 + 1);
}

TEST(MiningStats, MergeAccumulates) {
  MiningStats a;
  a.candidates_per_length = {0, 5, 3};
  a.frequent_per_length = {0, 4, 1};
  a.passes = 2;
  MiningStats b;
  b.candidates_per_length = {0, 1, 2, 7};
  b.frequent_per_length = {0, 1, 0, 2};
  b.passes = 3;
  a.Merge(b);
  EXPECT_EQ(a.candidates_per_length, (std::vector<uint64_t>{0, 6, 5, 7}));
  EXPECT_EQ(a.frequent_per_length, (std::vector<uint64_t>{0, 5, 1, 2}));
  EXPECT_EQ(a.passes, 5);
  EXPECT_EQ(a.TotalFrequent(), 8u);
}

// Property test: Apriori output equals brute force over random databases.
class AprioriBruteForce : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AprioriBruteForce, MatchesBruteForceEnumeration) {
  Random rng(GetParam());
  std::vector<std::vector<ItemId>> txns(40);
  for (auto& t : txns) {
    std::set<ItemId> items;
    const size_t len = 1 + rng.Uniform(6);
    for (size_t i = 0; i < len; ++i) {
      items.insert(static_cast<ItemId>(rng.Uniform(12)));
    }
    t.assign(items.begin(), items.end());
  }
  const uint32_t minsup = 3;
  Apriori apriori(AprioriOptions{minsup, nullptr});
  const auto result = apriori.Mine(Spans(txns));
  std::map<Itemset, uint32_t> got;
  for (const auto& fi : result) got[fi.items] = fi.support;

  const auto want = BruteForceFrequent(txns, minsup, 7);
  EXPECT_EQ(got.size(), want.size());
  for (const auto& [items, support] : want) {
    ASSERT_TRUE(got.contains(items));
    EXPECT_EQ(got.at(items), support);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AprioriBruteForce,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u));

}  // namespace
}  // namespace flowcube
