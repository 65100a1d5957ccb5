// Kernel-equivalence tests for the mining hot paths (DESIGN.md §13): every
// simd.h kernel at every compiled-in level against its scalar reference,
// and the tidlist counting engine against the reference engine (the
// horizontal pair-index scan) over randomized transaction databases —
// including empty, 1-item, duplicate-heavy and Zipf-skewed ones large
// enough to reach the engine's sparse-list branch. Runs in the `unit`
// label, so the asan-ubsan and tsan CI legs cover the intrinsics too.

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/audit.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/zipf.h"
#include "mining/apriori.h"
#include "mining/counting_backend.h"

namespace flowcube {
namespace {

// Every level worth testing on this build: scalar always; SSE2 and the
// hardware's ActiveLevel() when the build carries x86 kernels.
std::vector<simd::Level> TestLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::ActiveLevel() != simd::Level::kScalar) {
    levels.push_back(simd::Level::kSse2);
    levels.push_back(simd::ActiveLevel());
  }
  return levels;
}

std::vector<uint32_t> RandomSortedUnique(Random* rng, size_t max_len,
                                         uint32_t universe) {
  std::set<uint32_t> s;
  const size_t len = rng->Uniform(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    s.insert(static_cast<uint32_t>(rng->Uniform(universe)));
  }
  return {s.begin(), s.end()};
}

// --- simd.h primitives ------------------------------------------------------

TEST(SimdKernels, IntersectCountMatchesScalarAndStd) {
  Random rng(13);
  for (int round = 0; round < 300; ++round) {
    // Mix dense overlaps with heavily skewed sizes (gallop path).
    const uint32_t universe = 1 + static_cast<uint32_t>(rng.Uniform(400));
    const auto a = RandomSortedUnique(&rng, 80, universe);
    const size_t b_max = rng.Uniform(3) == 0 ? 2000 : 40;
    const auto b = RandomSortedUnique(&rng, b_max, universe + 2000);

    std::vector<uint32_t> ref;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(ref));
    ASSERT_EQ(simd::IntersectCountU32Scalar(a.data(), a.size(), b.data(),
                                            b.size()),
              ref.size());
    for (simd::Level level : TestLevels()) {
      ASSERT_EQ(simd::IntersectCountU32(a.data(), a.size(), b.data(),
                                        b.size(), level),
                ref.size())
          << simd::LevelName(level) << " round " << round;
    }
    std::vector<uint32_t> out(std::min(a.size(), b.size()));
    const size_t n =
        simd::IntersectU32(a.data(), a.size(), b.data(), b.size(), out.data());
    out.resize(n);
    ASSERT_EQ(out, ref);
  }
}

TEST(SimdKernels, AndPopcountAndAndIntoMatchScalar) {
  Random rng(17);
  for (int round = 0; round < 200; ++round) {
    const size_t n_words = rng.Uniform(40);
    std::vector<uint64_t> a(n_words);
    std::vector<uint64_t> b(n_words);
    for (size_t i = 0; i < n_words; ++i) {
      a[i] = (static_cast<uint64_t>(rng.Uniform(1u << 30)) << 34) ^
             rng.Uniform(1u << 30);
      b[i] = (static_cast<uint64_t>(rng.Uniform(1u << 30)) << 34) ^
             rng.Uniform(1u << 30);
    }
    std::vector<uint64_t> want(n_words);
    simd::AndIntoU64Scalar(a.data(), b.data(), n_words, want.data());
    const size_t want_count =
        simd::AndPopcountU64Scalar(a.data(), b.data(), n_words);
    size_t check = 0;
    for (uint64_t w : want) check += __builtin_popcountll(w);
    ASSERT_EQ(want_count, check);
    for (simd::Level level : TestLevels()) {
      ASSERT_EQ(simd::AndPopcountU64(a.data(), b.data(), n_words, level),
                want_count)
          << simd::LevelName(level);
      std::vector<uint64_t> got(n_words);
      simd::AndIntoU64(a.data(), b.data(), n_words, got.data(), level);
      ASSERT_EQ(got, want) << simd::LevelName(level);
      // In-place destination aliasing a, as the k-way chains use it.
      std::vector<uint64_t> inplace = a;
      simd::AndIntoU64(inplace.data(), b.data(), n_words, inplace.data(),
                       level);
      ASSERT_EQ(inplace, want) << simd::LevelName(level);
    }
  }
}

// --- Tidlist engine against the reference -----------------------------------

// A randomized workload: transactions (sorted unique items) plus candidates
// drawn from 2-4 item subsets of the item universe.
struct Workload {
  std::vector<std::vector<ItemId>> txns;
  std::vector<Itemset> candidates;
};

Workload MakeWorkload(uint64_t seed, bool duplicate_heavy) {
  Random rng(seed);
  Workload w;
  const uint32_t universe = 2 + static_cast<uint32_t>(rng.Uniform(24));
  const size_t n_txns = 30 + rng.Uniform(60);
  for (size_t t = 0; t < n_txns; ++t) {
    // Edge cases on purpose: empty and 1-item transactions stay in the mix.
    w.txns.push_back(RandomSortedUnique(&rng, 10, universe));
    if (duplicate_heavy && !w.txns.back().empty()) {
      // Repeat the same transaction many times (supports accumulate).
      for (size_t r = rng.Uniform(4); r > 0; --r) {
        w.txns.push_back(w.txns.back());
      }
    }
  }
  std::set<Itemset> cands;
  for (int c = 0; c < 40; ++c) {
    const auto items = RandomSortedUnique(&rng, 4, universe);
    if (items.size() >= 2) cands.insert(Itemset(items.begin(), items.end()));
  }
  w.candidates = {cands.begin(), cands.end()};
  return w;
}

std::vector<std::span<const ItemId>> Views(const Workload& w) {
  std::vector<std::span<const ItemId>> views;
  views.reserve(w.txns.size());
  for (const auto& t : w.txns) views.emplace_back(t);
  return views;
}

void Load(const Workload& w, CandidateCounter* counter) {
  counter->Reserve(w.candidates.size());
  for (const Itemset& c : w.candidates) counter->Add(c);
}

// The tidlist engine's counts, serial when `pool` is null.
std::vector<uint32_t> CountWith(const Workload& w, ThreadPool* pool) {
  CandidateCounter counter;
  Load(w, &counter);
  CountAllTransactions(Views(w), pool, /*grain=*/8, &counter);
  std::vector<uint32_t> counts(counter.size());
  for (size_t i = 0; i < counts.size(); ++i) counts[i] = counter.count(i);
  return counts;
}

std::vector<uint32_t> CountReference(const Workload& w) {
  CandidateCounter counter;
  Load(w, &counter);
  return ReferenceCounts(Views(w), counter);
}

class BackendEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackendEquivalence, AllBackendsAgree) {
  for (const bool duplicate_heavy : {false, true}) {
    const Workload w = MakeWorkload(GetParam(), duplicate_heavy);
    const auto reference = CountReference(w);
    ASSERT_EQ(CountWith(w, nullptr), reference) << "seed " << GetParam();
    // The engine splits candidates across threads; counts must not depend
    // on the split.
    ThreadPool pool(4);
    ASSERT_EQ(CountWith(w, &pool), reference)
        << "with threads, seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalence,
                         ::testing::Range<uint64_t>(1, 21));

TEST(BackendEquivalence, EmptyAndTinyInputs) {
  // No candidates: counting is a no-op for the engine and the reference.
  CandidateCounter counter;
  std::vector<ItemId> txn = {1, 2, 3};
  std::vector<std::span<const ItemId>> views = {txn};
  CountAllTransactions(views, nullptr, 8, &counter);
  EXPECT_EQ(counter.size(), 0u);
  EXPECT_TRUE(ReferenceCounts(views, counter).empty());

  // No transactions: every count stays zero.
  Workload w;
  w.candidates = {{1, 2}, {2, 3, 4}};
  EXPECT_EQ(CountWith(w, nullptr), (std::vector<uint32_t>{0, 0}));
  EXPECT_EQ(CountReference(w), (std::vector<uint32_t>{0, 0}));
}

// The engine gives an item a bitmap when it occurs in at least max(1, n/128)
// transactions (counting_backend.cc) and intersects sorted tidlists
// otherwise; only candidates whose items are all dense take the bitmap
// path. Below 256 transactions every present item is dense, so the sparse
// branch (shortest-first ordering, the IntersectU32 chain, galloping
// IntersectCountU32) needs workloads of this size.
enum class Density { kDense, kMixed, kSparse };

struct SkewedWorkload {
  Workload w;
  std::vector<Density> density;  // per candidate
};

// `k` distinct items of `pool` (which must hold at least k).
std::vector<ItemId> Pick(Random* rng, std::vector<ItemId> pool, size_t k) {
  for (size_t i = 0; i < k; ++i) {
    std::swap(pool[i], pool[i + rng->Uniform(pool.size() - i)]);
  }
  pool.resize(k);
  return pool;
}

SkewedWorkload MakeSkewedWorkload(uint64_t seed) {
  Random rng(seed);
  constexpr size_t kUniverse = 300;
  const ZipfSampler zipf(kUniverse, 1.1);
  // Ranks map to item ids through a random permutation, so a mixed
  // candidate's smallest item is dense in some cases and sparse in others.
  std::vector<ItemId> id_of(kUniverse);
  for (size_t r = 0; r < kUniverse; ++r) id_of[r] = static_cast<ItemId>(r);
  id_of = Pick(&rng, id_of, kUniverse);

  SkewedWorkload out;
  Workload& w = out.w;
  const size_t n = 2000 + rng.Uniform(1000);
  std::vector<uint32_t> occurrences(kUniverse, 0);
  for (size_t t = 0; t < n; ++t) {
    std::set<ItemId> items;
    for (size_t k = 3 + rng.Uniform(10); k > 0; --k) {
      items.insert(id_of[zipf.Sample(rng)]);
    }
    for (ItemId id : items) occurrences[id]++;
    w.txns.emplace_back(items.begin(), items.end());
  }
  const size_t dense_threshold = std::max<size_t>(1, n / 128);
  const auto is_dense = [&](ItemId id) {
    return occurrences[id] >= dense_threshold;
  };
  std::vector<ItemId> dense;
  std::vector<ItemId> sparse;
  for (ItemId id = 0; id < kUniverse; ++id) {
    if (occurrences[id] > 0) (is_dense(id) ? dense : sparse).push_back(id);
  }

  // Every (density, length) class gets random draws from the pools, and
  // items co-occurring in a random transaction where it has enough of them,
  // so that supports are not all zero.
  std::set<Itemset> cands;
  const auto add = [&cands](std::vector<ItemId> items) {
    std::sort(items.begin(), items.end());
    cands.insert(Itemset(items.begin(), items.end()));
  };
  const auto mixed = [&](const std::vector<ItemId>& d,
                         const std::vector<ItemId>& s, size_t len) {
    const size_t n_sparse = 1 + rng.Uniform(std::min(s.size(), len - 1));
    std::vector<ItemId> items = Pick(&rng, s, n_sparse);
    for (ItemId id : Pick(&rng, d, len - n_sparse)) items.push_back(id);
    add(std::move(items));
  };
  for (size_t len = 2; len <= 4; ++len) {
    for (int i = 0; i < 20; ++i) {
      if (dense.size() >= len) add(Pick(&rng, dense, len));
      if (sparse.size() >= len) add(Pick(&rng, sparse, len));
      if (!sparse.empty() && dense.size() >= len - 1) {
        mixed(dense, sparse, len);
      }
      std::vector<ItemId> td;
      std::vector<ItemId> ts;
      for (ItemId id : w.txns[rng.Uniform(n)]) {
        (is_dense(id) ? td : ts).push_back(id);
      }
      if (td.size() >= len) add(Pick(&rng, td, len));
      if (ts.size() >= len) add(Pick(&rng, ts, len));
      if (!ts.empty() && td.size() >= len - 1) mixed(td, ts, len);
    }
  }
  w.candidates = {cands.begin(), cands.end()};
  for (const Itemset& c : w.candidates) {
    const auto n_dense =
        static_cast<size_t>(std::count_if(c.begin(), c.end(), is_dense));
    out.density.push_back(n_dense == c.size() ? Density::kDense
                          : n_dense == 0      ? Density::kSparse
                                              : Density::kMixed);
  }
  return out;
}

TEST(BackendEquivalence, ZipfSkewedDenseMixedAndSparseCandidates) {
  for (const uint64_t seed : {101, 202, 303}) {
    const SkewedWorkload skewed = MakeSkewedWorkload(seed);
    const Workload& w = skewed.w;
    ASSERT_GE(w.txns.size(), 2000u);
    const auto reference = CountReference(w);

    // By construction every density class occurs at every length 2-4, and
    // each class has candidates with nonzero support.
    std::set<std::pair<Density, size_t>> classes;
    std::set<Density> supported;
    for (size_t i = 0; i < w.candidates.size(); ++i) {
      classes.emplace(skewed.density[i], w.candidates[i].size());
      if (reference[i] > 0) supported.insert(skewed.density[i]);
    }
    for (const Density d : {Density::kDense, Density::kMixed,
                            Density::kSparse}) {
      for (size_t len = 2; len <= 4; ++len) {
        EXPECT_TRUE(classes.contains({d, len}))
            << "seed " << seed << " density " << static_cast<int>(d)
            << " length " << len;
      }
      EXPECT_TRUE(supported.contains(d))
          << "seed " << seed << " density " << static_cast<int>(d);
    }

    ASSERT_EQ(CountWith(w, nullptr), reference) << "seed " << seed;
    ThreadPool pool(4);
    ASSERT_EQ(CountWith(w, &pool), reference)
        << "with threads, seed " << seed;
  }
}

TEST(CountAuditTest, FlagsACountTheReferenceDisagreesWith) {
  const Workload w = MakeWorkload(5, /*duplicate_heavy=*/false);
  CandidateCounter counter;
  Load(w, &counter);
  const auto views = Views(w);
  CountAllTransactions(views, nullptr, 8, &counter);
  EXPECT_TRUE(AuditCandidateCounts(views, counter).ok());
  counter.AddCount(counter.size() - 1, 1);
  const AuditReport report = AuditCandidateCounts(views, counter);
  ASSERT_EQ(report.violations().size(), 1u);
  EXPECT_NE(report.violations()[0].find("reference"), std::string::npos)
      << report.ToString();
}

}  // namespace
}  // namespace flowcube
