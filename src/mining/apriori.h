#ifndef FLOWCUBE_MINING_APRIORI_H_
#define FLOWCUBE_MINING_APRIORI_H_

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_set>
#include <vector>

#include "mining/transaction.h"

namespace flowcube {

// The candidates of one counting pass and their supports. Candidates are
// sorted itemsets of length >= 2; mixed lengths may share one pass, which
// is what lets algorithm Shared pre-count length-(k+1) high-level patterns
// while counting length-k candidates. The miners fill it with Add() and
// hand it to CountAllTransactions (mining/counting_backend.h), the tidlist
// engine, which writes each support through AddCount().
//
// The counter also carries the reference engine (DESIGN.md §13): a
// horizontal scan that indexes candidates by their two smallest items in a
// flat open-addressing table and, per transaction, enumerates every
// in-transaction item pair and verifies the matching chain's candidates by
// subset check. It is scalar and serial, and no production pass builds its
// index; tests, bench_mining_kernels and the FC_AUDIT recount compare the
// engine against it. Usage: Add() every candidate, BuildPairIndex() once,
// then CountTransaction() per transaction.
class CandidateCounter {
 public:
  // Removes all candidates and counts.
  void Clear();

  // Pre-sizes candidate storage for `expected_candidates` Adds, mirroring
  // Cuboid::Reserve.
  void Reserve(size_t expected_candidates);

  // Adds a candidate (sorted, unique, length >= 2); returns its index.
  size_t Add(Itemset candidate);

  size_t size() const { return candidates_.size(); }

  // Adds into one candidate's count.
  void AddCount(size_t idx, uint32_t delta) { counts_[idx] += delta; }

  const Itemset& candidate(size_t idx) const { return candidates_[idx]; }
  uint32_t count(size_t idx) const { return counts_[idx]; }

  // Reference engine: builds the pair index over every candidate added so
  // far. Call once, after the last Add().
  void BuildPairIndex();

  // Reference engine: registers one transaction's (sorted, duplicate-free)
  // items against every candidate.
  void CountTransaction(std::span<const ItemId> txn);

 private:
  static constexpr uint32_t kNoCandidate = static_cast<uint32_t>(-1);

  // One open-addressing slot: the (first << 32 | second) pair key and the
  // head of the chain of candidate indices sharing it (chained through
  // next_). 16 bytes so a probe touches one cache line for both the key
  // compare and the chain head; pad stays zero.
  struct Slot {
    uint64_t key = 0;
    uint32_t head = kNoCandidate;
    uint32_t pad = 0;
  };

  bool indexed_ = false;
  std::vector<Itemset> candidates_;
  std::vector<uint32_t> counts_;
  // Open-addressing table (power-of-two capacity, linear probing, load
  // factor <= 1/2).
  std::vector<Slot> slots_;
  std::vector<uint32_t> next_;
  uint64_t slot_mask_ = 0;
  // Flat candidate arena: items of candidate i live at
  // cand_items_[cand_begin_[i] .. cand_begin_[i+1]) — sequential memory
  // for the subset-verification walk.
  std::vector<uint32_t> cand_begin_;
  std::vector<ItemId> cand_items_;
  // Masks by item id: items appearing in any candidate, and items that are
  // some candidate's smallest.
  std::vector<uint8_t> relevant_;
  std::vector<uint8_t> first_;
  // The transaction's relevant items, reused across CountTransaction calls.
  std::vector<ItemId> filtered_;
};

// The classic Apriori candidate join: pairs of frequent (k-1)-itemsets
// sharing their first k-2 items produce a k-candidate. `frequent` must be
// sorted lexicographically. Returns sorted candidates.
std::vector<Itemset> AprioriJoin(const std::vector<Itemset>& frequent);

// True when every (k-1)-subset of `candidate` is present in `frequent_set`.
bool AllSubsetsFrequent(
    const Itemset& candidate,
    const std::unordered_set<Itemset, ItemsetHash>& frequent_set);

// One item of a pass-1 count and its support.
struct ItemCount {
  ItemId item = kInvalidItem;
  uint32_t count = 0;
};

// Pass 1 of Apriori: counts every item of `txns` (in any order within a
// transaction) and returns the items whose count reaches `min_support`,
// with their counts, ascending by id; `*distinct`, when given, receives
// the number of distinct items seen. Counts go into a dense table indexed
// by item id that lives per thread and is all zero between calls, so a
// per-cell run (Cubing, MineCellSegments) touches only its own items and
// allocates nothing for the table once it has grown to the catalog's size.
// Only the frequent items are sorted.
std::vector<ItemCount> CountFrequentItems(
    std::span<const std::span<const ItemId>> txns, uint32_t min_support,
    size_t* distinct = nullptr);

// Options of the plain Apriori miner.
struct AprioriOptions {
  // Absolute minimum support count.
  uint32_t min_support = 1;
  // Optional extra candidate filter; return false to drop a candidate
  // before counting. Applied after the standard subset-frequency prune.
  std::function<bool(const Itemset&)> candidate_filter;
};

// Statistics every miner reports; Figure 11 plots candidates_per_length.
struct MiningStats {
  // candidates counted / found frequent, indexed by itemset length
  // (index 0 unused).
  std::vector<uint64_t> candidates_per_length;
  std::vector<uint64_t> frequent_per_length;
  // Number of passes over the transaction data.
  int passes = 0;

  uint64_t TotalCandidates() const;
  uint64_t TotalFrequent() const;
  // Accumulates `other` into this (used when Cubing sums per-cell runs).
  void Merge(const MiningStats& other);
};

// Plain Apriori over a list of transactions (each a sorted item span). This
// is the per-cell miner that algorithm Cubing invokes; it has no knowledge
// of the item/path abstraction lattices beyond what the encoded items
// carry, so it cannot cross-prune between them — exactly the handicap the
// paper ascribes to the cubing approach.
class Apriori {
 public:
  explicit Apriori(AprioriOptions options);

  // Mines all frequent itemsets of length >= 1. Stats accumulate across
  // calls (merge per-cell runs); call stats() once at the end.
  std::vector<FrequentItemset> Mine(
      const std::vector<std::span<const ItemId>>& txns);

  const MiningStats& stats() const { return stats_; }

 private:
  AprioriOptions options_;
  MiningStats stats_;
};

}  // namespace flowcube

#endif  // FLOWCUBE_MINING_APRIORI_H_
