#include "mining/apriori.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "mining/counting_backend.h"

namespace flowcube {
namespace {

// Slot-table sizing, mirroring Cuboid's open addressing (flowcube.cc): the
// index is built once and probed for every in-transaction item pair, so it
// trades memory for short probe chains — load factor capped at 1/2 rather
// than Cuboid's mutating-table 7/10.
constexpr size_t kMinSlotCapacity = 16;
constexpr size_t kMaxLoadPercent = 50;

uint64_t PairKey(ItemId a, ItemId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

// Probe start of a pair key: a splitmix-style multiply, folded.
size_t ProbeStart(uint64_t key, uint64_t slot_mask) {
  uint64_t h = key * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  return static_cast<size_t>(h & slot_mask);
}

void EnsureLength(std::vector<uint64_t>* v, size_t len) {
  if (v->size() <= len) v->resize(len + 1, 0);
}

}  // namespace

void CandidateCounter::Clear() {
  indexed_ = false;
  candidates_.clear();
  counts_.clear();
  slots_.clear();
  next_.clear();
  slot_mask_ = 0;
  cand_begin_.clear();
  cand_items_.clear();
  relevant_.clear();
  first_.clear();
}

void CandidateCounter::Reserve(size_t expected_candidates) {
  FC_DCHECK(!indexed_);
  candidates_.reserve(expected_candidates);
  counts_.reserve(expected_candidates);
}

size_t CandidateCounter::Add(Itemset candidate) {
  FC_DCHECK(!indexed_);
  FC_DCHECK(candidate.size() >= 2);
  FC_DCHECK(std::is_sorted(candidate.begin(), candidate.end()));
  const size_t idx = candidates_.size();
  candidates_.push_back(std::move(candidate));
  counts_.push_back(0);
  return idx;
}

void CandidateCounter::BuildPairIndex() {
  FC_CHECK(!indexed_);
  indexed_ = true;
  if (candidates_.empty()) return;

  ItemId max_item = 0;
  size_t total_items = 0;
  for (const Itemset& cand : candidates_) {
    max_item = std::max(max_item, cand.back());
    total_items += cand.size();
  }
  relevant_.assign(static_cast<size_t>(max_item) + 1, 0);
  first_.assign(static_cast<size_t>(max_item) + 1, 0);

  size_t capacity = kMinSlotCapacity;
  while (capacity * kMaxLoadPercent < candidates_.size() * 100) capacity <<= 1;
  slot_mask_ = capacity - 1;
  slots_.assign(capacity, Slot{});
  next_.assign(candidates_.size(), kNoCandidate);
  cand_begin_.clear();
  cand_begin_.reserve(candidates_.size() + 1);
  cand_begin_.push_back(0);
  cand_items_.clear();
  cand_items_.reserve(total_items);

  for (size_t i = 0; i < candidates_.size(); ++i) {
    const Itemset& cand = candidates_[i];
    for (ItemId id : cand) {
      relevant_[id] = 1;
      cand_items_.push_back(id);
    }
    cand_begin_.push_back(static_cast<uint32_t>(cand_items_.size()));
    first_[cand[0]] = 1;
    const uint64_t key = PairKey(cand[0], cand[1]);
    size_t slot = ProbeStart(key, slot_mask_);
    while (slots_[slot].key != key && slots_[slot].head != kNoCandidate) {
      slot = (slot + 1) & slot_mask_;
    }
    slots_[slot].key = key;
    next_[i] = slots_[slot].head;
    slots_[slot].head = static_cast<uint32_t>(i);
  }
}

void CandidateCounter::CountTransaction(std::span<const ItemId> raw_txn) {
  FC_DCHECK(indexed_);
  if (candidates_.empty() || raw_txn.size() < 2) return;
  // Drop items no candidate contains: transactions carry every abstraction
  // level while a pass's candidates touch few of them.
  filtered_.clear();
  for (ItemId id : raw_txn) {
    if (id < relevant_.size() && relevant_[id] != 0) filtered_.push_back(id);
  }
  const ItemId* txn = filtered_.data();
  const size_t m = filtered_.size();
  for (size_t i = 0; i + 1 < m; ++i) {
    if (!first_[txn[i]]) continue;
    for (size_t j = i + 1; j < m; ++j) {
      const uint64_t key = PairKey(txn[i], txn[j]);
      size_t slot = ProbeStart(key, slot_mask_);
      while (slots_[slot].key != key && slots_[slot].head != kNoCandidate) {
        slot = (slot + 1) & slot_mask_;
      }
      // An absent key stops on an empty slot, whose chain is empty — no
      // separate hit test needed.
      for (uint32_t idx = slots_[slot].head; idx != kNoCandidate;
           idx = next_[idx]) {
        // Verify the remaining items (cand[2..]) against txn beyond j;
        // both sides are sorted and cand's first two items are its
        // smallest. Candidate items stream from the flat arena.
        const size_t ce = cand_begin_[idx + 1];
        size_t ci = cand_begin_[idx] + 2;
        size_t ti = j + 1;
        while (ci < ce && ti < m) {
          if (txn[ti] < cand_items_[ci]) {
            ++ti;
          } else if (txn[ti] == cand_items_[ci]) {
            ++ti;
            ++ci;
          } else {
            break;
          }
        }
        if (ci == ce) counts_[idx]++;
      }
    }
  }
}

std::vector<Itemset> AprioriJoin(const std::vector<Itemset>& frequent) {
  std::vector<Itemset> out;
  if (frequent.empty()) return out;
  [[maybe_unused]] const size_t k1 = frequent.front().size();
  // Group by shared (k-2)-prefix; frequent is sorted lexicographically so
  // groups are contiguous.
  size_t group_start = 0;
  for (size_t i = 1; i <= frequent.size(); ++i) {
    const bool same_group =
        i < frequent.size() &&
        std::equal(frequent[i].begin(), frequent[i].end() - 1,
                   frequent[group_start].begin(),
                   frequent[group_start].end() - 1);
    if (same_group) continue;
    for (size_t a = group_start; a < i; ++a) {
      for (size_t b = a + 1; b < i; ++b) {
        Itemset cand = frequent[a];
        cand.push_back(frequent[b].back());
        FC_DCHECK(cand.size() == k1 + 1);
        out.push_back(std::move(cand));
      }
    }
    group_start = i;
  }
  return out;
}

bool AllSubsetsFrequent(
    const Itemset& candidate,
    const std::unordered_set<Itemset, ItemsetHash>& frequent_set) {
  Itemset sub;
  sub.reserve(candidate.size() - 1);
  for (size_t skip = 0; skip < candidate.size(); ++skip) {
    sub.clear();
    for (size_t i = 0; i < candidate.size(); ++i) {
      if (i != skip) sub.push_back(candidate[i]);
    }
    if (!frequent_set.contains(sub)) return false;
  }
  return true;
}

std::vector<ItemCount> CountFrequentItems(
    std::span<const std::span<const ItemId>> txns, uint32_t min_support,
    size_t* distinct) {
  thread_local std::vector<uint32_t> item_counts;
  std::vector<ItemId> items_seen;
  for (const std::span<const ItemId> txn : txns) {
    for (ItemId id : txn) {
      if (id >= item_counts.size()) {
        item_counts.resize(std::max<size_t>(id + 1, 2 * item_counts.size()),
                           0);
      }
      if (item_counts[id]++ == 0) items_seen.push_back(id);
    }
  }
  std::vector<ItemCount> frequent;
  for (ItemId id : items_seen) {
    if (item_counts[id] >= min_support) {
      frequent.push_back(ItemCount{id, item_counts[id]});
    }
    item_counts[id] = 0;
  }
  std::ranges::sort(frequent, {}, &ItemCount::item);
  if (distinct != nullptr) *distinct = items_seen.size();
  return frequent;
}

uint64_t MiningStats::TotalCandidates() const {
  uint64_t total = 0;
  for (uint64_t c : candidates_per_length) total += c;
  return total;
}

uint64_t MiningStats::TotalFrequent() const {
  uint64_t total = 0;
  for (uint64_t c : frequent_per_length) total += c;
  return total;
}

void MiningStats::Merge(const MiningStats& other) {
  if (candidates_per_length.size() < other.candidates_per_length.size()) {
    candidates_per_length.resize(other.candidates_per_length.size(), 0);
  }
  if (frequent_per_length.size() < other.frequent_per_length.size()) {
    frequent_per_length.resize(other.frequent_per_length.size(), 0);
  }
  for (size_t i = 0; i < other.candidates_per_length.size(); ++i) {
    candidates_per_length[i] += other.candidates_per_length[i];
  }
  for (size_t i = 0; i < other.frequent_per_length.size(); ++i) {
    frequent_per_length[i] += other.frequent_per_length[i];
  }
  passes += other.passes;
}

Apriori::Apriori(AprioriOptions options) : options_(std::move(options)) {
  FC_CHECK_MSG(options_.min_support >= 1, "min_support must be >= 1");
}

std::vector<FrequentItemset> Apriori::Mine(
    const std::vector<std::span<const ItemId>>& txns) {
  std::vector<FrequentItemset> result;
  // stats_ accumulates across Mine calls (Cubing runs one Apriori over many
  // cells), so metric deltas are tracked in locals and flushed at the end.
  uint64_t passes_this_call = 0;
  uint64_t candidates_this_call = 0;
  uint64_t pruned_this_call = 0;

  // Pass 1: single items.
  size_t distinct = 0;
  const std::vector<ItemCount> singles =
      CountFrequentItems(txns, options_.min_support, &distinct);
  stats_.passes++;
  passes_this_call++;
  EnsureLength(&stats_.candidates_per_length, 1);
  EnsureLength(&stats_.frequent_per_length, 1);
  stats_.candidates_per_length[1] += distinct;
  candidates_this_call += distinct;

  // Frequent items in id order, which is also the sorted order the join
  // needs.
  std::vector<Itemset> frequent_k;
  for (const ItemCount& single : singles) {
    result.push_back(FrequentItemset{{single.item}, single.count});
    frequent_k.push_back({single.item});
  }
  stats_.frequent_per_length[1] += frequent_k.size();

  // Passes k = 2, 3, ... until no candidates survive.
  while (!frequent_k.empty()) {
    const size_t k = frequent_k.front().size() + 1;
    std::unordered_set<Itemset, ItemsetHash> frequent_set(
        frequent_k.begin(), frequent_k.end());
    CandidateCounter counter;
    std::vector<Itemset> joined = AprioriJoin(frequent_k);
    counter.Reserve(joined.size());
    for (Itemset& cand : joined) {
      if (k > 2 && !AllSubsetsFrequent(cand, frequent_set)) {
        pruned_this_call++;
        continue;
      }
      if (options_.candidate_filter && !options_.candidate_filter(cand)) {
        pruned_this_call++;
        continue;
      }
      counter.Add(std::move(cand));
    }
    if (counter.size() == 0) break;

    CountAllTransactions(txns, /*pool=*/nullptr, /*grain=*/256, &counter);
    stats_.passes++;
    passes_this_call++;
    EnsureLength(&stats_.candidates_per_length, k);
    EnsureLength(&stats_.frequent_per_length, k);
    stats_.candidates_per_length[k] += counter.size();
    candidates_this_call += counter.size();

    std::vector<Itemset> next;
    for (size_t i = 0; i < counter.size(); ++i) {
      if (counter.count(i) >= options_.min_support) {
        result.push_back(FrequentItemset{counter.candidate(i),
                                         counter.count(i)});
        next.push_back(counter.candidate(i));
      }
    }
    std::sort(next.begin(), next.end());
    stats_.frequent_per_length[k] += next.size();
    frequent_k = std::move(next);
  }

  {
    MetricRegistry& reg = MetricRegistry::Global();
    static Counter& m_runs = reg.counter("mining.apriori.runs");
    static Counter& m_passes = reg.counter("mining.apriori.passes");
    static Counter& m_scanned =
        reg.counter("mining.apriori.transactions_scanned");
    static Counter& m_candidates =
        reg.counter("mining.apriori.candidates_counted");
    static Counter& m_pruned = reg.counter("mining.apriori.pruned");
    static Counter& m_frequent = reg.counter("mining.apriori.frequent");
    m_runs.Increment();
    m_passes.Add(passes_this_call);
    m_scanned.Add(passes_this_call * txns.size());
    m_candidates.Add(candidates_this_call);
    m_pruned.Add(pruned_this_call);
    m_frequent.Add(result.size());
  }
  return result;
}

}  // namespace flowcube
