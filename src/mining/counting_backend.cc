#include "mining/counting_backend.h"

#include <algorithm>
#include <string>

#include "common/audit.h"
#include "common/simd.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace flowcube {
namespace {

// Vertical (tidlist) counting: one sorted transaction-id list per item that
// appears in some candidate, built in a single pass over the database; a
// candidate's support is the size of the intersection of its items' lists.
// Every candidate is evaluated over exactly the transactions containing its
// rarest items instead of every transaction pair-enumerating its whole
// tail, as the horizontal reference does.
void CountAllTidlist(const std::vector<std::span<const ItemId>>& txns,
                     ThreadPool* pool, size_t grain,
                     CandidateCounter* counter) {
  const size_t n_cand = counter->size();
  ItemId max_item = 0;
  for (size_t i = 0; i < n_cand; ++i) {
    max_item = std::max(max_item, counter->candidate(i).back());
  }

  // Dense slots for the items candidates actually touch.
  constexpr uint32_t kNoSlot = static_cast<uint32_t>(-1);
  std::vector<uint32_t> item_slot(static_cast<size_t>(max_item) + 1, kNoSlot);
  uint32_t n_slots = 0;
  for (size_t i = 0; i < n_cand; ++i) {
    for (ItemId id : counter->candidate(i)) {
      if (item_slot[id] == kNoSlot) item_slot[id] = n_slots++;
    }
  }

  // Tidlists are strictly increasing: transactions are visited in id order
  // and the back-guard drops repeated items within one transaction.
  std::vector<std::vector<uint32_t>> lists(n_slots);
  for (size_t ti = 0; ti < txns.size(); ++ti) {
    const uint32_t tid = static_cast<uint32_t>(ti);
    for (ItemId id : txns[ti]) {
      if (id >= item_slot.size() || item_slot[id] == kNoSlot) continue;
      std::vector<uint32_t>& list = lists[item_slot[id]];
      if (list.empty() || list.back() != tid) list.push_back(tid);
    }
  }

  // Dense items additionally get a packed bitmap over transaction ids:
  // frequent items cover >= minsup transactions, so their lists are long and
  // one streaming AND+popcount over n_txns/64 words beats the sorted merge.
  // A candidate uses the bitmap path only when every item of it is dense;
  // mixed/sparse candidates keep the list intersection.
  const size_t n_words = (txns.size() + 63) / 64;
  constexpr uint32_t kNoBitmap = static_cast<uint32_t>(-1);
  // Below this density the list merge touches fewer words than the bitmap
  // scan; 1/128 ~= the break-even of |a|+|b| merges vs n/64-word AND.
  const size_t dense_threshold = std::max<size_t>(1, txns.size() / 128);
  std::vector<uint32_t> bitmap_of(n_slots, kNoBitmap);
  uint32_t n_bitmaps = 0;
  for (uint32_t s = 0; s < n_slots; ++s) {
    if (lists[s].size() >= dense_threshold) bitmap_of[s] = n_bitmaps++;
  }
  std::vector<uint64_t> bitmaps(static_cast<size_t>(n_bitmaps) * n_words, 0);
  for (uint32_t s = 0; s < n_slots; ++s) {
    if (bitmap_of[s] == kNoBitmap) continue;
    uint64_t* words = bitmaps.data() + static_cast<size_t>(bitmap_of[s]) * n_words;
    for (uint32_t tid : lists[s]) {
      words[tid >> 6] |= uint64_t{1} << (tid & 63);
    }
  }
  auto bitmap_words = [&](ItemId id) -> const uint64_t* {
    const uint32_t b = bitmap_of[item_slot[id]];
    if (b == kNoBitmap) return nullptr;
    return bitmaps.data() + static_cast<size_t>(b) * n_words;
  };

  const simd::Level level = simd::ActiveLevel();
  // Candidates write disjoint counts, so the evaluation parallelizes over
  // candidate index with no shard merge.
  const size_t num_shards =
      (pool == nullptr) ? 1 : pool->num_threads();
  struct Scratch {
    std::vector<const std::vector<uint32_t>*> ordered;
    std::vector<uint32_t> a;
    std::vector<uint32_t> b;
    std::vector<uint64_t> words;
  };
  std::vector<Scratch> scratch(num_shards);

  auto eval = [&](size_t shard, size_t begin, size_t end) {
    Scratch& s = scratch[shard];
    for (size_t i = begin; i < end; ++i) {
      const Itemset& cand = counter->candidate(i);
      const uint64_t* first_words = bitmap_words(cand[0]);
      if (first_words != nullptr) {
        // All-dense candidate: AND+popcount over the packed bitmaps,
        // materializing intermediates only for 3+-way chains.
        bool all_dense = true;
        for (size_t k = 1; k < cand.size() && all_dense; ++k) {
          all_dense = bitmap_words(cand[k]) != nullptr;
        }
        if (all_dense) {
          if (cand.size() == 2) {
            const size_t c = simd::AndPopcountU64(
                first_words, bitmap_words(cand[1]), n_words, level);
            counter->AddCount(i, static_cast<uint32_t>(c));
            continue;
          }
          s.words.resize(n_words);
          simd::AndIntoU64(first_words, bitmap_words(cand[1]), n_words,
                           s.words.data(), level);
          for (size_t k = 2; k + 1 < cand.size(); ++k) {
            simd::AndIntoU64(s.words.data(), bitmap_words(cand[k]), n_words,
                             s.words.data(), level);
          }
          const size_t c = simd::AndPopcountU64(
              s.words.data(), bitmap_words(cand.back()), n_words, level);
          counter->AddCount(i, static_cast<uint32_t>(c));
          continue;
        }
      }
      s.ordered.clear();
      for (ItemId id : cand) s.ordered.push_back(&lists[item_slot[id]]);
      // Intersect shortest-first so intermediates shrink fastest.
      std::sort(s.ordered.begin(), s.ordered.end(),
                [](const std::vector<uint32_t>* x,
                   const std::vector<uint32_t>* y) {
                  return x->size() < y->size();
                });
      if (s.ordered.front()->empty()) continue;
      if (cand.size() == 2) {
        const size_t c = simd::IntersectCountU32(
            s.ordered[0]->data(), s.ordered[0]->size(), s.ordered[1]->data(),
            s.ordered[1]->size(), level);
        counter->AddCount(i, static_cast<uint32_t>(c));
        continue;
      }
      // Progressively materialize all but the last intersection, then
      // count-only against the longest list.
      std::vector<uint32_t>* cur = &s.a;
      std::vector<uint32_t>* nxt = &s.b;
      cur->resize(s.ordered[0]->size());
      size_t len = simd::IntersectU32(s.ordered[0]->data(),
                                      s.ordered[0]->size(),
                                      s.ordered[1]->data(),
                                      s.ordered[1]->size(), cur->data());
      for (size_t k = 2; k + 1 < s.ordered.size() && len > 0; ++k) {
        nxt->resize(len);
        len = simd::IntersectU32(cur->data(), len, s.ordered[k]->data(),
                                 s.ordered[k]->size(), nxt->data());
        std::swap(cur, nxt);
      }
      if (len == 0) continue;
      const size_t c = simd::IntersectCountU32(cur->data(), len,
                                               s.ordered.back()->data(),
                                               s.ordered.back()->size(), level);
      counter->AddCount(i, static_cast<uint32_t>(c));
    }
  };

  if (pool == nullptr || num_shards == 1) {
    eval(0, 0, n_cand);
  } else {
    pool->ParallelForChunks(n_cand, std::max<size_t>(1, grain / 8), eval);
  }
}

}  // namespace

void CountAllTransactions(const std::vector<std::span<const ItemId>>& txns,
                          ThreadPool* pool, size_t grain,
                          CandidateCounter* counter) {
  if (counter->size() == 0) return;
  CountAllTidlist(txns, pool, grain, counter);
  FC_AUDIT(AuditCandidateCounts(txns, *counter));
}

std::vector<uint32_t> ReferenceCounts(
    const std::vector<std::span<const ItemId>>& txns,
    const CandidateCounter& counter) {
  CandidateCounter reference;
  reference.Reserve(counter.size());
  for (size_t i = 0; i < counter.size(); ++i) {
    reference.Add(counter.candidate(i));
  }
  reference.BuildPairIndex();
  for (const auto& txn : txns) reference.CountTransaction(txn);
  std::vector<uint32_t> counts(reference.size());
  for (size_t i = 0; i < counts.size(); ++i) counts[i] = reference.count(i);
  return counts;
}

AuditReport AuditCandidateCounts(
    const std::vector<std::span<const ItemId>>& txns,
    const CandidateCounter& counter) {
  AuditReport report("CandidateCounter");
  const std::vector<uint32_t> want = ReferenceCounts(txns, counter);
  for (size_t i = 0; i < want.size(); ++i) {
    if (counter.count(i) == want[i]) continue;
    std::string items;
    for (ItemId id : counter.candidate(i)) {
      items += StrFormat(items.empty() ? "%u" : " %u", id);
    }
    report.Fail(StrFormat("candidate %zu {%s}: count %u, reference %u", i,
                          items.c_str(), counter.count(i), want[i]));
  }
  return report;
}

}  // namespace flowcube
