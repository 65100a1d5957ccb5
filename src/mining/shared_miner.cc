#include "mining/shared_miner.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "mining/counting_backend.h"

namespace flowcube {
namespace {

uint64_t PairKey(ItemId a, ItemId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

void EnsureLength(std::vector<uint64_t>* v, size_t len) {
  if (v->size() <= len) v->resize(len + 1, 0);
}

// Open-addressing counter for pair keys, used by the pass-1 pre-count. Much
// cheaper than unordered_map in the hot loop; grows by rehashing when load
// exceeds 1/2. The table is allocated lazily on the first Add so that idle
// per-thread instances cost nothing.
class FlatPairCounts {
 public:
  void Add(uint64_t key, uint32_t delta = 1) {
    if (keys_.empty()) Rehash(1 << 16);
    size_t slot = Probe(key);
    if (keys_[slot] == kEmpty) {
      if (++used_ * 2 > keys_.size()) {
        Grow();
        slot = Probe(key);
        used_++;
      }
      keys_[slot] = key;
    }
    counts_[slot] += delta;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmpty) fn(keys_[i], counts_[i]);
    }
  }

 private:
  static constexpr uint64_t kEmpty = static_cast<uint64_t>(-1);

  size_t Probe(uint64_t key) const {
    uint64_t h = key * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
    size_t slot = static_cast<size_t>(h & mask_);
    while (keys_[slot] != kEmpty && keys_[slot] != key) {
      slot = (slot + 1) & mask_;
    }
    return slot;
  }

  void Rehash(size_t capacity) {
    keys_.assign(capacity, kEmpty);
    counts_.assign(capacity, 0);
    mask_ = capacity - 1;
    used_ = 0;
  }

  void Grow() {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<uint32_t> old_counts = std::move(counts_);
    Rehash(old_keys.size() * 2);
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmpty) continue;
      const size_t slot = Probe(old_keys[i]);
      keys_[slot] = old_keys[i];
      counts_[slot] = old_counts[i];
      used_++;
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<uint32_t> counts_;
  uint64_t mask_ = 0;
  size_t used_ = 0;
};

}  // namespace

SharedMiner::SharedMiner(const TransformedDatabase& db,
                         SharedMinerOptions options)
    : db_(db),
      options_(options),
      compat_(&db_, options.prune_unlinkable, options.prune_ancestors) {
  FC_CHECK_MSG(options_.min_support >= 1, "min_support must be >= 1");
}

bool SharedMiner::IsHighLevel(ItemId id) const {
  const ItemCatalog& cat = db_.catalog();
  if (cat.IsDimItem(id)) {
    return cat.DimLevelOf(id) <= options_.high_level_dim_level;
  }
  const auto& info = cat.StageOf(id);
  return db_.plan().path_levels[info.path_level].duration_level == 0;
}

ItemId SharedMiner::GeneralizeItem(ItemId id) const {
  const ItemCatalog& cat = db_.catalog();
  if (IsHighLevel(id)) return id;
  if (cat.IsDimItem(id)) {
    const size_t dim = cat.DimOf(id);
    const ConceptHierarchy& h = db_.schema().dimensions[dim];
    const NodeId anc =
        h.AncestorAtLevel(cat.NodeOf(id), options_.high_level_dim_level);
    if (h.Level(anc) == 0) return kInvalidItem;
    // The generalization is only usable when its level is actually mined
    // (emitted into transactions); otherwise its pre-counts would be void.
    const auto& levels = db_.plan().dim_levels[dim];
    if (!std::binary_search(levels.begin(), levels.end(), h.Level(anc))) {
      return kInvalidItem;
    }
    return cat.DimItem(dim, anc);
  }
  const auto& info = cat.StageOf(id);
  const int star_level = db_.plan().DurationStarLevel(info.path_level);
  if (star_level < 0) return kInvalidItem;
  return cat.FindStageItem(static_cast<uint8_t>(star_level), info.prefix,
                           kAnyDuration);
}

bool SharedMiner::GeneralizeItemset(const Itemset& in, Itemset* out) const {
  out->clear();
  for (ItemId id : in) {
    const ItemId g = GeneralizeItem(id);
    if (g == kInvalidItem) return false;
    out->push_back(g);
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return true;
}

bool SharedMiner::ItemsCompatible(ItemId a, ItemId b) const {
  return compat_.Compatible(a, b);
}

SharedMiningOutput SharedMiner::Run() {
  SharedMiningOutput out;
  hl_counts_.clear();
  const auto& txns = db_.transactions();
  const ItemCatalog& cat = db_.catalog();
  const uint32_t minsup = options_.min_support;
  const bool use_filters = options_.prune_unlinkable || options_.prune_ancestors;

  // Pass 1 splits its transaction scan across this pool, each shard
  // counting into private state merged at the pass boundary; the counting
  // passes split their candidates across it. Either way supports are exact
  // and thread-count independent.
  ThreadPool pool(ResolveNumThreads(options_.num_threads));
  const size_t num_shards = pool.num_threads();
  // Scheduling grain of the scans: transactions are cheap individually, so
  // hand them out a few hundred at a time.
  constexpr size_t kScanGrain = 256;

  // --- Pass 1: count every length-1 item; pre-count co-occurring
  // high-level pairs (the P1 of Algorithm 1, step 1).
  std::vector<uint32_t> item_counts(cat.num_items(), 0);
  FlatPairCounts hl_pairs;
  // Bitmap of high-level items, hoisted out of the scan loop.
  std::vector<uint8_t> is_hl(cat.num_items(), 0);
  if (options_.prune_precount) {
    for (ItemId id = 0; id < is_hl.size(); ++id) {
      is_hl[id] = IsHighLevel(id) ? 1 : 0;
    }
  }
  {
    std::vector<std::vector<uint32_t>> shard_items(num_shards);
    std::vector<FlatPairCounts> shard_pairs(num_shards);
    pool.ParallelForChunks(
        txns.size(), kScanGrain,
        [&](size_t shard, size_t begin, size_t end) {
          std::vector<uint32_t>& counts = shard_items[shard];
          if (counts.empty()) counts.assign(cat.num_items(), 0);
          FlatPairCounts& pairs = shard_pairs[shard];
          std::vector<ItemId> hl_buf;
          for (size_t ti = begin; ti < end; ++ti) {
            const Transaction& t = txns[ti];
            for (ItemId id : t.items) counts[id]++;
            if (!options_.prune_precount) continue;
            hl_buf.clear();
            for (ItemId id : t.items) {
              if (is_hl[id]) hl_buf.push_back(id);
            }
            // Compatibility is not checked per occurrence — counting a
            // superset of the needed pairs is cheaper than filtering in the
            // hot loop, and incompatible pairs are simply never looked up
            // later.
            for (size_t i = 0; i + 1 < hl_buf.size(); ++i) {
              for (size_t j = i + 1; j < hl_buf.size(); ++j) {
                pairs.Add(PairKey(hl_buf[i], hl_buf[j]));
              }
            }
          }
        });
    for (const std::vector<uint32_t>& counts : shard_items) {
      if (counts.empty()) continue;
      for (size_t i = 0; i < item_counts.size(); ++i) {
        item_counts[i] += counts[i];
      }
    }
    for (const FlatPairCounts& pairs : shard_pairs) {
      pairs.ForEach([&](uint64_t key, uint32_t c) { hl_pairs.Add(key, c); });
    }
  }
  out.stats.passes = 1;
  EnsureLength(&out.stats.candidates_per_length, 1);
  EnsureLength(&out.stats.frequent_per_length, 1);
  out.stats.candidates_per_length[1] += cat.num_items();

  std::vector<Itemset> frequent_k;
  for (ItemId id = 0; id < item_counts.size(); ++id) {
    if (item_counts[id] >= minsup) {
      out.frequent.push_back(FrequentItemset{{id}, item_counts[id]});
      frequent_k.push_back({id});
    }
  }
  std::sort(frequent_k.begin(), frequent_k.end());
  out.stats.frequent_per_length[1] += frequent_k.size();

  // Register pre-counted pairs whose items are both frequent; others cannot
  // generalize any viable candidate.
  if (options_.prune_precount) {
    EnsureLength(&out.stats.candidates_per_length, 2);
    hl_pairs.ForEach([&](uint64_t key, uint32_t count) {
      const ItemId a = static_cast<ItemId>(key >> 32);
      const ItemId b = static_cast<ItemId>(key & 0xffffffffu);
      if (item_counts[a] < minsup || item_counts[b] < minsup) return;
      if (use_filters && !ItemsCompatible(a, b)) return;
      hl_counts_.emplace(Itemset{a, b}, count);
      out.stats.candidates_per_length[2]++;
    });
  }

  // Span views of the transactions, built once for the counting backends.
  std::vector<std::span<const ItemId>> txn_views;
  txn_views.reserve(txns.size());
  for (const Transaction& t : txns) txn_views.push_back(t.items);

  // --- Passes k = 2, 3, ...
  // Metrics accumulate into locals and flush once at the end of Run, so
  // the hot candidate loops never touch shared state.
  uint64_t pruned_subset = 0;
  uint64_t pruned_compat = 0;
  uint64_t pruned_precount = 0;
  uint64_t precount_resolved = 0;
  while (!frequent_k.empty()) {
    const size_t k = frequent_k.front().size() + 1;
    std::unordered_set<Itemset, ItemsetHash> frequent_set(frequent_k.begin(),
                                                          frequent_k.end());
    CandidateCounter counter;
    std::vector<Itemset> next_frequent;
    std::vector<Itemset> hl_frequent_k;  // resolved high-level patterns
    Itemset generalized;

    EnsureLength(&out.stats.candidates_per_length, k + 1);
    EnsureLength(&out.stats.frequent_per_length, k + 1);

    std::vector<Itemset> joined = AprioriJoin(frequent_k);
    counter.Reserve(joined.size());
    for (Itemset& cand : joined) {
      if (k > 2 && !AllSubsetsFrequent(cand, frequent_set)) {
        pruned_subset++;
        continue;
      }
      // The join extends by one item, so the only item pair not already
      // vetted inside some frequent (k-1)-subset is the last one.
      if (use_filters && !ItemsCompatible(cand[k - 2], cand[k - 1])) {
        pruned_compat++;
        continue;
      }

      if (options_.prune_precount) {
        bool all_hl = true;
        for (ItemId id : cand) {
          if (!IsHighLevel(id)) {
            all_hl = false;
            break;
          }
        }
        if (all_hl) {
          // Already pre-counted one pass earlier: resolve, never recount.
          precount_resolved++;
          const auto it = hl_counts_.find(cand);
          const uint32_t count = it == hl_counts_.end() ? 0 : it->second;
          if (count >= minsup) {
            out.stats.frequent_per_length[k]++;
            out.frequent.push_back(FrequentItemset{cand, count});
            hl_frequent_k.push_back(cand);
            next_frequent.push_back(std::move(cand));
          }
          continue;
        }
        // Prune a low-level candidate whose high-level generalization is
        // known infrequent (precounting covers the whole high-level space,
        // so a missing entry means support below threshold).
        if (GeneralizeItemset(cand, &generalized) && generalized.size() >= 2) {
          const auto it = hl_counts_.find(generalized);
          const uint32_t gcount = it == hl_counts_.end() ? 0 : it->second;
          if (gcount < minsup) {
            pruned_precount++;
            continue;
          }
        }
      }
      counter.Add(std::move(cand));
    }
    const size_t num_regular = counter.size();
    out.stats.candidates_per_length[k] += num_regular;

    // Pre-count high-level patterns of length k+1 alongside the length-k
    // scan (Algorithm 1, step 6).
    std::vector<size_t> precount_idx;
    if (options_.prune_precount && !hl_frequent_k.empty()) {
      std::sort(hl_frequent_k.begin(), hl_frequent_k.end());
      std::unordered_set<Itemset, ItemsetHash> hl_set(hl_frequent_k.begin(),
                                                      hl_frequent_k.end());
      for (Itemset& cand : AprioriJoin(hl_frequent_k)) {
        if (!AllSubsetsFrequent(cand, hl_set)) continue;
        if (use_filters && !ItemsCompatible(cand[k - 1], cand[k])) continue;
        precount_idx.push_back(counter.Add(std::move(cand)));
      }
      out.stats.candidates_per_length[k + 1] += precount_idx.size();
    }

    if (counter.size() > 0) {
      CountAllTransactions(txn_views, &pool, kScanGrain, &counter);
      out.stats.passes++;
    }

    for (size_t i = 0; i < num_regular; ++i) {
      if (counter.count(i) >= minsup) {
        out.stats.frequent_per_length[k]++;
        out.frequent.push_back(
            FrequentItemset{counter.candidate(i), counter.count(i)});
        next_frequent.push_back(counter.candidate(i));
      }
    }
    for (size_t idx : precount_idx) {
      hl_counts_.emplace(counter.candidate(idx), counter.count(idx));
    }

    std::sort(next_frequent.begin(), next_frequent.end());
    frequent_k = std::move(next_frequent);
  }

  {
    MetricRegistry& reg = MetricRegistry::Global();
    static Counter& m_runs = reg.counter("mining.shared.runs");
    static Counter& m_passes = reg.counter("mining.shared.passes");
    static Counter& m_scanned =
        reg.counter("mining.shared.transactions_scanned");
    static Counter& m_candidates =
        reg.counter("mining.shared.candidates_counted");
    static Counter& m_frequent = reg.counter("mining.shared.frequent");
    static Counter& m_pruned_subset =
        reg.counter("mining.shared.pruned_subset");
    static Counter& m_pruned_compat =
        reg.counter("mining.shared.pruned_compat");
    static Counter& m_pruned_precount =
        reg.counter("mining.shared.pruned_precount");
    static Counter& m_precount_resolved =
        reg.counter("mining.shared.precount_resolved");
    m_runs.Increment();
    m_passes.Add(out.stats.passes);
    m_scanned.Add(out.stats.passes * txns.size());
    m_candidates.Add(out.stats.TotalCandidates());
    m_frequent.Add(out.frequent.size());
    m_pruned_subset.Add(pruned_subset);
    m_pruned_compat.Add(pruned_compat);
    m_pruned_precount.Add(pruned_precount);
    m_precount_resolved.Add(precount_resolved);
  }
  return out;
}

}  // namespace flowcube
