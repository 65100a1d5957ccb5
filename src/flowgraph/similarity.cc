#include "flowgraph/similarity.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <tuple>
#include <vector>

#include "common/logging.h"

namespace flowcube {
namespace {

constexpr double kLn2 = 0.6931471805599453;

// One outcome of a categorical distribution keyed by int64 (locations cast
// up, kTerminate mapped to a sentinel, durations as-is). Distributions are
// flat vectors sorted by key ascending — the same iteration order the
// std::map-based implementation had, so every floating-point sum is
// performed in the identical order and distances stay bit-identical.
struct Outcome {
  int64_t key = 0;
  double p = 0.0;
};

using Categorical = std::span<const Outcome>;

// Merges p and q into aligned probability columns over their key union in
// ascending key order, 0.0 on the side missing a key. One merge pass feeds
// every divergence accumulation (the map-callback form walked the union
// once per direction); the columns then run through tight batch loops.
// Returns the union size.
size_t MergeUnion(Categorical p, Categorical q, std::vector<double>* pv,
                  std::vector<double>* qv) {
  pv->clear();
  qv->clear();
  pv->reserve(p.size() + q.size());
  qv->reserve(p.size() + q.size());
  size_t i = 0;
  size_t j = 0;
  while (i < p.size() || j < q.size()) {
    if (j == q.size() || (i < p.size() && p[i].key < q[j].key)) {
      pv->push_back(p[i].p);
      qv->push_back(0.0);
      ++i;
    } else if (i == p.size() || q[j].key < p[i].key) {
      pv->push_back(0.0);
      qv->push_back(q[j].p);
      ++j;
    } else {
      pv->push_back(p[i].p);
      qv->push_back(q[j].p);
      ++i;
      ++j;
    }
  }
  return pv->size();
}

// KL(p || q) over aligned union columns, with additive smoothing across the
// union support. Accumulates left to right — the union's ascending key
// order — so results match the merge-callback implementation bit for bit.
double KlBatch(const double* pv, const double* qv, size_t n,
               double smoothing) {
  const double denom = 1.0 + smoothing * static_cast<double>(n);
  double d = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double pp = (pv[i] + smoothing) / denom;
    const double qq = (qv[i] + smoothing) / denom;
    d += pp * std::log(pp / qq);
  }
  return d;
}

// Jensen-Shannon divergence normalized to [0, 1], over aligned columns.
double JsBatch(const double* pv, const double* qv, size_t n) {
  double d = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double pp = pv[i];
    const double qq = qv[i];
    const double m = 0.5 * (pp + qq);
    if (pp > 0.0) d += 0.5 * pp * std::log(pp / m);
    if (qq > 0.0) d += 0.5 * qq * std::log(qq / m);
  }
  return d / kLn2;
}

// Reusable scratch buffers so the recursion allocates only on the deepest
// first descent: the two flat distributions plus their aligned union
// columns.
struct Scratch {
  std::vector<Outcome> lhs;
  std::vector<Outcome> rhs;
  std::vector<double> pv;
  std::vector<double> qv;
};

double Divergence(Categorical p, Categorical q,
                  const SimilarityOptions& options, Scratch* scratch) {
  const size_t n = MergeUnion(p, q, &scratch->pv, &scratch->qv);
  const double* pv = scratch->pv.data();
  const double* qv = scratch->qv.data();
  switch (options.kind) {
    case DivergenceKind::kJensenShannon:
      return JsBatch(pv, qv, n);
    case DivergenceKind::kKullbackLeibler:
      // Both directions run over the same merged columns.
      return 0.5 * (KlBatch(pv, qv, n, options.kl_smoothing) +
                    KlBatch(qv, pv, n, options.kl_smoothing));
  }
  return 0.0;
}

// The maximal value a divergence can take, used for unmatched branches.
double MaxDivergence(const SimilarityOptions& options, Scratch* scratch) {
  switch (options.kind) {
    case DivergenceKind::kJensenShannon:
      return 1.0;
    case DivergenceKind::kKullbackLeibler: {
      // Disjoint binary supports under the configured smoothing.
      const Outcome zero[] = {{0, 1.0}};
      const Outcome one[] = {{1, 1.0}};
      const size_t n = MergeUnion(zero, one, &scratch->pv, &scratch->qv);
      return KlBatch(scratch->pv.data(), scratch->qv.data(), n,
                     options.kl_smoothing);
    }
  }
  return 1.0;
}

constexpr int64_t kTerminateKey = -1;

// Gathers a node's transition distribution straight from the columnar
// storage: the children span plus the path_count/terminate_count columns,
// one division per outcome (the exact arithmetic of
// FlowGraph::TransitionProbability, minus its per-call checks).
void FillTransitionCategorical(const FlowGraph& g, FlowNodeId n,
                               std::vector<Outcome>* out) {
  out->clear();
  const std::span<const FlowNodeId> kids = g.children(n);
  out->reserve(kids.size() + 1);
  const uint32_t paths = g.path_count(n);
  if (paths == 0) {
    out->push_back({kTerminateKey, 0.0});
    for (FlowNodeId c : kids) {
      out->push_back({static_cast<int64_t>(g.location(c)), 0.0});
    }
  } else {
    out->push_back(
        {kTerminateKey, static_cast<double>(g.terminate_count(n)) / paths});
    for (FlowNodeId c : kids) {
      out->push_back({static_cast<int64_t>(g.location(c)),
                      static_cast<double>(g.path_count(c)) / paths});
    }
  }
  // Children are in insertion order; the flat distribution must be sorted by
  // key (the terminate sentinel -1 stays first). Locations are unique among
  // siblings, so the sort is a permutation with no ties.
  std::sort(out->begin(), out->end(),
            [](const Outcome& a, const Outcome& b) { return a.key < b.key; });
}

void FillDurationCategorical(const FlowGraph& g, FlowNodeId n,
                             std::vector<Outcome>* out) {
  out->clear();
  const std::span<const DurationCount> counts = g.duration_counts(n);
  out->reserve(counts.size());
  const double total = g.path_count(n);
  // duration_counts are sorted by duration already — a straight linear copy.
  for (const DurationCount& dc : counts) {
    out->push_back({dc.duration, dc.count / total});
  }
}

struct Accumulator {
  double weighted_divergence = 0.0;
  double total_weight = 0.0;
};

double ReachProbability(const FlowGraph& g, FlowNodeId n) {
  if (g.total_paths() == 0) return 0.0;
  return static_cast<double>(g.path_count(n)) / g.total_paths();
}

// Recursively matches nodes of `a` and `b` by location and accumulates
// weighted divergences; `na`/`nb` are matched nodes (or kTerminate when one
// side has no counterpart). `max_divergence` is MaxDivergence(options),
// computed once per distance call.
void Accumulate(const FlowGraph& a, const FlowGraph& b, FlowNodeId na,
                FlowNodeId nb, const SimilarityOptions& options,
                double max_divergence, Scratch* scratch, Accumulator* acc) {
  const bool in_a = na != FlowGraph::kTerminate;
  const bool in_b = nb != FlowGraph::kTerminate;
  FC_CHECK(in_a || in_b);
  const double wa = in_a ? ReachProbability(a, na) : 0.0;
  const double wb = in_b ? ReachProbability(b, nb) : 0.0;
  const double w = 0.5 * (wa + wb);
  if (w <= 0.0) return;

  if (in_a && in_b) {
    FillTransitionCategorical(a, na, &scratch->lhs);
    FillTransitionCategorical(b, nb, &scratch->rhs);
    const double dt = Divergence(scratch->lhs, scratch->rhs, options, scratch);
    if (na == FlowGraph::kRoot) {
      // The root has no stay duration; only its transition mix counts.
      acc->weighted_divergence += w * dt;
    } else {
      FillDurationCategorical(a, na, &scratch->lhs);
      FillDurationCategorical(b, nb, &scratch->rhs);
      const double dd =
          Divergence(scratch->lhs, scratch->rhs, options, scratch);
      acc->weighted_divergence += w * 0.5 * (dt + dd);
    }
    acc->total_weight += w;
    // Recurse on the union of child locations.
    for (FlowNodeId ca : a.children(na)) {
      Accumulate(a, b, ca, b.FindChild(nb, a.location(ca)), options,
                 max_divergence, scratch, acc);
    }
    for (FlowNodeId cb : b.children(nb)) {
      if (a.FindChild(na, b.location(cb)) == FlowGraph::kTerminate) {
        Accumulate(a, b, FlowGraph::kTerminate, cb, options, max_divergence,
                   scratch, acc);
      }
    }
    return;
  }

  // Branch present in only one graph: maximal disagreement, weighted by the
  // reach probability on the side that has it; no recursion needed (the
  // whole subtree is unmatched and its weight is bounded by this node's).
  acc->weighted_divergence += w * max_divergence;
  acc->total_weight += w;
}

// A total order over everything Accumulate reads from a graph: node by
// node its path and terminate counts, location, children and duration
// counts, then the node count. Accumulate walks `a`'s children before
// `b`'s unmatched ones and JsBatch adds p's term before q's, so swapping
// the arguments changes the summation order. FlowGraphDistance therefore
// always evaluates the lesser graph first; graphs that compare equal drive
// identical arithmetic either way. The comparison stops at the first
// difference, which for a cell and its parent is usually the root's path
// count.
bool ContentLess(const FlowGraph& a, const FlowGraph& b) {
  const size_t n = std::min(a.num_nodes(), b.num_nodes());
  for (FlowNodeId v = 0; v < n; ++v) {
    if (a.path_count(v) != b.path_count(v)) {
      return a.path_count(v) < b.path_count(v);
    }
    if (a.terminate_count(v) != b.terminate_count(v)) {
      return a.terminate_count(v) < b.terminate_count(v);
    }
    if (a.location(v) != b.location(v)) return a.location(v) < b.location(v);
    const std::span<const FlowNodeId> ka = a.children(v);
    const std::span<const FlowNodeId> kb = b.children(v);
    if (!std::ranges::equal(ka, kb)) {
      return std::ranges::lexicographical_compare(ka, kb);
    }
    const std::span<const DurationCount> da = a.duration_counts(v);
    const std::span<const DurationCount> db = b.duration_counts(v);
    if (!std::ranges::equal(da, db)) {
      return std::ranges::lexicographical_compare(
          da, db, [](const DurationCount& x, const DurationCount& y) {
            return std::tie(x.duration, x.count) <
                   std::tie(y.duration, y.count);
          });
    }
  }
  return a.num_nodes() < b.num_nodes();
}

// FlowGraphDistance with the arguments in the order Accumulate walks them.
double DistanceInOrder(const FlowGraph& a, const FlowGraph& b,
                       const SimilarityOptions& options) {
  Scratch scratch;
  if (a.total_paths() == 0 && b.total_paths() == 0) return 0.0;
  if (a.total_paths() == 0 || b.total_paths() == 0) {
    return MaxDivergence(options, &scratch);
  }
  Accumulator acc;
  const double max_divergence = MaxDivergence(options, &scratch);
  Accumulate(a, b, FlowGraph::kRoot, FlowGraph::kRoot, options,
             max_divergence, &scratch, &acc);
  if (acc.total_weight <= 0.0) return 0.0;
  return acc.weighted_divergence / acc.total_weight;
}

}  // namespace

double FlowGraphDistance(const FlowGraph& a, const FlowGraph& b,
                         const SimilarityOptions& options) {
  return ContentLess(b, a) ? DistanceInOrder(b, a, options)
                           : DistanceInOrder(a, b, options);
}

}  // namespace flowcube
