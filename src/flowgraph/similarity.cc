#include "flowgraph/similarity.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "common/logging.h"

namespace flowcube {
namespace {

constexpr double kLn2 = 0.6931471805599453;

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

// The maximal value a divergence can take, used for unmatched branches.
double MaxDivergence(const SimilarityOptions& options) {
  switch (options.kind) {
    case DivergenceKind::kJensenShannon:
      return 1.0;
    case DivergenceKind::kKullbackLeibler: {
      // Disjoint binary supports under the configured smoothing.
      const double pv[] = {1.0, 0.0};
      const double qv[] = {0.0, 1.0};
      return KlBatch(pv, qv, 2, options.kl_smoothing);
    }
  }
  return 1.0;
}

// Adds one union outcome's Jensen-Shannon terms to `d`: with m = (p + q)/2,
// p/2 · log(p/m) and then q/2 · log(q/m), each only when its side has mass.
// Two cases need no log:
//   * p == q: both terms are p/2 · log(1.0) = +0.0, and `d` is never -0.0
//     (it starts at +0.0, and a sum is -0.0 only when both addends are),
//     so the outcome leaves `d` unchanged;
//   * one side empty: m = p/2 exactly, so p/m is exactly 2.0 and the term
//     is p/2 · log(2.0), with `log2` evaluated once per walk.
inline void AddJsTerms(double pp, double qq, double log2, double* d) {
  if (pp == qq) return;
  if (qq == 0.0) {
    *d += 0.5 * pp * log2;
    return;
  }
  if (pp == 0.0) {
    *d += 0.5 * qq * log2;
    return;
  }
  const double m = 0.5 * (pp + qq);
  *d += 0.5 * pp * std::log(pp / m);
  *d += 0.5 * qq * std::log(qq / m);
}

double ReachProbability(const FlowGraph& g, FlowNodeId n) {
  if (g.total_paths() == 0) return 0.0;
  return static_cast<double>(g.path_count(n)) / g.total_paths();
}

// P(next = child) at a node of `paths` paths: the exact arithmetic of
// FlowGraph::TransitionProbability, minus its per-call checks.
double TransitionShare(uint32_t count, uint32_t paths) {
  return paths == 0 ? 0.0 : static_cast<double>(count) / paths;
}

// Which side of tau the distance falls on, as far as the walk knows.
enum class Verdict { kUndecided, kWithin, kBeyond };

// One distance walk over the union of two trees. It matches nodes by
// location from the roots and accumulates each matched pair's transition
// and duration divergence, weighted by the pair's mean reach probability;
// a branch present on one side only adds the maximal divergence at its
// root's weight. The distance is weighted divergence / total weight.
//
// At each matched pair the two child lists are sorted by location on a
// scratch stack and merge-joined. The merge yields the transition union in
// ascending key order (the terminate outcome first), which Jensen-Shannon
// folds term by term and KL lays out as aligned columns, and it yields the
// child matching. Children are then visited in `a`'s id order, followed by
// `b`'s unmatched ones in `b`'s id order. Summation order and per-element
// arithmetic are therefore fixed, and so is every bit of the result.
class DistanceWalk {
 public:
  DistanceWalk(const FlowGraph& a, const FlowGraph& b,
               const SimilarityOptions& options)
      : a_(a),
        b_(b),
        options_(options),
        max_divergence_(MaxDivergence(options)),
        log2_(std::log(2.0)) {}

  // Lets Jensen-Shannon walks stop once the verdict against `tau` is
  // settled. A node's divergence lies in [0, 1] and the total weight
  // cannot exceed w_max = ½(Σ reach_a + Σ reach_b) over all nodes, so the
  // final distance is at least wd / w_max and at most (wd + R)/(tw + R),
  // R = w_max − tw. Each bound must clear tau by a relative 1e-9 before
  // it decides; otherwise the walk runs to the end.
  void SetThreshold(double tau, double w_max) {
    bounded_ = true;
    w_max_ = w_max;
    beyond_ = tau * w_max * (1.0 + 1e-9);
    within_ = tau * (1.0 - 1e-9);
  }

  // Walks from the roots; stops early only when a threshold is set.
  Verdict Run() {
    stack_.reserve(64);
    Visit(FlowGraph::kRoot, FlowGraph::kRoot);
    return verdict_;
  }

  double Distance() const {
    if (total_weight_ <= 0.0) return 0.0;
    return weighted_divergence_ / total_weight_;
  }

 private:
  // Checks the bounds after a node's contribution; true stops the walk.
  bool Decided() {
    if (!bounded_) return false;
    if (weighted_divergence_ > beyond_) {
      verdict_ = Verdict::kBeyond;
      return true;
    }
    const double rest = w_max_ - total_weight_;
    if (weighted_divergence_ + rest <= within_ * (total_weight_ + rest)) {
      verdict_ = Verdict::kWithin;
      return true;
    }
    return false;
  }

  // Pushes `g`'s children of a node as (location << 32 | position) keys,
  // insertion-sorted by location. Locations are unique among siblings.
  void PushSortedChildren(const FlowGraph& g,
                          std::span<const FlowNodeId> kids) {
    const size_t begin = stack_.size();
    for (size_t k = 0; k < kids.size(); ++k) {
      const uint64_t key =
          (static_cast<uint64_t>(g.location(kids[k])) << 32) | k;
      size_t at = stack_.size();
      stack_.push_back(key);
      while (at > begin && stack_[at - 1] > key) {
        stack_[at] = stack_[at - 1];
        --at;
      }
      stack_[at] = key;
    }
  }

  // Emits the transition outcomes of matched nodes `na`/`nb` in ascending
  // key order, and records the child matching in the frame at `frame`:
  // slot k < |ka| holds `b`'s match of `a`'s k-th child (kTerminate if
  // none), slot |ka| + k is 1 when `b`'s k-th child is matched. The two
  // sorted key runs follow the matching slots.
  template <typename Emit>
  void MergeTransitions(FlowNodeId na, FlowNodeId nb,
                        std::span<const FlowNodeId> ka,
                        std::span<const FlowNodeId> kb, size_t frame,
                        Emit&& emit) {
    const uint32_t paths_a = a_.path_count(na);
    const uint32_t paths_b = b_.path_count(nb);
    emit(TransitionShare(a_.terminate_count(na), paths_a),
         TransitionShare(b_.terminate_count(nb), paths_b));
    const size_t sorted_a = frame + ka.size() + kb.size();
    const size_t sorted_b = sorted_a + ka.size();
    size_t i = 0;
    size_t j = 0;
    while (i < ka.size() || j < kb.size()) {
      const uint64_t key_a = i < ka.size() ? stack_[sorted_a + i] : 0;
      const uint64_t key_b = j < kb.size() ? stack_[sorted_b + j] : 0;
      const uint32_t pos_a = static_cast<uint32_t>(key_a);
      const uint32_t pos_b = static_cast<uint32_t>(key_b);
      if (j == kb.size() || (i < ka.size() && (key_a >> 32) < (key_b >> 32))) {
        emit(TransitionShare(a_.path_count(ka[pos_a]), paths_a), 0.0);
        ++i;
      } else if (i == ka.size() || (key_b >> 32) < (key_a >> 32)) {
        emit(0.0, TransitionShare(b_.path_count(kb[pos_b]), paths_b));
        ++j;
      } else {
        emit(TransitionShare(a_.path_count(ka[pos_a]), paths_a),
             TransitionShare(b_.path_count(kb[pos_b]), paths_b));
        stack_[frame + pos_a] = kb[pos_b];
        stack_[frame + ka.size() + pos_b] = 1;
        ++i;
        ++j;
      }
    }
  }

  // Emits the stay-duration outcomes of matched nodes in ascending
  // duration order (both spans are sorted by duration already).
  template <typename Emit>
  void MergeDurations(FlowNodeId na, FlowNodeId nb, Emit&& emit) {
    const std::span<const DurationCount> da = a_.duration_counts(na);
    const std::span<const DurationCount> db = b_.duration_counts(nb);
    const double total_a = a_.path_count(na);
    const double total_b = b_.path_count(nb);
    size_t i = 0;
    size_t j = 0;
    while (i < da.size() || j < db.size()) {
      if (j == db.size() ||
          (i < da.size() && da[i].duration < db[j].duration)) {
        emit(da[i].count / total_a, 0.0);
        ++i;
      } else if (i == da.size() || db[j].duration < da[i].duration) {
        emit(0.0, db[j].count / total_b);
        ++j;
      } else {
        emit(da[i].count / total_a, db[j].count / total_b);
        ++i;
        ++j;
      }
    }
  }

  // The divergence of the distributions `merge` emits: Jensen-Shannon
  // folded over the merge and normalized by ln 2, or the symmetrized KL
  // over aligned columns (its smoothing denominator needs the union size).
  template <typename Merge>
  double Divergence(Merge&& merge) {
    switch (options_.kind) {
      case DivergenceKind::kJensenShannon: {
        double d = 0.0;
        merge([&](double pp, double qq) { AddJsTerms(pp, qq, log2_, &d); });
        return d / kLn2;
      }
      case DivergenceKind::kKullbackLeibler: {
        pv_.clear();
        qv_.clear();
        merge([&](double pp, double qq) {
          pv_.push_back(pp);
          qv_.push_back(qq);
        });
        const size_t n = pv_.size();
        const double s = options_.kl_smoothing;
        return 0.5 * (KlBatch(pv_.data(), qv_.data(), n, s) +
                      KlBatch(qv_.data(), pv_.data(), n, s));
      }
    }
    return 0.0;
  }

  // Accumulates the pair `na`/`nb` (kTerminate when one side has no
  // counterpart) and recurses on matched pairs. True stops the walk.
  bool Visit(FlowNodeId na, FlowNodeId nb) {
    const bool in_a = na != FlowGraph::kTerminate;
    const bool in_b = nb != FlowGraph::kTerminate;
    FC_CHECK(in_a || in_b);
    const double wa = in_a ? ReachProbability(a_, na) : 0.0;
    const double wb = in_b ? ReachProbability(b_, nb) : 0.0;
    const double w = 0.5 * (wa + wb);
    if (w <= 0.0) return false;

    if (!in_a || !in_b) {
      // Branch present in only one graph: maximal disagreement, weighted by
      // the reach probability on the side that has it; no recursion needed
      // (the whole subtree is unmatched and its weight is bounded by this
      // node's).
      weighted_divergence_ += w * max_divergence_;
      total_weight_ += w;
      return Decided();
    }

    const std::span<const FlowNodeId> ka = a_.children(na);
    const std::span<const FlowNodeId> kb = b_.children(nb);
    const size_t frame = stack_.size();
    stack_.resize(frame + ka.size(), FlowGraph::kTerminate);
    stack_.resize(frame + ka.size() + kb.size(), 0);
    PushSortedChildren(a_, ka);
    PushSortedChildren(b_, kb);
    const double dt = Divergence([&](auto&& emit) {
      MergeTransitions(na, nb, ka, kb, frame, emit);
    });
    if (na == FlowGraph::kRoot) {
      // The root has no stay duration; only its transition mix counts.
      weighted_divergence_ += w * dt;
    } else {
      const double dd = Divergence(
          [&](auto&& emit) { MergeDurations(na, nb, emit); });
      weighted_divergence_ += w * 0.5 * (dt + dd);
    }
    total_weight_ += w;
    if (Decided()) return true;

    stack_.resize(frame + ka.size() + kb.size());
    for (size_t k = 0; k < ka.size(); ++k) {
      if (Visit(ka[k], static_cast<FlowNodeId>(stack_[frame + k]))) {
        return true;
      }
    }
    for (size_t k = 0; k < kb.size(); ++k) {
      if (stack_[frame + ka.size() + k] == 0 &&
          Visit(FlowGraph::kTerminate, kb[k])) {
        return true;
      }
    }
    stack_.resize(frame);
    return false;
  }

  const FlowGraph& a_;
  const FlowGraph& b_;
  const SimilarityOptions& options_;
  const double max_divergence_;
  const double log2_;

  bool bounded_ = false;
  double w_max_ = 0.0;
  double beyond_ = 0.0;
  double within_ = 0.0;
  Verdict verdict_ = Verdict::kUndecided;

  double weighted_divergence_ = 0.0;
  double total_weight_ = 0.0;
  // One frame per matched pair on the current root path: the child
  // matching, then (until the children are visited) the sorted keys.
  std::vector<uint64_t> stack_;
  // KL's aligned union columns.
  std::vector<double> pv_;
  std::vector<double> qv_;
};

// Σ over all nodes of the node's reach probability.
double ReachSum(const FlowGraph& g) {
  uint64_t paths = 0;
  for (FlowNodeId n = 0; n < g.num_nodes(); ++n) paths += g.path_count(n);
  return static_cast<double>(paths) / g.total_paths();
}

// A total order over everything the walk reads from a graph: node by node
// its path and terminate counts, location, children and duration counts,
// then the node count. The walk visits `a`'s children before `b`'s
// unmatched ones and adds p's Jensen-Shannon term before q's, so swapping
// the arguments changes the summation order. Both entry points therefore
// always walk the lesser graph first; graphs that compare equal drive
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

// FlowGraphDistance with the arguments in walk order.
double DistanceInOrder(const FlowGraph& a, const FlowGraph& b,
                       const SimilarityOptions& options) {
  if (a.total_paths() == 0 && b.total_paths() == 0) return 0.0;
  if (a.total_paths() == 0 || b.total_paths() == 0) {
    return MaxDivergence(options);
  }
  DistanceWalk walk(a, b, options);
  walk.Run();
  return walk.Distance();
}

// FlowGraphDistanceExceeds with the arguments in walk order.
bool ExceedsInOrder(const FlowGraph& a, const FlowGraph& b, double tau,
                    const SimilarityOptions& options) {
  if (options.kind != DivergenceKind::kJensenShannon ||
      a.total_paths() == 0 || b.total_paths() == 0) {
    return DistanceInOrder(a, b, options) > tau;
  }
  DistanceWalk walk(a, b, options);
  walk.SetThreshold(tau, 0.5 * (ReachSum(a) + ReachSum(b)));
  const Verdict verdict = walk.Run();
  if (verdict != Verdict::kUndecided) return verdict == Verdict::kBeyond;
  return walk.Distance() > tau;
}

}  // namespace

double FlowGraphDistance(const FlowGraph& a, const FlowGraph& b,
                         const SimilarityOptions& options) {
  return ContentLess(b, a) ? DistanceInOrder(b, a, options)
                           : DistanceInOrder(a, b, options);
}

bool FlowGraphDistanceExceeds(const FlowGraph& a, const FlowGraph& b,
                              double tau, const SimilarityOptions& options) {
  return ContentLess(b, a) ? ExceedsInOrder(b, a, tau, options)
                           : ExceedsInOrder(a, b, tau, options);
}

}  // namespace flowcube
