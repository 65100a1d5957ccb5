#include "flowgraph/exception_miner.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.h"
#include "common/metrics.h"

namespace flowcube {
namespace {

// True when path `i` satisfies every condition of `pattern`.
bool Matches(const std::vector<StageCondition>& pattern,
             const ResolvedPaths& paths, uint32_t i, const FlowGraph& g) {
  const uint32_t b = paths.begin[i];
  const size_t len = paths.begin[i + 1] - b;
  for (const StageCondition& c : pattern) {
    const int d = g.depth(c.node);
    FC_DCHECK(d >= 1);
    const size_t idx = static_cast<size_t>(d - 1);
    if (idx >= len || paths.nodes[b + idx] != c.node) return false;
    if (c.duration != kAnyDuration &&
        paths.durations[b + idx] != c.duration) {
      return false;
    }
  }
  return true;
}

bool Informative(const std::vector<StageCondition>& pattern) {
  for (const StageCondition& c : pattern) {
    if (c.duration != kAnyDuration) return true;
  }
  return false;
}

}  // namespace

ExceptionMiner::ExceptionMiner(ExceptionMinerOptions options)
    : options_(options) {
  FC_CHECK_MSG(options_.epsilon > 0.0 && options_.epsilon <= 1.0,
               "epsilon must be in (0, 1]");
  FC_CHECK_MSG(options_.min_support >= 1, "min_support must be >= 1");
}

std::vector<FlowException> ExceptionMiner::Mine(
    const FlowGraph& g, const ResolvedPaths& paths,
    const std::vector<std::vector<StageCondition>>& patterns) const {
  std::vector<FlowException> out;
  // The node (or termination) path i moves to after depth `dd`.
  const auto next_node = [&paths](uint32_t i, size_t dd) {
    const uint32_t at = paths.begin[i] + static_cast<uint32_t>(dd);
    return at < paths.begin[i + 1] ? paths.nodes[at] : FlowGraph::kTerminate;
  };

  // Mine runs once per cell from parallel loops; tallies stay in locals
  // until one flush at the end.
  uint64_t dropped_uninformative = 0;
  uint64_t dropped_support = 0;
  for (const std::vector<StageCondition>& pattern : patterns) {
    if (pattern.empty() || !Informative(pattern)) {
      dropped_uninformative++;
      continue;
    }
    FC_DCHECK(std::is_sorted(pattern.begin(), pattern.end(),
                             [&g](const StageCondition& a,
                                  const StageCondition& b) {
                               return g.depth(a.node) < g.depth(b.node);
                             }));
    const FlowNodeId deepest = pattern.back().node;
    const size_t dd = static_cast<size_t>(g.depth(deepest));

    std::vector<uint32_t> matching;
    for (uint32_t i = 0; i < paths.size(); ++i) {
      if (Matches(pattern, paths, i, g)) matching.push_back(i);
    }
    if (matching.size() < options_.min_support) {
      dropped_support++;
      continue;
    }
    const double n_match = static_cast<double>(matching.size());

    // --- Conditional transition distribution at the deepest node.
    std::map<FlowNodeId, uint32_t> trans_counts;
    for (uint32_t i : matching) trans_counts[next_node(i, dd)]++;
    // Compare over every possible target (children + termination), so that
    // conditional probability 0 against a large global probability is also
    // recorded.
    const auto deepest_children = g.children(deepest);
    std::vector<FlowNodeId> targets(deepest_children.begin(),
                                    deepest_children.end());
    targets.push_back(FlowGraph::kTerminate);
    for (FlowNodeId target : targets) {
      const auto it = trans_counts.find(target);
      const double p_cond =
          it == trans_counts.end() ? 0.0 : it->second / n_match;
      const double p_glob = g.TransitionProbability(deepest, target);
      if (std::fabs(p_cond - p_glob) >= options_.epsilon) {
        FlowException e;
        e.kind = FlowException::Kind::kTransition;
        e.condition = pattern;
        e.node = deepest;
        e.transition_target = target;
        e.global_probability = p_glob;
        e.conditional_probability = p_cond;
        e.condition_support = static_cast<uint32_t>(matching.size());
        out.push_back(std::move(e));
      }
    }

    // --- Conditional duration distribution at each child of the deepest
    // node ("durations at a location given previous durations").
    for (FlowNodeId child : g.children(deepest)) {
      std::map<Duration, uint32_t> dur_counts;
      uint32_t n_child = 0;
      for (uint32_t i : matching) {
        if (next_node(i, dd) == child) {
          dur_counts[paths.durations[paths.begin[i] + dd]]++;
          n_child++;
        }
      }
      if (n_child < options_.min_support) continue;
      // Union of conditional and global duration values.
      std::map<Duration, uint32_t> all_values;
      for (const auto& [d, c] : g.duration_counts(child)) all_values[d] = c;
      for (const auto& [d, c] : dur_counts) all_values[d] += 0;
      for (const auto& [d, unused] : all_values) {
        const auto it = dur_counts.find(d);
        const double p_cond =
            it == dur_counts.end() ? 0.0 : static_cast<double>(it->second) / n_child;
        const double p_glob = g.DurationProbability(child, d);
        if (std::fabs(p_cond - p_glob) >= options_.epsilon) {
          FlowException e;
          e.kind = FlowException::Kind::kDuration;
          e.condition = pattern;
          e.node = child;
          e.duration_value = d;
          e.global_probability = p_glob;
          e.conditional_probability = p_cond;
          e.condition_support = n_child;
          out.push_back(std::move(e));
        }
      }
    }
  }

  {
    MetricRegistry& reg = MetricRegistry::Global();
    static Counter& m_calls = reg.counter("flowgraph.exceptions.mine_calls");
    static Counter& m_patterns =
        reg.counter("flowgraph.exceptions.patterns_considered");
    static Counter& m_uninformative =
        reg.counter("flowgraph.exceptions.patterns_dropped_uninformative");
    static Counter& m_support =
        reg.counter("flowgraph.exceptions.patterns_dropped_support");
    static Counter& m_kept = reg.counter("flowgraph.exceptions.kept");
    m_calls.Increment();
    m_patterns.Add(patterns.size());
    m_uninformative.Add(dropped_uninformative);
    m_support.Add(dropped_support);
    m_kept.Add(out.size());
  }
  return out;
}

}  // namespace flowcube
