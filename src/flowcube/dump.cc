#include "flowcube/dump.h"

#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace flowcube {
namespace {

// Integers are written with std::to_chars, which prints exactly what the
// printf conversions of the documented format print (%u, %d, %zu,
// PRId64) without a format parser per field.
template <typename Int>
void AppendInt(std::string* out, Int value) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, r.ptr);
}

// `label` then the integer, e.g. " loc=" 7.
template <typename Int>
void AppendField(std::string* out, std::string_view label, Int value) {
  out->append(label);
  AppendInt(out, value);
}

// %.17g round-trips doubles exactly, so equal dumps mean bitwise-equal
// probabilities.
void AppendDouble(std::string* out, double value) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", value);
  out->append(buf, static_cast<size_t>(n));
}

void AppendItemset(std::string* out, const Itemset& items) {
  out->push_back('[');
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendInt(out, items[i]);
  }
  out->push_back(']');
}

void AppendCondition(std::string* out,
                     const std::vector<StageCondition>& condition) {
  out->push_back('{');
  for (size_t i = 0; i < condition.size(); ++i) {
    out->append(i == 0 ? "(" : " (");
    AppendInt(out, condition[i].node);
    out->push_back(',');
    AppendInt(out, condition[i].duration);
    out->push_back(')');
  }
  out->push_back('}');
}

void AppendGraph(std::string* out, const FlowGraph& g) {
  AppendField(out, "  graph nodes=", g.num_nodes());
  AppendField(out, " total_paths=", g.total_paths());
  out->push_back('\n');
  for (FlowNodeId n = 0; n < g.num_nodes(); ++n) {
    AppendField(out, "  node ", n);
    AppendField(out, " loc=", g.location(n));
    AppendField(out, " parent=", g.parent(n));
    AppendField(out, " depth=", g.depth(n));
    AppendField(out, " paths=", g.path_count(n));
    AppendField(out, " term=", g.terminate_count(n));
    out->append(" durs=");
    for (const auto& [d, c] : g.duration_counts(n)) {
      AppendField(out, "(", d);
      AppendField(out, ":", c);
      out->push_back(')');
    }
    out->append(" children=");
    for (FlowNodeId c : g.children(n)) {
      AppendInt(out, c);
      out->push_back(' ');
    }
    out->push_back('\n');
  }
  for (const FlowException& e : g.exceptions()) {
    AppendField(out, "  exc kind=", static_cast<int>(e.kind));
    AppendField(out, " node=", e.node);
    if (e.kind == FlowException::Kind::kTransition) {
      AppendField(out, " target=", e.transition_target);
    } else {
      AppendField(out, " dur=", e.duration_value);
    }
    out->append(" p_glob=");
    AppendDouble(out, e.global_probability);
    out->append(" p_cond=");
    AppendDouble(out, e.conditional_probability);
    AppendField(out, " support=", e.condition_support);
    out->append(" cond=");
    AppendCondition(out, e.condition);
    out->push_back('\n');
  }
}

void AppendCell(std::string* out, const FlowCell& cell) {
  out->append("cell dims=");
  AppendItemset(out, cell.dims);
  AppendField(out, " support=", cell.support);
  AppendField(out, " redundant=", cell.redundant ? 1 : 0);
  out->push_back('\n');
  AppendGraph(out, cell.graph);
}

}  // namespace

std::string DumpFlowGraph(const FlowGraph& graph) {
  std::string out;
  AppendGraph(&out, graph);
  return out;
}

std::string DumpFlowCell(const FlowCell& cell) {
  std::string out;
  AppendCell(&out, cell);
  return out;
}

std::string DumpFlowCube(const FlowCube& cube) {
  std::string out;
  AppendField(&out, "flowcube cuboids=", cube.num_cuboids());
  AppendField(&out, " cells=", cube.TotalCells());
  out.push_back('\n');
  const FlowCubePlan& plan = cube.plan();
  for (size_t i = 0; i < plan.item_levels.size(); ++i) {
    for (size_t p = 0; p < plan.path_levels.size(); ++p) {
      const Cuboid& cuboid = cube.cuboid(i, p);
      out.append("cuboid il=[");
      const ItemLevel& il = cuboid.item_level();
      for (size_t d = 0; d < il.levels.size(); ++d) {
        if (d > 0) out.push_back(',');
        AppendInt(&out, il.levels[d]);
      }
      AppendField(&out, "] pl=", cuboid.path_level());
      AppendField(&out, " cells=", cuboid.size());
      out.push_back('\n');
      // Canonical cell order: the dump is independent of insertion order.
      for (const FlowCell* cell : cuboid.SortedCells()) {
        AppendCell(&out, *cell);
      }
    }
  }
  return out;
}

}  // namespace flowcube
