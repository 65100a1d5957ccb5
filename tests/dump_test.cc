// Pins the canonical cell text (flowcube/dump.h) at the extremes of every
// field type: DumpFlowCell must equal a printf rendering of the format the
// header documents, field by field.

#include <cinttypes>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "flowcube/dump.h"
#include "flowgraph/flowgraph.h"
#include "rfid/discretizer.h"

namespace flowcube {
namespace {

constexpr uint32_t kMaxU32 = std::numeric_limits<uint32_t>::max();
constexpr int64_t kMinI64 = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxI64 = std::numeric_limits<int64_t>::max();

void Printf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Printf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  ASSERT_GE(n, 0);
  ASSERT_LT(static_cast<size_t>(n), sizeof(buf));
  out->append(buf, static_cast<size_t>(n));
}

// The documented format, written with printf conversions.
std::string PrintfCell(const FlowCell& cell) {
  std::string out = "cell dims=[";
  for (size_t i = 0; i < cell.dims.size(); ++i) {
    Printf(&out, i == 0 ? "%" PRIu32 : ",%" PRIu32, cell.dims[i]);
  }
  Printf(&out, "] support=%" PRIu32 " redundant=%d\n", cell.support,
         cell.redundant ? 1 : 0);
  const FlowGraph& g = cell.graph;
  Printf(&out, "  graph nodes=%zu total_paths=%" PRIu32 "\n", g.num_nodes(),
         g.total_paths());
  for (FlowNodeId n = 0; n < g.num_nodes(); ++n) {
    Printf(&out,
           "  node %" PRIu32 " loc=%" PRIu32 " parent=%" PRIu32
           " depth=%d paths=%" PRIu32 " term=%" PRIu32 " durs=",
           n, g.location(n), g.parent(n), g.depth(n), g.path_count(n),
           g.terminate_count(n));
    for (const DurationCount& dc : g.duration_counts(n)) {
      Printf(&out, "(%" PRId64 ":%" PRIu32 ")", dc.duration, dc.count);
    }
    out += " children=";
    for (FlowNodeId c : g.children(n)) Printf(&out, "%" PRIu32 " ", c);
    out += "\n";
  }
  for (const FlowException& e : g.exceptions()) {
    Printf(&out, "  exc kind=%d node=%" PRIu32, static_cast<int>(e.kind),
           e.node);
    if (e.kind == FlowException::Kind::kTransition) {
      Printf(&out, " target=%" PRIu32, e.transition_target);
    } else {
      Printf(&out, " dur=%" PRId64, e.duration_value);
    }
    Printf(&out, " p_glob=%.17g p_cond=%.17g support=%" PRIu32 " cond={",
           e.global_probability, e.conditional_probability,
           e.condition_support);
    for (size_t i = 0; i < e.condition.size(); ++i) {
      Printf(&out, i == 0 ? "(%" PRIu32 ",%" PRId64 ")"
                          : " (%" PRIu32 ",%" PRId64 ")",
             e.condition[i].node, e.condition[i].duration);
    }
    out += "}\n";
  }
  return out;
}

// Root (location 4294967295) -> {node 1 at location 0, node 2 at
// 4294967294}, node 1 -> node 3, with u32-max counts that still add up.
FlowGraph ExtremeGraph() {
  FlowGraph::SealedColumns c;
  c.location = {kInvalidNode, 0, kMaxU32 - 1, 7};
  c.parent = {FlowGraph::kRoot, 0, 0, 1};
  c.depth = {0, 1, 1, 2};
  c.path_count = {kMaxU32, kMaxU32 - 1, 1, 1};
  c.terminate_count = {0, kMaxU32 - 2, 1, 1};
  c.child_begin = {0, 2, 3, 3, 3};
  c.child_arena = {1, 2, 3};
  c.duration_begin = {0, 0, 2, 3, 4};
  c.duration_arena = {
      {kMinI64, kMaxU32 - 2}, {kAnyDuration, 1}, {kMaxI64, 1}, {0, 1}};
  FlowGraph graph = FlowGraph::FromSealedColumns(std::move(c));

  FlowException transition;
  transition.kind = FlowException::Kind::kTransition;
  transition.node = 1;
  transition.transition_target = FlowGraph::kTerminate;
  transition.condition = {{0, kAnyDuration}, {1, kMaxI64}, {3, kMinI64}};
  transition.global_probability = 0.1;
  transition.conditional_probability = 1.0 / 3.0;
  transition.condition_support = kMaxU32;
  graph.AddException(std::move(transition));

  FlowException duration;
  duration.kind = FlowException::Kind::kDuration;
  duration.node = 3;
  duration.duration_value = kMinI64;
  duration.global_probability = std::numeric_limits<double>::denorm_min();
  duration.conditional_probability = 1.0;
  duration.condition_support = 0;
  graph.AddException(std::move(duration));
  return graph;
}

TEST(DumpFormatTest, CellAtExtremeValuesMatchesThePrintfFormat) {
  FlowCell cell;
  cell.dims = {0, kMaxU32};
  cell.support = kMaxU32;
  cell.redundant = true;
  cell.graph = ExtremeGraph();
  const std::string want = PrintfCell(cell);
  EXPECT_EQ(DumpFlowCell(cell), want);
  // Spot checks that the extremes reached the text.
  EXPECT_NE(want.find(" loc=4294967295 "), std::string::npos);
  EXPECT_NE(want.find("(-9223372036854775808:4294967293)(-1:1)"),
            std::string::npos);
  EXPECT_NE(want.find("(9223372036854775807:1)"), std::string::npos);
  EXPECT_NE(want.find(" dur=-9223372036854775808 "), std::string::npos);
  EXPECT_NE(want.find(" target=4294967295 "), std::string::npos);

  // The graph block alone is the cell dump after its first line.
  const std::string dump = DumpFlowCell(cell);
  EXPECT_EQ(DumpFlowGraph(cell.graph), dump.substr(dump.find('\n') + 1));

  // An empty key, a mutable graph and no exceptions.
  FlowCell bare;
  bare.graph.AddPath(Path{{Stage{5, kMaxI64}}});
  EXPECT_EQ(DumpFlowCell(bare), PrintfCell(bare));
}

}  // namespace
}  // namespace flowcube
