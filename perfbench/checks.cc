#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "flowcube/dump.h"
#include "flowcube/query.h"

namespace perfbench {

using flowcube::FlowCell;
using flowcube::FlowCube;
using flowcube::FlowGraph;
using flowcube::FlowNodeId;
using flowcube::NodeId;
using flowcube::PathRecord;
using flowcube::QueryRequest;
using flowcube::QueryResponse;
using flowcube::RequestType;

namespace {

constexpr size_t kMaxMessages = 8;

std::string Join(const std::vector<std::string>& values) {
  std::string out = "(";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += values[i];
  }
  return out + ")";
}

// The integer after the first `key` in `text`, or -1.
int64_t NumberAfter(const std::string& text, const std::string& key) {
  const size_t at = text.find(key);
  if (at == std::string::npos) return -1;
  const char* begin = text.c_str() + at + key.size();
  char* stop = nullptr;
  const long long v = std::strtoll(begin, &stop, 10);
  return stop == begin ? -1 : v;
}

}  // namespace

void Errors::Add(const std::string& message) {
  ++count_;
  if (messages_.size() < kMaxMessages) messages_.push_back(message);
}

BruteForceSupports::BruteForceSupports(const flowcube::PathSchema& schema,
                                       const flowcube::FlowCubePlan& plan,
                                       std::span<const PathRecord> records)
    : schema_(schema), plan_(plan), levels_(plan.item_levels.size()),
      num_records_(records.size()) {
  const size_t dims = schema.num_dimensions();
  CellNodes key(dims);
  for (size_t il = 0; il < plan.item_levels.size(); ++il) {
    const std::vector<int>& lv = plan.item_levels[il].levels;
    for (const PathRecord& rec : records) {
      for (size_t d = 0; d < dims; ++d) {
        key[d] = schema.dimensions[d].AncestorAtLevel(rec.dims[d], lv[d]);
      }
      ++levels_[il][key];
    }
  }
}

bool BruteForceSupports::Resolve(const std::vector<std::string>& values,
                                 CellNodes* nodes, size_t* il) const {
  if (values.size() != schema_.num_dimensions()) return false;
  flowcube::ItemLevel level;
  nodes->assign(values.size(), 0);
  for (size_t d = 0; d < values.size(); ++d) {
    auto node = schema_.dimensions[d].Find(values[d]);
    if (!node.ok()) return false;
    (*nodes)[d] = node.value();
    level.levels.push_back(schema_.dimensions[d].Level(node.value()));
  }
  const int index = plan_.FindItemLevel(level);
  if (index < 0) return false;
  *il = static_cast<size_t>(index);
  return true;
}

int64_t BruteForceSupports::SupportOf(
    const std::vector<std::string>& values) const {
  CellNodes nodes;
  size_t il = 0;
  if (!Resolve(values, &nodes, &il)) return -1;
  const auto it = levels_[il].find(nodes);
  return it == levels_[il].end() ? 0 : it->second;
}

size_t BruteForceSupports::CellsAtLeast(uint32_t min_support) const {
  size_t n = 0;
  for (const auto& level : levels_) {
    for (const auto& [key, support] : level) n += support >= min_support;
  }
  return n;
}

int64_t BruteForceSupports::ChildrenAtLeast(
    const std::vector<std::string>& values, size_t dim,
    uint32_t min_support) const {
  CellNodes nodes;
  size_t il = 0;
  if (!Resolve(values, &nodes, &il) || dim >= nodes.size()) return -1;
  flowcube::ItemLevel child_level = plan_.item_levels[il];
  ++child_level.levels[dim];
  const int child_il = plan_.FindItemLevel(child_level);
  if (child_il < 0) return 0;
  const flowcube::ConceptHierarchy& h = schema_.dimensions[dim];
  int64_t n = 0;
  for (const auto& [key, support] : levels_[static_cast<size_t>(child_il)]) {
    if (support < min_support || h.Parent(key[dim]) != nodes[dim]) continue;
    bool same = true;
    for (size_t d = 0; d < key.size() && same; ++d) {
      same = d == dim || key[d] == nodes[d];
    }
    n += same;
  }
  return n;
}

CellNodes NodesOfCell(const FlowCube& cube, const flowcube::Itemset& dims) {
  CellNodes nodes(cube.schema().num_dimensions(), 0);
  for (flowcube::ItemId id : dims) {
    nodes[cube.catalog().DimOf(id)] = cube.catalog().NodeOf(id);
  }
  return nodes;
}

void CheckCellSupports(const FlowCube& cube, const BruteForceSupports& truth,
                       uint32_t min_support, Errors* errors) {
  const flowcube::FlowCubePlan& plan = cube.plan();
  for (size_t il = 0; il < plan.item_levels.size(); ++il) {
    std::map<CellNodes, uint32_t> want;
    for (const auto& [key, support] : truth.level(il)) {
      if (support >= min_support) want.emplace(key, support);
    }
    for (size_t pl = 0; pl < plan.path_levels.size(); ++pl) {
      std::map<CellNodes, uint32_t> got;
      cube.cuboid(il, pl).ForEach([&](const FlowCell& cell) {
        got.emplace(NodesOfCell(cube, cell.dims), cell.support);
      });
      if (got != want) {
        errors->Add("cuboid " + plan.item_levels[il].ToString() + " pl " +
                    std::to_string(pl) + ": " + std::to_string(got.size()) +
                    " cells differ from the " + std::to_string(want.size()) +
                    " brute-force cells or their supports");
      }
    }
  }
}

GraphCounts CountsOf(const FlowGraph& graph) {
  GraphCounts c;
  const size_t n = graph.num_nodes();
  c.parent.resize(n);
  c.paths.resize(n);
  c.terminations.resize(n);
  c.duration_sum.resize(n);
  for (FlowNodeId i = 0; i < n; ++i) {
    c.parent[i] = graph.parent(i);
    c.paths[i] = graph.path_count(i);
    c.terminations[i] = graph.terminate_count(i);
    for (const flowcube::DurationCount& dc : graph.duration_counts(i)) {
      c.duration_sum[i] += dc.count;
    }
  }
  return c;
}

void CheckConservation(const GraphCounts& c, uint32_t support,
                       const std::string& where, Errors* errors) {
  const size_t n = c.paths.size();
  if (n == 0 || c.paths[FlowGraph::kRoot] != support) {
    errors->Add(where + ": root count differs from the support " +
                std::to_string(support));
    return;
  }
  std::vector<uint64_t> child_sum(n, 0);
  for (size_t i = 1; i < n; ++i) {
    if (c.parent[i] >= n) {
      errors->Add(where + ": node " + std::to_string(i) + " has no parent");
      return;
    }
    child_sum[c.parent[i]] += c.paths[i];
  }
  for (size_t i = 0; i < n; ++i) {
    if (c.paths[i] != child_sum[i] + c.terminations[i] ||
        (i != FlowGraph::kRoot && c.paths[i] != c.duration_sum[i])) {
      errors->Add(where + ": node " + std::to_string(i) +
                  " does not conserve its count");
      return;
    }
  }
}

void CheckConservation(const FlowCube& cube, Errors* errors) {
  const flowcube::FlowCubePlan& plan = cube.plan();
  for (size_t il = 0; il < plan.item_levels.size(); ++il) {
    for (size_t pl = 0; pl < plan.path_levels.size(); ++pl) {
      cube.cuboid(il, pl).ForEach([&](const FlowCell& cell) {
        CheckConservation(CountsOf(cell.graph), cell.support,
                          cube.CellName(cell.dims) + " pl " +
                              std::to_string(pl),
                          errors);
      });
    }
  }
}

void CheckMergedEqualsParent(const FlowGraph& parent, const FlowGraph& merged,
                             const std::string& where, Errors* errors) {
  if (flowcube::DumpFlowGraph(parent.Canonical()) !=
      flowcube::DumpFlowGraph(merged.Canonical())) {
    errors->Add(where + ": children merged by Lemma 4.2 differ from the cell");
  }
}

size_t CheckLemma42(const FlowCube& cube, Errors* errors) {
  const flowcube::FlowCubeQuery query(&cube);
  const flowcube::FlowCubePlan& plan = cube.plan();
  size_t merges = 0;
  for (size_t il = 0; il < plan.item_levels.size(); ++il) {
    for (size_t pl = 0; pl < plan.path_levels.size(); ++pl) {
      cube.cuboid(il, pl).ForEach([&](const FlowCell& cell) {
        const flowcube::CellRef ref{&cell, il, pl};
        for (size_t d = 0; d < cube.schema().num_dimensions(); ++d) {
          auto merged = query.MergeChildren(ref, d);
          if (!merged.ok()) continue;
          ++merges;
          CheckMergedEqualsParent(cell.graph, merged.value(),
                                  cube.CellName(cell.dims) + " dim " +
                                      std::to_string(d),
                                  errors);
        }
      });
    }
  }
  return merges;
}

void CheckMethodOutputs(const FlowCube& cube, Errors* errors) {
  size_t exceptions = 0;
  cube.ForEachCuboid([&](const flowcube::Cuboid& cuboid) {
    cuboid.ForEach([&](const FlowCell& cell) {
      exceptions += cell.graph.exceptions().size();
    });
  });
  if (exceptions == 0) errors->Add("the cube holds no exception");
  if (cube.RedundantCells() == 0) errors->Add("the cube has no redundant cell");
}

void CheckDumpsEqual(const FlowCube& got, const FlowCube& want,
                     Errors* errors) {
  const std::string a = flowcube::DumpFlowCube(got);
  const std::string b = flowcube::DumpFlowCube(want);
  if (a == b) return;
  size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  errors->Add("cube dump differs from the rebuild's at byte " +
              std::to_string(at));
}

void CheckFreshEpoch(uint64_t answered, uint64_t before,
                     const std::string& where, Errors* errors) {
  if (answered != before + 1) {
    errors->Add(where + ": answered from epoch " + std::to_string(answered) +
                ", not the new " + std::to_string(before + 1));
  }
}

void CheckSameBody(uint64_t served_hash, uint64_t reference_hash,
                   const std::string& where, Errors* errors) {
  if (served_hash != reference_hash) {
    errors->Add(where + ": served body differs from the reference");
  }
}

uint64_t BodyHash(const std::string& body) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : body) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<std::string> ParseCellName(const std::string& name) {
  std::vector<std::string> values;
  if (name.size() < 2 || name.front() != '(' || name.back() != ')') {
    return values;
  }
  const std::string inner = name.substr(1, name.size() - 2);
  size_t from = 0;
  while (true) {
    const size_t comma = inner.find(", ", from);
    values.push_back(inner.substr(from, comma - from));
    if (comma == std::string::npos) break;
    from = comma + 2;
  }
  return values;
}

std::string AnsweredCellName(const std::string& body) {
  if (body.compare(0, 5, "cell ") != 0) return "";
  return body.substr(5, body.find('\n') - 5);
}

void AnswerOracle::CheckCellBody(const std::string& body,
                                 const std::string& what,
                                 Errors* errors) const {
  // "<tag> (names)\n[il .. pl ..\n]cell dims=[..] support=S redundant=R\n
  //  graph nodes=N total_paths=T\n..."
  const size_t nl = body.find('\n');
  const size_t space = body.find(' ');
  if (nl == std::string::npos || space == std::string::npos || space > nl) {
    errors->Add(what + ": malformed cell body");
    return;
  }
  const std::vector<std::string> values =
      ParseCellName(body.substr(space + 1, nl - space - 1));
  const int64_t support = NumberAfter(body, " support=");
  const int64_t total = NumberAfter(body, " total_paths=");
  const int64_t want = truth_->SupportOf(values);
  if (want < 0 || support != want || total != want) {
    errors->Add(what + ": support " + std::to_string(support) +
                " (graph total " + std::to_string(total) + ") of " +
                Join(values) + ", brute force gives " + std::to_string(want));
  } else if (want < min_support_) {
    errors->Add(what + ": answered " + Join(values) + " below delta");
  }
}

void AnswerOracle::Check(const QueryRequest& request,
                         const QueryResponse& response,
                         Errors* errors) const {
  const std::string what = "request " + std::to_string(request.request_id);
  if (response.code != flowcube::Status::Code::kOk) {
    errors->Add(what + ": status " + response.message);
    return;
  }
  if (response.request_id != request.request_id) {
    errors->Add(what + ": response echoes request id " +
                std::to_string(response.request_id));
    return;
  }
  const std::string& body = response.body;
  switch (request.type) {
    case RequestType::kPointLookup: {
      if (AnsweredCellName(body) != Join(request.values)) {
        errors->Add(what + ": point lookup answered another cell");
        return;
      }
      CheckCellBody(body, what, errors);
      break;
    }
    case RequestType::kCellOrAncestor: {
      CheckCellBody(body, what, errors);
      const std::vector<std::string> got =
          ParseCellName(AnsweredCellName(body));
      const flowcube::PathSchema& schema = truth_->schema();
      for (size_t d = 0; d < got.size() && d < request.values.size(); ++d) {
        auto a = schema.dimensions[d].Find(got[d]);
        auto v = schema.dimensions[d].Find(request.values[d]);
        if (!a.ok() || !v.ok() ||
            !schema.dimensions[d].IsAncestorOrSelf(a.value(), v.value())) {
          errors->Add(what + ": answer is no ancestor of the request");
          return;
        }
      }
      break;
    }
    case RequestType::kDrillDown: {
      const int64_t n = NumberAfter(body, "children ");
      const int64_t want =
          truth_->ChildrenAtLeast(request.values, request.dim, min_support_);
      if (n != want) {
        errors->Add(what + ": " + std::to_string(n) +
                    " drill-down children, brute force gives " +
                    std::to_string(want));
        return;
      }
      // Each child: "child (names)\ncell dims=...\n  graph ...\n  node ..."
      size_t at = body.find('\n') + 1;
      for (int64_t i = 0; i < n; ++i) {
        const size_t next = body.find("\nchild ", at);
        const std::string child =
            body.substr(at, next == std::string::npos ? std::string::npos
                                                      : next + 1 - at);
        CheckCellBody(child, what + " child " + std::to_string(i), errors);
        if (next == std::string::npos) {
          if (i + 1 != n) errors->Add(what + ": drill-down body truncated");
          break;
        }
        at = next + 1;
      }
      break;
    }
    case RequestType::kSimilarity: {
      if (body.compare(0, 9, "distance ") != 0) {
        errors->Add(what + ": malformed similarity body");
        return;
      }
      const double distance = std::strtod(body.c_str() + 9, nullptr);
      if (request.values == request.values_b && distance != 0.0) {
        errors->Add(what + ": a cell's distance to itself is not 0");
      }
      break;
    }
    case RequestType::kStats: {
      const int64_t records = NumberAfter(body, "records ");
      const int64_t cuboids = NumberAfter(body, "cuboids ");
      const int64_t cells = NumberAfter(body, "cells ");
      const size_t path_levels =
          cuboids > 0 && truth_->num_item_levels() > 0
              ? static_cast<size_t>(cuboids) / truth_->num_item_levels()
              : 0;
      const size_t want = truth_->CellsAtLeast(min_support_) * path_levels;
      if (records != static_cast<int64_t>(truth_->num_records()) ||
          cells != static_cast<int64_t>(want)) {
        errors->Add(what + ": stats report " + std::to_string(records) +
                    " records and " + std::to_string(cells) +
                    " cells, brute force gives " +
                    std::to_string(truth_->num_records()) + " and " +
                    std::to_string(want));
      }
      break;
    }
    default:
      errors->Add(what + ": not a public request type");
  }
}

void CheckSymmetric(const std::string& body_ab, const std::string& body_ba,
                    Errors* errors) {
  // The distance walk sums in the first graph's child order, so swapping
  // the cells may change the last bits; anything beyond rounding is wrong.
  const double ab = std::strtod(body_ab.c_str() + 9, nullptr);
  const double ba = std::strtod(body_ba.c_str() + 9, nullptr);
  if (body_ab.compare(0, 9, "distance ") != 0 ||
      body_ba.compare(0, 9, "distance ") != 0 ||
      std::fabs(ab - ba) > 1e-12 * std::max(std::fabs(ab), std::fabs(ba))) {
    errors->Add("similarity is not symmetric: " + body_ab + " vs " + body_ba);
  }
}

}  // namespace perfbench
