// Fuzz harness for the shard wire decoders (serve/shard_codec.h) — the
// bytes a coordinator reads back from its shards. Every input is tried as
// each of the three internal bodies against the fuzz fixture's schema and
// plan; on top of "never crash", a body a decoder accepts must re-encode
// through the production encoder to exactly the input bytes.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "fuzz/fixture.h"
#include "fuzz/harness.h"
#include "io/binary_io.h"
#include "serve/shard_codec.h"

namespace flowcube {
namespace {

FlowCell ToCell(const FetchedCell& fetched, Itemset dims = {}) {
  FlowCell cell;
  cell.dims = std::move(dims);
  cell.support = fetched.support;
  cell.graph = fetched.graph;
  return cell;
}

void CheckCellFetch(std::string_view body, const FuzzFixture& fx) {
  // Decode against the count the body declares, so the count check passes
  // and the entries are what the mutator explores.
  ByteReader r(body);
  uint32_t declared = 0;
  if (!r.U32(&declared).ok()) return;
  std::vector<FetchedCell> fetched;
  if (!DecodeCellFetchBody(body, *fx.schema, declared, &fetched).ok()) return;
  std::vector<FlowCell> cells;
  cells.reserve(fetched.size());
  for (const FetchedCell& f : fetched) cells.push_back(ToCell(f));
  std::vector<const FlowCell*> entries;
  for (size_t i = 0; i < cells.size(); ++i) {
    entries.push_back(fetched[i].found ? &cells[i] : nullptr);
  }
  FC_CHECK_MSG(EncodeCellFetchBody(entries) == body,
               "accepted cell-fetch body did not re-encode identically");
}

void CheckChildren(std::string_view body, const FuzzFixture& fx) {
  FetchedChildren fetched;
  if (!DecodeChildrenBody(body, *fx.schema, &fetched).ok()) return;
  const FlowCell parent = ToCell(fetched.parent);
  std::vector<FlowCell> children;
  children.reserve(fetched.children.size());
  for (const auto& [key, child] : fetched.children) {
    children.push_back(ToCell(child, key));
  }
  std::vector<const FlowCell*> entries;
  for (const FlowCell& child : children) entries.push_back(&child);
  FC_CHECK_MSG(EncodeChildrenBody(fetched.parent.found ? &parent : nullptr,
                                  entries) == body,
               "accepted children body did not re-encode identically");
}

void CheckStats(std::string_view body, const FuzzFixture& fx) {
  FetchedStats fetched;
  if (!DecodeStatsBody(body, fx.plan, &fetched).ok()) return;
  std::vector<std::vector<FlowCell>> cells(fetched.cuboids.size());
  std::vector<std::vector<const FlowCell*>> cuboids(fetched.cuboids.size());
  for (size_t c = 0; c < fetched.cuboids.size(); ++c) {
    for (const auto& [key, support] : fetched.cuboids[c]) {
      FlowCell cell;
      cell.dims = key;
      cell.support = support;
      cells[c].push_back(std::move(cell));
    }
    for (const FlowCell& cell : cells[c]) cuboids[c].push_back(&cell);
  }
  FC_CHECK_MSG(EncodeStatsBody(fetched.records, fx.plan, cuboids) == body,
               "accepted stats body did not re-encode identically");
}

}  // namespace

int FuzzShardBody(const uint8_t* data, size_t size) {
  const FuzzFixture& fx = GetFuzzFixture();
  const std::string_view body(reinterpret_cast<const char*>(data), size);
  CheckCellFetch(body, fx);
  CheckChildren(body, fx);
  CheckStats(body, fx);
  return 0;
}

}  // namespace flowcube
