// Shows that every output check of the benchmark passes on the program's
// real outputs and trips when one value of them is corrupted.
//
//   python3 perfbench/run.py --self-test

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "bench.h"
#include "checks.h"
#include "common/logging.h"
#include "flowcube/query.h"
#include "serve/query_service.h"
#include "serve/snapshot_registry.h"
#include "stream/incremental_maintainer.h"

namespace {

using namespace perfbench;
using flowcube::FlowCell;
using flowcube::FlowCube;
using flowcube::QueryRequest;
using flowcube::QueryResponse;
using flowcube::RequestType;

int failures = 0;

// Runs `check` on fresh Errors and compares the outcome with `want_ok`.
void Expect(const std::string& name, bool want_ok,
            const std::function<void(Errors*)>& check) {
  Errors errors;
  check(&errors);
  const bool pass = errors.ok() == want_ok;
  if (!pass) ++failures;
  std::printf("%s %s (%s)\n", pass ? "PASS" : "FAIL", name.c_str(),
              want_ok ? "clean" : "corrupted");
}

// The first cell of the cube, for corruption.
FlowCell* FirstCell(FlowCube* cube) {
  FlowCell* first = nullptr;
  cube->ForEachCuboidMutable([&](flowcube::Cuboid* cuboid) {
    cuboid->ForEachMutable([&](FlowCell* cell) {
      if (first == nullptr) first = cell;
    });
  });
  return first;
}

// Replaces the first occurrence of `key` followed by a number in `body`
// with the number plus one.
std::string BumpNumber(const std::string& body, const std::string& key) {
  const size_t at = body.find(key);
  if (at == std::string::npos) return body;
  const size_t begin = at + key.size();
  size_t end = begin;
  while (end < body.size() && body[end] >= '0' && body[end] <= '9') ++end;
  const long long n = std::stoll(body.substr(begin, end - begin));
  return body.substr(0, begin) + std::to_string(n + 1) + body.substr(end);
}

}  // namespace

int main() {
  constexpr size_t kPaths = 3000;
  constexpr uint32_t kMinSupport = 30;
  const flowcube::PathDatabase db = GenerateInputs(7, 3, kPaths);
  const flowcube::FlowCubePlan plan =
      flowcube::FlowCubePlan::Default(db.schema()).value();
  const flowcube::FlowCubeBuilder builder(BuildOptions(kMinSupport));
  FlowCube cube = builder.Build(db, plan).value();
  const BruteForceSupports truth(db.schema(), plan, db.records());

  // Cell sets and supports against the brute-force count.
  Expect("cell supports", true, [&](Errors* e) {
    CheckCellSupports(cube, truth, kMinSupport, e);
  });
  {
    FlowCube bad = cube.Clone();
    FirstCell(&bad)->support += 1;
    Expect("cell supports", false, [&](Errors* e) {
      CheckCellSupports(bad, truth, kMinSupport, e);
    });
  }

  // Count conservation, one corrupted count at a time.
  const FlowCell& cell = *FirstCell(&cube);
  const GraphCounts counts = CountsOf(cell.graph);
  Expect("conservation", true, [&](Errors* e) {
    CheckConservation(cube, e);
  });
  const std::function<void(GraphCounts*)> corruptions[] = {
      [](GraphCounts* c) { c->paths[0] += 1; },
      [](GraphCounts* c) { c->paths[1] += 1; },
      [](GraphCounts* c) { c->terminations[1] += 1; },
      [](GraphCounts* c) { c->duration_sum[1] += 1; },
  };
  for (const auto& corrupt : corruptions) {
    GraphCounts bad = counts;
    corrupt(&bad);
    Expect("conservation", false, [&](Errors* e) {
      CheckConservation(bad, cell.support, "cell", e);
    });
  }

  // Lemma 4.2: merged children against their parent.
  const flowcube::FlowCubeQuery query(&cube);
  std::optional<flowcube::FlowGraph> merged;
  const FlowCell* parent = nullptr;
  cube.cuboid(0, 0).ForEach([&](const FlowCell& c) {
    if (merged) return;
    auto m = query.MergeChildren(flowcube::CellRef{&c, 0, 0}, 0);
    if (m.ok()) {
      merged.emplace(std::move(m).value());
      parent = &c;
    }
  });
  Expect("Lemma 4.2", true, [&](Errors* e) {
    if (!merged) e->Add("no cell merges");
    if (CheckLemma42(cube, e) == 0) e->Add("no merge checked");
  });
  if (merged) {
    flowcube::FlowGraph bad = merged->Canonical();
    bad.AddPath(db.record(0).path);
    Expect("Lemma 4.2", false, [&](Errors* e) {
      CheckMergedEqualsParent(parent->graph, bad, "apex", e);
    });
  }

  // The paper's exceptions and redundant cells are present.
  Expect("method outputs", true, [&](Errors* e) { CheckMethodOutputs(cube, e); });
  {
    flowcube::FlowCubeBuilderOptions no_exceptions = BuildOptions(kMinSupport);
    no_exceptions.compute_exceptions = false;
    const FlowCube bad =
        flowcube::FlowCubeBuilder(no_exceptions).Build(db, plan).value();
    Expect("method outputs", false,
           [&](Errors* e) { CheckMethodOutputs(bad, e); });
    FlowCube unflagged = cube.Clone();
    unflagged.ForEachCuboidMutable([](flowcube::Cuboid* cuboid) {
      cuboid->ForEachMutable([](FlowCell* c) { c->redundant = false; });
    });
    Expect("method outputs", false,
           [&](Errors* e) { CheckMethodOutputs(unflagged, e); });
  }

  // Dump equality against a rebuild.
  Expect("dump equality", true,
         [&](Errors* e) { CheckDumpsEqual(cube.Clone(), cube, e); });
  {
    FlowCube bad = cube.Clone();
    FirstCell(&bad)->redundant = !FirstCell(&bad)->redundant;
    Expect("dump equality", false,
           [&](Errors* e) { CheckDumpsEqual(bad, cube, e); });
  }

  // Freshness: after a batch that AttachToRegistry published, the first
  // answer comes from the next epoch; after a batch applied without
  // publication it comes from the old one, and the check trips.
  {
    flowcube::SnapshotRegistry registry;
    const flowcube::QueryService service(&registry);
    flowcube::IncrementalMaintainerOptions mopts;
    mopts.build = BuildOptions(kMinSupport);
    std::optional<flowcube::IncrementalMaintainer> published;
    std::optional<flowcube::IncrementalMaintainer> unpublished;
    published.emplace(std::move(
        flowcube::IncrementalMaintainer::Create(db.schema_ptr(), plan, mopts)
            .value()));
    unpublished.emplace(std::move(
        flowcube::IncrementalMaintainer::Create(db.schema_ptr(), plan, mopts)
            .value()));
    flowcube::AttachToRegistry(&*published, &registry);
    QueryRequest stats;
    stats.type = RequestType::kStats;
    auto apply_then_ask = [&](flowcube::IncrementalMaintainer* maintainer,
                              size_t from, Errors* e) {
      const uint64_t before = registry.current_epoch();
      FC_CHECK(maintainer
                   ->ApplyRecords(std::span<const flowcube::PathRecord>(
                       db.records().data() + from, 100))
                   .ok());
      CheckFreshEpoch(service.Execute(stats).epoch, before, "batch", e);
    };
    Expect("fresh epoch", true,
           [&](Errors* e) { apply_then_ask(&*published, 0, e); });
    Expect("fresh epoch", false,
           [&](Errors* e) { apply_then_ask(&*unpublished, 100, e); });
  }

  // Served-body identity.
  Expect("same body", true, [](Errors* e) {
    CheckSameBody(BodyHash("children 2\n"), BodyHash("children 2\n"), "b", e);
  });
  Expect("same body", false, [](Errors* e) {
    CheckSameBody(BodyHash("children 2\n"), BodyHash("children 3\n"), "b", e);
  });

  // Answers to every public request type, then one corruption of each.
  flowcube::CubeSnapshot snapshot;
  snapshot.epoch = 1;
  snapshot.records = kPaths;
  snapshot.cube = std::make_shared<const FlowCube>(cube.Clone());
  const AnswerOracle oracle(&truth, kMinSupport);
  const std::vector<QueryRequest> pool =
      RequestPool(truth, plan, db.records(), kMinSupport, 400, 3);
  bool seen[5] = {};
  for (const QueryRequest& pool_req : pool) {
    const size_t type = TypeIndex(pool_req.type);
    if (seen[type]) continue;
    QueryRequest req = pool_req;
    // A similarity answer is checked for a cell against itself (distance 0).
    if (req.type == RequestType::kSimilarity) req.values_b = req.values;
    if (req.type == RequestType::kDrillDown) {
      // Corrupting a child's support needs a drill-down with children.
      const QueryResponse r = flowcube::QueryService::ExecuteOn(snapshot, req);
      if (r.body.rfind("children 0\n", 0) == 0) continue;
    }
    seen[type] = true;
    const std::string name = std::string("answer ") + TypeName(req.type);
    const QueryResponse good = flowcube::QueryService::ExecuteOn(snapshot, req);
    Expect(name, true, [&](Errors* e) { oracle.Check(req, good, e); });

    QueryResponse bad = good;
    bad.code = flowcube::Status::Code::kInternal;
    Expect(name + " status", false, [&](Errors* e) { oracle.Check(req, bad, e); });
    bad = good;
    bad.request_id += 1;
    Expect(name + " id", false, [&](Errors* e) { oracle.Check(req, bad, e); });
    bad = good;
    switch (req.type) {
      case RequestType::kPointLookup:
      case RequestType::kCellOrAncestor:
        bad.body = BumpNumber(good.body, " support=");
        break;
      case RequestType::kDrillDown:
        bad.body = BumpNumber(good.body, "children ");
        Expect(name + " count", false,
               [&](Errors* e) { oracle.Check(req, bad, e); });
        bad.body = BumpNumber(good.body, " support=");
        break;
      case RequestType::kSimilarity:
        bad.body = "distance 0.25\n";
        break;
      default:
        bad.body = BumpNumber(good.body, "cells ");
        break;
    }
    Expect(name + " body", false, [&](Errors* e) { oracle.Check(req, bad, e); });
  }
  for (size_t t = 0; t < 5; ++t) {
    if (!seen[t]) {
      ++failures;
      std::printf("FAIL the pool holds no %s request\n",
                  TypeName(kPublicTypes[t]));
    }
  }

  // The served-answer check of `serve` and `sharded`: every body against the
  // reference, with the reference's own properties.
  {
    std::vector<Sample> samples;
    for (uint32_t i = 0; i < pool.size(); ++i) {
      Sample s;
      s.pool_index = i;
      s.ok = true;
      s.id_echoed = true;
      s.body_hash =
          BodyHash(flowcube::QueryService::ExecuteOn(snapshot, pool[i]).body);
      samples.push_back(s);
    }
    auto reference = [&](const QueryRequest& req) {
      return flowcube::QueryService::ExecuteOn(snapshot, req);
    };
    Expect("answers", true, [&](Errors* e) {
      CheckAnswers(samples, pool, reference, oracle, e);
    });
    std::vector<Sample> bad = samples;
    bad[0].body_hash += 1;
    Expect("answers served body", false, [&](Errors* e) {
      CheckAnswers(bad, pool, reference, oracle, e);
    });
    bad = samples;
    bad[0].id_echoed = false;
    Expect("answers id", false, [&](Errors* e) {
      CheckAnswers(bad, pool, reference, oracle, e);
    });
    // A reference whose distance of a cell to itself is not 0.
    Expect("answers self-similarity", false, [&](Errors* e) {
      CheckAnswers(
          samples, pool,
          [&](const QueryRequest& req) {
            QueryResponse r = reference(req);
            if (req.type == RequestType::kSimilarity &&
                req.values == req.values_b) {
              r.body = "distance 0.25\n";
            }
            return r;
          },
          oracle, e);
    });
  }

  Expect("symmetry", true, [](Errors* e) {
    CheckSymmetric("distance 0.25\n", "distance 0.25\n", e);
  });
  Expect("symmetry", false, [](Errors* e) {
    CheckSymmetric("distance 0.25\n", "distance 0.2500001\n", e);
  });

  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
