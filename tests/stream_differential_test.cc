// Differential oracle for incremental maintenance: after ANY sequence of
// micro-batches, the incrementally maintained flowcube must dump
// byte-identically to a from-scratch FlowCubeBuilder rebuild over the union
// path database (flowcube/dump renders cells sorted with %.17g doubles, so
// string equality is bitwise cube equality). 20 seeded workloads, each
// driven through 3 batch-size schedules with exceptions and redundancy
// marking on, checked after every single batch. A second suite exercises
// sliding-window maintenance (exceptions off) against rebuilds over the
// live window. A third runs a three-level duration hierarchy whose plan
// materializes a timed duration level that is not the finest.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flowcube/builder.h"
#include "flowcube/dump.h"
#include "gen/path_generator.h"
#include "rfid/discretizer.h"
#include "stream/incremental_maintainer.h"

namespace flowcube {
namespace {

struct Workload {
  GeneratorConfig cfg;
  size_t num_records = 0;
  uint32_t min_support = 0;
};

// Same shape as the mining differential suite: small 2-dimension workloads
// whose seed drives density and threshold, big enough to promote, demote,
// and re-mine cells across batches.
Workload MakeWorkload(int seed) {
  Workload w;
  w.cfg.num_dimensions = 2;
  w.cfg.dim_distinct_per_level = {2, 2, 2};
  w.cfg.dim_zipf_alpha = 0.5 + 0.1 * (seed % 5);
  w.cfg.num_location_groups = 3;
  w.cfg.locations_per_group = 3;
  w.cfg.num_sequences = 4 + seed % 5;
  w.cfg.min_sequence_length = 2;
  w.cfg.max_sequence_length = 5;
  w.cfg.num_distinct_durations = 4 + seed % 4;
  w.cfg.seed = 5000 + static_cast<uint64_t>(seed) * 131;
  w.num_records = 50 + (static_cast<size_t>(seed) * 11) % 41;
  w.min_support = 2 + static_cast<uint32_t>(seed) % 4;
  return w;
}

// The three batch-size schedules every workload runs under.
std::vector<size_t> Schedule(int kind, size_t n) {
  std::vector<size_t> sizes;
  switch (kind) {
    case 0:  // one bulk load
      sizes.push_back(n);
      break;
    case 1:  // steady micro-batches
      for (size_t done = 0; done < n; done += 7) {
        sizes.push_back(std::min<size_t>(7, n - done));
      }
      break;
    default:  // geometric ramp: 1, 2, 4, 8, ...
      for (size_t done = 0, next = 1; done < n; done += sizes.back()) {
        sizes.push_back(std::min(next, n - done));
        next *= 2;
      }
      break;
  }
  return sizes;
}

FlowCubeBuilderOptions BuildOptions(uint32_t min_support,
                                    bool compute_exceptions) {
  FlowCubeBuilderOptions options;
  options.min_support = min_support;
  options.compute_exceptions = compute_exceptions;
  options.mark_redundant = true;
  return options;
}

std::string RebuildDump(const PathDatabase& db, const FlowCubePlan& plan,
                        const FlowCubeBuilderOptions& options) {
  const FlowCubeBuilder builder(options);
  Result<FlowCube> cube = builder.Build(db, plan);
  EXPECT_TRUE(cube.ok()) << cube.status().ToString();
  return DumpFlowCube(cube.value());
}

class StreamDifferential : public ::testing::TestWithParam<int> {};

TEST_P(StreamDifferential, IncrementalEqualsRebuildAfterEveryBatch) {
  const Workload w = MakeWorkload(GetParam());
  PathGenerator gen(w.cfg);
  const PathDatabase db = gen.Generate(w.num_records);
  Result<FlowCubePlan> plan = FlowCubePlan::Default(db.schema());
  ASSERT_TRUE(plan.ok());

  for (int schedule = 0; schedule < 3; ++schedule) {
    IncrementalMaintainerOptions options;
    options.build = BuildOptions(w.min_support, /*compute_exceptions=*/true);
    Result<IncrementalMaintainer> created = IncrementalMaintainer::Create(
        db.schema_ptr(), plan.value(), options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    IncrementalMaintainer maintainer = std::move(created.value());

    PathDatabase prefix(db.schema_ptr());
    size_t offset = 0;
    for (const size_t batch : Schedule(schedule, db.size())) {
      ASSERT_TRUE(
          maintainer
              .ApplyRecords(std::span<const PathRecord>(db.records())
                                .subspan(offset, batch))
              .ok());
      for (size_t i = 0; i < batch; ++i) {
        ASSERT_TRUE(prefix.Append(db.record(offset + i)).ok());
      }
      offset += batch;
      ASSERT_EQ(DumpFlowCube(maintainer.cube()),
                RebuildDump(prefix, plan.value(), options.build))
          << "schedule " << schedule << " diverged after " << offset
          << " records";
    }
    ASSERT_EQ(offset, db.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, StreamDifferential,
                         ::testing::Range(0, 20));

class WindowDifferential : public ::testing::TestWithParam<int> {};

TEST_P(WindowDifferential, WindowEqualsRebuildOverLiveRecords) {
  const Workload w = MakeWorkload(GetParam());
  PathGenerator gen(w.cfg);
  const PathDatabase db = gen.Generate(w.num_records);
  Result<FlowCubePlan> plan = FlowCubePlan::Default(db.schema());
  ASSERT_TRUE(plan.ok());

  for (int schedule = 0; schedule < 3; ++schedule) {
    IncrementalMaintainerOptions options;
    options.build = BuildOptions(w.min_support, /*compute_exceptions=*/false);
    options.window_records = 25;
    Result<IncrementalMaintainer> created = IncrementalMaintainer::Create(
        db.schema_ptr(), plan.value(), options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    IncrementalMaintainer maintainer = std::move(created.value());

    size_t offset = 0;
    for (const size_t batch : Schedule(schedule, db.size())) {
      ASSERT_TRUE(
          maintainer
              .ApplyRecords(std::span<const PathRecord>(db.records())
                                .subspan(offset, batch))
              .ok());
      offset += batch;

      PathDatabase window(db.schema_ptr());
      for (const PathRecord& rec : maintainer.LiveRecords()) {
        ASSERT_TRUE(window.Append(rec).ok());
      }
      EXPECT_LE(window.size(), 25u);
      ASSERT_EQ(DumpFlowCube(maintainer.cube()),
                RebuildDump(window, plan.value(), options.build))
          << "schedule " << schedule << " diverged after " << offset
          << " records";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, WindowDifferential,
                         ::testing::Range(0, 8));

// The default plan views durations at the finest level and at '*' only.
// This one uses the hierarchy raw -> raw / 4 -> '*' and materializes all
// three duration levels at every cut, so level 1 is timed but not the
// finest: the maintainer must mine segments there too.
FlowCubePlan ThreeDurationLevelPlan(const PathSchema& schema) {
  FlowCubePlan plan = FlowCubePlan::Default(schema).value();
  plan.mining.path_levels.clear();
  plan.path_levels.clear();
  for (int cut = 0; cut < static_cast<int>(plan.mining.cuts.size()); ++cut) {
    for (int duration_level : {2, 1, 0}) {
      plan.path_levels.push_back(
          static_cast<int>(plan.mining.path_levels.size()));
      plan.mining.path_levels.push_back(PathLevel{cut, duration_level});
    }
  }
  return plan;
}

TEST(CoarseDurationDifferential, MiddleDurationLevelEqualsRebuild) {
  size_t middle_level_exceptions = 0;
  for (int seed = 0; seed < 4; ++seed) {
    const Workload w = MakeWorkload(seed);
    const PathDatabase generated = PathGenerator(w.cfg).Generate(w.num_records);
    auto schema = std::make_shared<PathSchema>(generated.schema());
    schema->durations = DurationHierarchy({4});
    PathDatabase db(schema);
    for (const PathRecord& rec : generated.records()) {
      ASSERT_TRUE(db.Append(rec).ok());
    }
    const FlowCubePlan plan = ThreeDurationLevelPlan(*schema);

    for (int schedule = 0; schedule < 3; ++schedule) {
      IncrementalMaintainerOptions options;
      options.build = BuildOptions(w.min_support, /*compute_exceptions=*/true);
      Result<IncrementalMaintainer> created =
          IncrementalMaintainer::Create(db.schema_ptr(), plan, options);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      IncrementalMaintainer maintainer = std::move(created.value());

      PathDatabase prefix(db.schema_ptr());
      size_t offset = 0;
      for (const size_t batch : Schedule(schedule, db.size())) {
        ASSERT_TRUE(
            maintainer
                .ApplyRecords(std::span<const PathRecord>(db.records())
                                  .subspan(offset, batch))
                .ok());
        for (size_t i = 0; i < batch; ++i) {
          ASSERT_TRUE(prefix.Append(db.record(offset + i)).ok());
        }
        offset += batch;
        ASSERT_EQ(DumpFlowCube(maintainer.cube()),
                  RebuildDump(prefix, plan, options.build))
            << "seed " << seed << ", schedule " << schedule
            << " diverged after " << offset << " records";
      }

      const FlowCube& cube = maintainer.cube();
      for (size_t i = 0; i < plan.item_levels.size(); ++i) {
        for (size_t p = 0; p < plan.path_levels.size(); ++p) {
          const int pl = plan.path_levels[p];
          if (plan.mining.path_levels[static_cast<size_t>(pl)]
                  .duration_level != 1) {
            continue;
          }
          cube.cuboid(i, p).ForEach([&](const FlowCell& cell) {
            middle_level_exceptions += cell.graph.exceptions().size();
          });
        }
      }
    }
  }
  // Not vacuous: a rule that mined only the finest level would drop these.
  EXPECT_GT(middle_level_exceptions, 0u);
}

}  // namespace
}  // namespace flowcube
