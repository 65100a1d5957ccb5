#include <algorithm>

#include <gtest/gtest.h>

#include "flowcube/builder.h"
#include "flowcube/query.h"
#include "gen/paper_example.h"
#include "gen/path_generator.h"

namespace flowcube {
namespace {

class FlowCubeTest : public ::testing::Test {
 protected:
  FlowCubeTest() : db_(MakePaperDatabase()) {
    plan_ = FlowCubePlan::Default(db_.schema()).value();
    FlowCubeBuilderOptions opts;
    opts.min_support = 2;
    opts.exceptions.min_support = 2;
    FlowCubeBuilder builder(opts);
    cube_ = std::make_unique<FlowCube>(
        std::move(builder.Build(db_, plan_, &stats_).value()));
  }

  PathDatabase db_;
  FlowCubePlan plan_;
  FlowCubeBuildStats stats_;
  std::unique_ptr<FlowCube> cube_;
};

TEST_F(FlowCubeTest, PlanEnumeratesAllCuboids) {
  // product depth 3, brand depth 2 -> 4*3 item levels; 4 path levels.
  EXPECT_EQ(plan_.item_levels.size(), 12u);
  EXPECT_EQ(plan_.path_levels.size(), 4u);
  EXPECT_EQ(cube_->num_cuboids(), 48u);
}

TEST_F(FlowCubeTest, IcebergConditionHolds) {
  cube_->ForEachCuboid([](const Cuboid& cuboid) {
    cuboid.ForEach([](const FlowCell& cell) {
      EXPECT_GE(cell.support, 2u);
      EXPECT_EQ(cell.graph.total_paths(), cell.support);
    });
  });
}

TEST_F(FlowCubeTest, ApexCellCoversDatabase) {
  const int il = plan_.FindItemLevel(ItemLevel{{0, 0}});
  ASSERT_GE(il, 0);
  const FlowCell* apex =
      cube_->cuboid(static_cast<size_t>(il), 0).Find({});
  ASSERT_NE(apex, nullptr);
  EXPECT_EQ(apex->support, 8u);
}

TEST_F(FlowCubeTest, CellSupportsMatchTable2) {
  FlowCubeQuery query(cube_.get());
  // Table 2: (shoes, nike)=3 paths, (shoes, adidas)=2, (outerwear, nike)=3.
  EXPECT_EQ(query.Cell({"shoes", "nike"})->cell->support, 3u);
  EXPECT_EQ(query.Cell({"shoes", "adidas"})->cell->support, 2u);
  EXPECT_EQ(query.Cell({"outerwear", "nike"})->cell->support, 3u);
  // (shirt, nike) has a single path: below the iceberg threshold.
  EXPECT_EQ(query.Cell({"shirt", "nike"}).status().code(),
            Status::Code::kNotFound);
}

TEST_F(FlowCubeTest, StarCoordinatesResolve) {
  FlowCubeQuery query(cube_.get());
  const Result<CellRef> nike = query.Cell({"*", "nike"});
  ASSERT_TRUE(nike.ok());
  EXPECT_EQ(nike->cell->support, 6u);
  const Result<CellRef> apex = query.Cell({"*", "*"});
  ASSERT_TRUE(apex.ok());
  EXPECT_EQ(apex->cell->support, 8u);
}

TEST_F(FlowCubeTest, PathLevelChangesGraphShape) {
  FlowCubeQuery query(cube_.get());
  // Path level 2 = one-up cut with raw durations: the (tennis, nike) cell's
  // graph starts at "production" instead of "factory".
  const Result<CellRef> raw = query.Cell({"tennis", "nike"}, 0);
  const Result<CellRef> up = query.Cell({"tennis", "nike"}, 2);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(up.ok());
  const auto& loc = db_.schema().locations;
  EXPECT_NE(raw->cell->graph.FindChild(FlowGraph::kRoot,
                                       loc.Find("factory").value()),
            FlowGraph::kTerminate);
  EXPECT_NE(up->cell->graph.FindChild(FlowGraph::kRoot,
                                      loc.Find("production").value()),
            FlowGraph::kTerminate);
  EXPECT_EQ(up->cell->graph.FindChild(FlowGraph::kRoot,
                                      loc.Find("factory").value()),
            FlowGraph::kTerminate);
}

TEST_F(FlowCubeTest, DurationStarLevelHasAnyDurations) {
  FlowCubeQuery query(cube_.get());
  const Result<CellRef> star = query.Cell({"*", "nike"}, 1);
  ASSERT_TRUE(star.ok());
  const FlowGraph& g = star->cell->graph;
  for (FlowNodeId n = 1; n < g.num_nodes(); ++n) {
    for (const auto& [d, c] : g.duration_counts(n)) {
      EXPECT_EQ(d, kAnyDuration);
    }
  }
}

TEST_F(FlowCubeTest, RollUpAndDrillDown) {
  FlowCubeQuery query(cube_.get());
  const Result<CellRef> tennis = query.Cell({"tennis", "nike"});
  ASSERT_TRUE(tennis.ok());
  const Result<CellRef> shoes = query.RollUp(*tennis, 0);
  ASSERT_TRUE(shoes.ok());
  EXPECT_EQ(cube_->CellName(shoes->cell->dims), "(shoes, nike)");
  EXPECT_EQ(shoes->cell->support, 3u);

  const Result<CellRef> brand_up = query.RollUp(*shoes, 1);
  ASSERT_TRUE(brand_up.ok());
  EXPECT_EQ(cube_->CellName(brand_up->cell->dims), "(shoes, premium)");

  const auto children = query.DrillDown(*shoes, 0);
  ASSERT_EQ(children.size(), 1u);  // only tennis passes the iceberg
  EXPECT_EQ(cube_->CellName(children[0].cell->dims), "(tennis, nike)");

  // Rolling up a '*' dimension fails.
  const Result<CellRef> apex = query.Cell({"*", "*"});
  EXPECT_EQ(query.RollUp(*apex, 0).status().code(),
            Status::Code::kFailedPrecondition);
}

TEST_F(FlowCubeTest, SliceFindsMatchingCells) {
  FlowCubeQuery query(cube_.get());
  const int il = plan_.FindItemLevel(ItemLevel{{3, 2}});
  ASSERT_GE(il, 0);
  const auto cells =
      query.Slice(static_cast<size_t>(il), 0, 1, "nike");
  ASSERT_TRUE(cells.ok());
  // (tennis, nike) and (jacket, nike) pass the iceberg at level (3,2).
  EXPECT_EQ(cells->size(), 2u);
  for (const CellRef& ref : *cells) {
    EXPECT_NE(cube_->CellName(ref.cell->dims).find("nike"),
              std::string::npos);
  }
  EXPECT_FALSE(query.Slice(99, 0, 1, "nike").ok());
  EXPECT_FALSE(query.Slice(0, 0, 1, "noname").ok());
}

TEST_F(FlowCubeTest, TypicalPathsOrderedByProbability) {
  FlowCubeQuery query(cube_.get());
  const Result<CellRef> apex = query.Cell({"*", "*"});
  ASSERT_TRUE(apex.ok());
  const auto typical = query.TypicalPaths(*apex, 10);
  ASSERT_FALSE(typical.empty());
  for (size_t i = 1; i < typical.size(); ++i) {
    EXPECT_GE(typical[i - 1].probability, typical[i].probability);
  }
  // The most typical route is factory > dist.center > truck > shelf >
  // checkout (4 of 8 paths follow it fully).
  const auto& loc = db_.schema().locations;
  EXPECT_EQ(typical[0].path.stages.front().location,
            loc.Find("factory").value());
  const auto k1 = query.TypicalPaths(*apex, 1);
  EXPECT_EQ(k1.size(), 1u);
}

TEST_F(FlowCubeTest, CompareIsZeroForSelf) {
  FlowCubeQuery query(cube_.get());
  const Result<CellRef> a = query.Cell({"shoes", "nike"});
  ASSERT_TRUE(a.ok());
  EXPECT_DOUBLE_EQ(query.Compare(*a, *a), 0.0);
  const Result<CellRef> b = query.Cell({"outerwear", "nike"});
  ASSERT_TRUE(b.ok());
  EXPECT_GT(query.Compare(*a, *b), 0.0);
}

TEST_F(FlowCubeTest, RedundancyMarkingAndErasure) {
  // (clothing, *) covers all 8 paths, as does the apex: the child is
  // necessarily redundant (identical path set => identical flowgraph).
  const int il = plan_.FindItemLevel(ItemLevel{{1, 0}});
  ASSERT_GE(il, 0);
  const ItemCatalog& cat = cube_->catalog();
  const Itemset clothing = {
      cat.DimItem(0, db_.schema().dimensions[0].Find("clothing").value())};
  const FlowCell* cell =
      cube_->cuboid(static_cast<size_t>(il), 0).Find(clothing);
  ASSERT_NE(cell, nullptr);
  EXPECT_TRUE(cell->redundant);

  EXPECT_GT(cube_->RedundantCells(), 0u);
  const size_t before = cube_->TotalCells();
  const size_t removed = cube_->EraseRedundant();
  EXPECT_EQ(cube_->TotalCells(), before - removed);
  EXPECT_EQ(cube_->RedundantCells(), 0u);
}

TEST_F(FlowCubeTest, CellOrAncestorFallsBackAfterEraseRedundant) {
  // Compressing the cube must not lose answers: (clothing, *) is redundant
  // w.r.t. the apex (identical path set), so after EraseRedundant() a direct
  // lookup misses but the ancestor fallback still serves the same flowgraph
  // from (*, *).
  FlowCubeQuery query(cube_.get());
  const Result<CellRef> direct = query.Cell({"clothing", "*"});
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(direct->cell->redundant);
  const uint32_t support_before = direct->cell->support;

  ASSERT_GT(cube_->EraseRedundant(), 0u);

  EXPECT_EQ(query.Cell({"clothing", "*"}).status().code(),
            Status::Code::kNotFound);
  const Result<CellRef> fallback = query.CellOrAncestor({"clothing", "*"});
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(cube_->CellName(fallback->cell->dims), "(*, *)");
  // Redundancy (Definition 4.4) means the ancestor describes the same path
  // set, so the answer the fallback serves is as good as the erased cell's.
  EXPECT_EQ(fallback->cell->support, support_before);

  // Non-redundant cells still resolve directly after compression.
  const Result<CellRef> shoes = query.CellOrAncestor({"shoes", "nike"});
  ASSERT_TRUE(shoes.ok());
  EXPECT_EQ(cube_->CellName(shoes->cell->dims), "(shoes, nike)");
  EXPECT_EQ(shoes->cell->support, 3u);
}

TEST_F(FlowCubeTest, CellOrAncestorIsDeterministicOnCompressedCube) {
  cube_->EraseRedundant();
  FlowCubeQuery query(cube_.get());
  const Result<CellRef> first = query.CellOrAncestor({"clothing", "*"});
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 3; ++i) {
    const Result<CellRef> again = query.CellOrAncestor({"clothing", "*"});
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->cell, first->cell);
  }
}

TEST_F(FlowCubeTest, ApexIsNeverRedundant) {
  const int il = plan_.FindItemLevel(ItemLevel{{0, 0}});
  const FlowCell* apex =
      cube_->cuboid(static_cast<size_t>(il), 0).Find({});
  ASSERT_NE(apex, nullptr);
  EXPECT_FALSE(apex->redundant);
}

TEST_F(FlowCubeTest, ExceptionsAttachedToCellGraphs) {
  // Every exception the build reports is attached to a cell's graph.
  size_t attached = 0;
  size_t cells = 0;
  cube_->ForEachCuboid([&](const Cuboid& cuboid) {
    cuboid.ForEach([&](const FlowCell& cell) {
      attached += cell.graph.exceptions().size();
      ++cells;
    });
  });
  EXPECT_EQ(stats_.exceptions_found, attached);
  EXPECT_EQ(stats_.cells_materialized, cells);
  EXPECT_GT(stats_.mining.TotalCandidates(), 0u);

  // (shoes, nike) at path level 0 (leaf locations, raw durations) holds
  // Table 1's records 1-3:
  //   1 (f,10)(d,2)(t,1)(s,5)(c,0)
  //   2 (f,5)(d,2)(t,1)(s,10)(c,0)
  //   3 (f,10)(d,1)(t,2)(s,5)(c,0)
  // One chain f-d-t-s-c, so every transition has probability 1 globally
  // and under any condition: no transition exceptions. Durations: f {10:2,
  // 5:1}, d {2:2, 1:1}, t {1:2, 2:1}, s {5:2, 10:1}, c {0:3}. The stage
  // patterns with support >= delta=2 match one of {1,3}, {1,2}, {1,2,3}:
  //   (f,10) -> {1,3}: d durations {2,1}, 1/2 each vs 2/3, 1/3: |dev| 1/6.
  //   (d,2) and (d,2)(t,1) -> {1,2}: t durations {1,1} vs 2/3, 1/3 -> two
  //     exceptions of |dev| 1/3 >= eps=0.2 at t under (d,2); the (d,2)(t,1)
  //     pattern conditions s: {5,10}, 1/2 each vs 2/3, 1/3: |dev| 1/6.
  //   (t,1) -> {1,2}: s as above, 1/6.
  //   (s,5), (f,10)(s,5) -> {1,3}: c {0,0} = global.
  //   patterns ending at c condition nothing below it.
  // So exactly two duration exceptions, both at t given d=2 (2 paths):
  // duration 1 rises from 2/3 to 1, duration 2 falls from 1/3 to 0.
  FlowCubeQuery query(cube_.get());
  const Result<CellRef> shoes = query.Cell({"shoes", "nike"}, 0);
  ASSERT_TRUE(shoes.ok());
  const FlowGraph& g = shoes->cell->graph;
  EXPECT_EQ(shoes->cell->support, 3u);
  ASSERT_EQ(g.num_nodes(), 6u);  // root + f, d, t, s, c
  const ConceptHierarchy& loc = db_.schema().locations;
  const FlowNodeId d = 2;
  const FlowNodeId t = 3;
  EXPECT_EQ(g.location(d), loc.Find("dist.center").value());
  EXPECT_EQ(g.location(t), loc.Find("truck").value());
  ASSERT_EQ(g.exceptions().size(), 2u);
  const Duration expected_duration[] = {1, 2};
  const double expected_global[] = {2.0 / 3.0, 1.0 / 3.0};
  const double expected_conditional[] = {1.0, 0.0};
  for (size_t i = 0; i < 2; ++i) {
    const FlowException& e = g.exceptions()[i];
    EXPECT_EQ(e.kind, FlowException::Kind::kDuration);
    EXPECT_EQ(e.condition, (std::vector<StageCondition>{{d, 2}}));
    EXPECT_EQ(e.node, t);
    EXPECT_EQ(e.duration_value, expected_duration[i]);
    EXPECT_DOUBLE_EQ(e.global_probability, expected_global[i]);
    EXPECT_DOUBLE_EQ(e.conditional_probability, expected_conditional[i]);
    EXPECT_EQ(e.condition_support, 2u);
  }
}

TEST_F(FlowCubeTest, CellNameRendersStarsForMissingDims) {
  const ItemCatalog& cat = cube_->catalog();
  const Itemset nike = {
      cat.DimItem(1, db_.schema().dimensions[1].Find("nike").value())};
  EXPECT_EQ(cube_->CellName(nike), "(*, nike)");
  EXPECT_EQ(cube_->CellName({}), "(*, *)");
}

// --- Layered (partial) materialization --------------------------------------------

TEST(FlowCubePlanTest, LayeredChainBetweenLayers) {
  PathDatabase db = MakePaperDatabase();
  const Result<FlowCubePlan> plan = FlowCubePlan::Layered(
      db.schema(), ItemLevel{{1, 0}}, ItemLevel{{3, 2}});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Chain: (3,2) -> (2,2) -> (1,2) -> (1,1) -> (1,0): 5 cuboid levels.
  EXPECT_EQ(plan->item_levels.size(), 5u);
  EXPECT_EQ(plan->item_levels.front(), (ItemLevel{{3, 2}}));
  EXPECT_EQ(plan->item_levels.back(), (ItemLevel{{1, 0}}));
}

TEST(FlowCubePlanTest, LayeredRejectsInvertedLayers) {
  PathDatabase db = MakePaperDatabase();
  EXPECT_FALSE(FlowCubePlan::Layered(db.schema(), ItemLevel{{3, 2}},
                                     ItemLevel{{1, 0}})
                   .ok());
  EXPECT_FALSE(
      FlowCubePlan::Layered(db.schema(), ItemLevel{{9, 9}}, ItemLevel{{9, 9}})
          .ok());
}

TEST(FlowCubePlanTest, LayeredBuildsOnlyPlannedCuboids) {
  PathDatabase db = MakePaperDatabase();
  FlowCubePlan plan = FlowCubePlan::Layered(db.schema(), ItemLevel{{2, 1}},
                                            ItemLevel{{3, 2}})
                          .value();
  FlowCubeBuilderOptions opts;
  opts.min_support = 2;
  opts.compute_exceptions = false;
  FlowCubeBuilder builder(opts);
  Result<FlowCube> cube = builder.Build(db, plan);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->plan().item_levels.size(), 3u);  // (3,2),(2,2),(2,1)
  // A level outside the plan is not materialized.
  EXPECT_EQ(cube->FindCuboid(ItemLevel{{0, 0}}, 0), nullptr);
  EXPECT_NE(cube->FindCuboid(ItemLevel{{2, 1}}, 0), nullptr);
}

// --- Generated data ----------------------------------------------------------------

TEST(FlowCubeGenerated, BuildsOnSyntheticData) {
  GeneratorConfig cfg;
  cfg.num_dimensions = 2;
  cfg.dim_distinct_per_level = {2, 2, 2};
  cfg.num_sequences = 6;
  cfg.seed = 31;
  PathGenerator gen(cfg);
  PathDatabase db = gen.Generate(500);
  FlowCubePlan plan = FlowCubePlan::Default(db.schema()).value();
  FlowCubeBuilderOptions opts;
  opts.min_support = 25;
  opts.exceptions.min_support = 25;
  FlowCubeBuilder builder(opts);
  FlowCubeBuildStats stats;
  Result<FlowCube> cube = builder.Build(db, plan, &stats);
  ASSERT_TRUE(cube.ok());
  EXPECT_GT(cube->TotalCells(), 10u);
  // Support is monotone along roll-up: every cell's parent has at least the
  // cell's support.
  FlowCubeQuery query(&cube.value());
  cube->ForEachCuboid([&](const Cuboid& cuboid) {
    cuboid.ForEach([&](const FlowCell& cell) {
      for (size_t d = 0; d < cuboid.item_level().levels.size(); ++d) {
        if (cuboid.item_level().levels[d] == 0) continue;
        CellRef ref{&cell, 0, 0};
        // Locate indices for RollUp.
        ref.il_index = static_cast<size_t>(
            cube->plan().FindItemLevel(cuboid.item_level()));
        const Result<CellRef> parent = query.RollUp(ref, d);
        if (parent.ok()) {
          EXPECT_GE(parent->cell->support, cell.support);
        }
      }
    });
  });
}

}  // namespace
}  // namespace flowcube
