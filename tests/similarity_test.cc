#include <gtest/gtest.h>

#include "common/random.h"
#include "flowgraph/builder.h"
#include "flowgraph/similarity.h"
#include "gen/paper_example.h"

namespace flowcube {
namespace {

std::vector<Path> MakePaths(
    const std::vector<std::pair<std::vector<NodeId>, Duration>>& specs,
    const std::vector<int>& copies) {
  std::vector<Path> out;
  for (size_t i = 0; i < specs.size(); ++i) {
    Path p;
    for (NodeId loc : specs[i].first) {
      p.stages.push_back(Stage{loc, specs[i].second});
    }
    for (int c = 0; c < copies[i]; ++c) out.push_back(p);
  }
  return out;
}

TEST(Similarity, IdenticalGraphsHaveZeroDistance) {
  const auto paths = MakePaths({{{1, 2}, 1}, {{1, 3}, 2}}, {3, 5});
  const FlowGraph a = BuildFlowGraph(paths);
  const FlowGraph b = BuildFlowGraph(paths);
  EXPECT_DOUBLE_EQ(FlowGraphDistance(a, b), 0.0);
  SimilarityOptions kl;
  kl.kind = DivergenceKind::kKullbackLeibler;
  EXPECT_NEAR(FlowGraphDistance(a, b, kl), 0.0, 1e-9);
}

TEST(Similarity, ScaledCopiesAreIdentical) {
  // Distributions are count ratios: doubling every path leaves them equal.
  const auto small = MakePaths({{{1, 2}, 1}, {{1, 3}, 2}}, {3, 5});
  const auto big = MakePaths({{{1, 2}, 1}, {{1, 3}, 2}}, {6, 10});
  EXPECT_NEAR(
      FlowGraphDistance(BuildFlowGraph(small), BuildFlowGraph(big)), 0.0,
      1e-12);
}

TEST(Similarity, DisjointGraphsAreMaximallyDistant) {
  const auto a = MakePaths({{{1, 2}, 1}}, {4});
  const auto b = MakePaths({{{7, 8}, 1}}, {4});
  EXPECT_NEAR(FlowGraphDistance(BuildFlowGraph(a), BuildFlowGraph(b)), 1.0,
              1e-9);
}

TEST(Similarity, EmptyGraphConventions) {
  FlowGraph empty;
  const FlowGraph some = BuildFlowGraph(MakePaths({{{1}, 1}}, {2}));
  EXPECT_DOUBLE_EQ(FlowGraphDistance(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(FlowGraphDistance(empty, some), 1.0);
}

// Random paths over a small location and duration alphabet, so that two
// draws overlap in some branches, differ in others, and insert shared
// children in different orders.
std::vector<Path> RandomPaths(Random* rng) {
  std::vector<Path> out(1 + rng->Uniform(30));
  for (Path& p : out) {
    for (size_t len = 1 + rng->Uniform(4); len > 0; --len) {
      p.stages.push_back(Stage{static_cast<NodeId>(1 + rng->Uniform(5)),
                               static_cast<Duration>(1 + rng->Uniform(4))});
    }
  }
  return out;
}

TEST(Similarity, DistanceIsSymmetric) {
  // Bitwise: redundancy flags compare distances against tau, so (a, b) and
  // (b, a) must not differ even in the last bit.
  SimilarityOptions kl;
  kl.kind = DivergenceKind::kKullbackLeibler;
  Random rng(29);
  for (int round = 0; round < 300; ++round) {
    const FlowGraph a = BuildFlowGraph(RandomPaths(&rng));
    const FlowGraph b = BuildFlowGraph(RandomPaths(&rng));
    EXPECT_EQ(FlowGraphDistance(a, b), FlowGraphDistance(b, a))
        << "round " << round;
    EXPECT_EQ(FlowGraphDistance(a, b, kl), FlowGraphDistance(b, a, kl))
        << "round " << round;
  }
}

TEST(Similarity, GrowsWithTransitionShift) {
  // Fix the structure, shift the transition mix progressively.
  auto make = [](int to2, int to3) {
    return BuildFlowGraph(
        MakePaths({{{1, 2}, 1}, {{1, 3}, 1}}, {to2, to3}));
  };
  const FlowGraph base = make(5, 5);
  const double d1 = FlowGraphDistance(base, make(6, 4));
  const double d2 = FlowGraphDistance(base, make(8, 2));
  const double d3 = FlowGraphDistance(base, make(10, 0));
  EXPECT_LT(d1, d2);
  EXPECT_LT(d2, d3);
  EXPECT_GT(d1, 0.0);
}

TEST(Similarity, GrowsWithDurationShift) {
  auto make = [](int dur1, int dur9) {
    std::vector<Path> paths;
    for (int i = 0; i < dur1; ++i) {
      Path p;
      p.stages = {Stage{1, 1}};
      paths.push_back(p);
    }
    for (int i = 0; i < dur9; ++i) {
      Path p;
      p.stages = {Stage{1, 9}};
      paths.push_back(p);
    }
    return BuildFlowGraph(paths);
  };
  const FlowGraph base = make(5, 5);
  EXPECT_LT(FlowGraphDistance(base, make(6, 4)),
            FlowGraphDistance(base, make(9, 1)));
}

TEST(Similarity, DeepDifferencesWeighLessThanShallowOnes) {
  // The divergence is weighted by reach probability: disagreeing on a node
  // most paths visit matters more than disagreeing on a rare branch.
  auto make = [](int rare_branch_loc) {
    std::vector<Path> paths = MakePaths({{{1, 2}, 1}}, {9});
    Path rare;
    rare.stages = {Stage{1, 1},
                   Stage{static_cast<NodeId>(rare_branch_loc), 1}};
    paths.push_back(rare);
    return BuildFlowGraph(paths);
  };
  const FlowGraph a = make(5);
  const FlowGraph b = make(6);  // differs only on the 10% branch
  auto shallow = [](int first_loc) {
    return BuildFlowGraph(MakePaths({{{static_cast<NodeId>(first_loc), 2},
                                      1}},
                                    {10}));
  };
  const double rare_diff = FlowGraphDistance(a, b);
  const double shallow_diff = FlowGraphDistance(shallow(1), shallow(9));
  EXPECT_LT(rare_diff, shallow_diff);
  EXPECT_GT(rare_diff, 0.0);
}

TEST(Similarity, KlIsMoreSensitiveThanJsToDisjointSupport) {
  const auto pa = MakePaths({{{1, 2}, 1}}, {10});
  const auto pb = MakePaths({{{1, 2}, 5}}, {10});  // same shape, other durs
  const FlowGraph a = BuildFlowGraph(pa);
  const FlowGraph b = BuildFlowGraph(pb);
  SimilarityOptions kl;
  kl.kind = DivergenceKind::kKullbackLeibler;
  EXPECT_GT(FlowGraphDistance(a, b, kl), FlowGraphDistance(a, b));
}

TEST(Similarity, PaperCellsProductComparison) {
  // (shoes, nike) vs (outerwear, nike) from Table 2 share the factory
  // start but diverge after it; the distance must be strictly between 0
  // and 1.
  PathDatabase db = MakePaperDatabase();
  std::vector<Path> shoes = {db.record(0).path, db.record(1).path,
                             db.record(2).path};
  std::vector<Path> outerwear = {db.record(3).path, db.record(4).path,
                                 db.record(5).path};
  const double d = FlowGraphDistance(BuildFlowGraph(shoes),
                                     BuildFlowGraph(outerwear));
  EXPECT_GT(d, 0.1);
  EXPECT_LT(d, 1.0);
}

}  // namespace
}  // namespace flowcube
