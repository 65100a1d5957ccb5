#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

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

TEST(Similarity, ExceedsAgreesWithTheDistance) {
  // The verdict must equal the full distance's comparison for every tau,
  // including tau at the distance and one ulp to either side of it, where
  // no bound can decide and the walk must finish. Half the pairs share
  // most of their paths, so small distances (and early "within" stops)
  // occur too.
  SimilarityOptions kl;
  kl.kind = DivergenceKind::kKullbackLeibler;
  Random rng(31);
  size_t exceeded = 0;
  size_t within = 0;
  for (int round = 0; round < 300; ++round) {
    std::vector<Path> pa = RandomPaths(&rng);
    std::vector<Path> pb = RandomPaths(&rng);
    if (round % 2 == 1) {
      pb.resize(std::min<size_t>(pb.size(), 3));
      pb.insert(pb.end(), pa.begin(), pa.end());
    }
    const FlowGraph a = BuildFlowGraph(pa);
    const FlowGraph b = BuildFlowGraph(pb);
    for (const SimilarityOptions& o : {SimilarityOptions{}, kl}) {
      const double d = FlowGraphDistance(a, b, o);
      for (const double tau : {0.0, d, std::nextafter(d, 0.0),
                               std::nextafter(d, 2.0), 0.05, 1.0}) {
        const bool want = d > tau;
        EXPECT_EQ(FlowGraphDistanceExceeds(a, b, tau, o), want)
            << "round " << round << " tau " << tau << " d " << d;
        EXPECT_EQ(FlowGraphDistanceExceeds(b, a, tau, o), want)
            << "round " << round << " tau " << tau << " d " << d;
        (want ? exceeded : within)++;
      }
    }
  }
  EXPECT_GT(exceeded, 0u);
  EXPECT_GT(within, 0u);
}

// A graph over records of the paper's Table 1, numbered from 1.
FlowGraph PaperCell(const PathDatabase& db, const std::vector<int>& records) {
  std::vector<Path> paths;
  for (int r : records) {
    paths.push_back(db.record(static_cast<size_t>(r - 1)).path);
  }
  return BuildFlowGraph(paths);
}

TEST(Similarity, DistanceBitsArePinned) {
  // The exact bits of the distance, Jensen-Shannon then KL, for Table 1
  // cells against their parents (member records listed) and seeded random
  // pairs. Any change to the walk's summation order or per-element
  // arithmetic moves some of them, and with them redundancy flags near tau
  // and kSimilarity bodies; tolerance-based checks would not notice.
  struct Pinned {
    uint64_t js;
    uint64_t kl;
  };
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> table1 =
      {
          {{1, 2}, {1, 2, 3}},        // (tennis, nike) / (shoes, nike)
          {{1, 2}, {1, 2, 7, 8}},     // (tennis, premium) / (tennis, *)
          {{7, 8}, {1, 2, 7, 8}},     // (tennis, value) / (tennis, *)
          {{7, 8}, {1, 2, 3, 7, 8}},  // (shoes, adidas) / (shoes, *)
          {{3}, {1, 2, 3}},           // (sandals, nike) / (shoes, nike)
          {{4}, {4, 5, 6}},           // (shirt, nike) / (outerwear, nike)
          {{5, 6}, {4, 5, 6}},        // (jacket, nike) / (outerwear, nike)
          {{1, 2, 7, 8}, {1, 2, 3, 7, 8}},     // (tennis, *) / (shoes, *)
          {{1, 2, 3}, {1, 2, 3, 4, 5, 6}},     // (shoes, nike) / (*, nike)
          {{4, 5, 6}, {1, 2, 3, 4, 5, 6}},     // (outerwear, nike) / (*, nike)
          {{1, 2, 3, 7, 8}, {1, 2, 3, 4, 5, 6, 7, 8}},  // (shoes, *) / apex
          {{4, 5, 6}, {1, 2, 3, 4, 5, 6, 7, 8}},  // (outerwear, *) / apex
          {{7, 8}, {1, 2, 3, 4, 5, 6, 7, 8}},     // (*, value) / apex
          {{1, 2, 3, 4, 5, 6}, {1, 2, 3, 4, 5, 6, 7, 8}},  // (*, premium)
      };
  const std::vector<Pinned> want = {
      {0x3fa20e5eee818ddf, 0x3fd7f1d9f5b77835},
      {0x3fb776f28f786db1, 0x3ff00ede363ccd19},
      {0x3fc01cc01f1a917a, 0x3ff83e0845988d5c},
      {0x3fc4e3b33ea7398c, 0x3fff0fcf6300f25e},
      {0x3fbbbbfa6dc63f20, 0x3ff2ba8cb2729f8f},
      {0x3fb9ce939262efd1, 0x3ff3a04ee504b2d8},
      {0x3f98e9d657238079, 0x3fcdbf1994df8f54},
      {0x3f8e5b1526ed1e9f, 0x3fbf746aabc7f46f},
      {0x3fb470e026dc77e5, 0x3fefcf9a26975cde},
      {0x3fbb1bc070358388, 0x3ff56b3bcd1b93f7},
      {0x3fae9da266328de8, 0x3fe797f5317f59f0},
      {0x3fc37e8c9aa0f638, 0x3ffe1d56e8a2482f},
      {0x3fcb8e210f49ebfa, 0x40047b81d8499dae},
      {0x3fa6110bd6bad0fd, 0x3fdc9b9463a1abc5},
      // Random pairs, seed 4404.
      {0x3fe01249387900a0, 0x40180bdc4ec0cc01},
      {0x3fdd3eab9f0d9a05, 0x40174a5adca66bef},
      {0x3fd769e972314d9c, 0x4012cfaa6d3f82dd},
      {0x3fdbe26c38ea2de8, 0x40167ef3edf4ca1f},
      {0x3fe28bbe526a2f66, 0x401ba926506b1b9a},
      {0x3fe45ef9ca3ad7d0, 0x401e612b3dd8279e},
      {0x3fe4b81e64f8fff2, 0x4020ea0dc53ac52d},
      {0x3ff0000000000000, 0x402aeaa1f5d81e71},
      {0x3fdca5d908a062a9, 0x401474218cc2dc2f},
      {0x3fe11ce65c5bfade, 0x401a722897b5b81e},
      {0x3fe0384e45600414, 0x401a7d1ea98565ae},
      {0x3fde07359a1c5cd2, 0x4017c61c6ca05849},
  };
  std::vector<std::pair<FlowGraph, FlowGraph>> pairs;
  const PathDatabase db = MakePaperDatabase();
  for (const auto& [cell, parent] : table1) {
    pairs.emplace_back(PaperCell(db, cell), PaperCell(db, parent));
  }
  Random rng(4404);
  while (pairs.size() < want.size()) {
    FlowGraph a = BuildFlowGraph(RandomPaths(&rng));
    pairs.emplace_back(std::move(a), BuildFlowGraph(RandomPaths(&rng)));
  }
  SimilarityOptions kl;
  kl.kind = DivergenceKind::kKullbackLeibler;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto& [a, b] = pairs[i];
    for (const auto& [x, y] : {std::pair(&a, &b), std::pair(&b, &a)}) {
      EXPECT_EQ(std::bit_cast<uint64_t>(FlowGraphDistance(*x, *y)),
                want[i].js)
          << "pair " << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(FlowGraphDistance(*x, *y, kl)),
                want[i].kl)
          << "pair " << i;
    }
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
