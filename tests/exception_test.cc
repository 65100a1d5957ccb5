#include <gtest/gtest.h>

#include "flowgraph/builder.h"
#include "flowgraph/exception_miner.h"
#include "walk_resolve.h"

namespace flowcube {
namespace {

// A small synthetic world with a planted correlation, echoing the paper's
// example: items that stay long at the factory move to the warehouse much
// more often than the overall population.
//
// Locations: 1 = factory, 2 = warehouse, 3 = store.
constexpr NodeId kFactory = 1;
constexpr NodeId kWarehouse = 2;
constexpr NodeId kStore = 3;

std::vector<Path> PlantedCorrelationPaths() {
  std::vector<Path> paths;
  auto add = [&paths](Duration f_dur, NodeId next, Duration next_dur,
                      int copies) {
    for (int i = 0; i < copies; ++i) {
      Path p;
      p.stages = {Stage{kFactory, f_dur}, Stage{next, next_dur}};
      paths.push_back(p);
    }
  };
  // Short factory stays (duration 1): 90% to store, 10% to warehouse.
  add(1, kStore, 2, 18);
  add(1, kWarehouse, 2, 2);
  // Long factory stays (duration 9): 90% to warehouse, 10% to store.
  add(9, kWarehouse, 2, 18);
  add(9, kStore, 2, 2);
  return paths;
}

class ExceptionMinerTest : public ::testing::Test {
 protected:
  ExceptionMinerTest() : paths_(PlantedCorrelationPaths()) {
    graph_ = BuildFlowGraph(paths_);
    factory_ = graph_.FindChild(FlowGraph::kRoot, kFactory);
    warehouse_ = graph_.FindChild(factory_, kWarehouse);
    store_ = graph_.FindChild(factory_, kStore);
    resolved_ = ResolveByWalk(graph_, paths_);
  }

  std::vector<Path> paths_;
  FlowGraph graph_;
  WalkResolved resolved_;
  FlowNodeId factory_ = 0;
  FlowNodeId warehouse_ = 0;
  FlowNodeId store_ = 0;
};

TEST_F(ExceptionMinerTest, GlobalDistributionIsBalanced) {
  EXPECT_DOUBLE_EQ(graph_.TransitionProbability(factory_, warehouse_), 0.5);
  EXPECT_DOUBLE_EQ(graph_.TransitionProbability(factory_, store_), 0.5);
}

TEST_F(ExceptionMinerTest, FindsPlantedTransitionException) {
  ExceptionMiner miner(ExceptionMinerOptions{/*epsilon=*/0.2,
                                             /*min_support=*/5});
  const std::vector<StageCondition> long_stay = {{factory_, 9}};
  const auto exceptions = miner.Mine(graph_, resolved_.view(), {long_stay});

  // Conditioned on (factory, 9): P(warehouse) = 0.9 vs global 0.5 and
  // P(store) = 0.1 vs 0.5 — both deviate by 0.4 >= epsilon.
  bool warehouse_up = false;
  bool store_down = false;
  for (const FlowException& e : exceptions) {
    if (e.kind != FlowException::Kind::kTransition) continue;
    EXPECT_EQ(e.node, factory_);
    EXPECT_EQ(e.condition_support, 20u);
    if (e.transition_target == warehouse_) {
      EXPECT_NEAR(e.global_probability, 0.5, 1e-9);
      EXPECT_NEAR(e.conditional_probability, 0.9, 1e-9);
      warehouse_up = true;
    }
    if (e.transition_target == store_) {
      EXPECT_NEAR(e.conditional_probability, 0.1, 1e-9);
      store_down = true;
    }
  }
  EXPECT_TRUE(warehouse_up);
  EXPECT_TRUE(store_down);
}

TEST_F(ExceptionMinerTest, EpsilonThresholdSuppressesSmallDeviations) {
  ExceptionMiner miner(ExceptionMinerOptions{/*epsilon=*/0.45,
                                             /*min_support=*/5});
  const std::vector<StageCondition> long_stay = {{factory_, 9}};
  // Deviations are exactly 0.4 < 0.45: nothing may be reported.
  EXPECT_TRUE(miner.Mine(graph_, resolved_.view(), {long_stay}).empty());
}

TEST_F(ExceptionMinerTest, MinSupportSuppressesRareConditions) {
  ExceptionMiner miner(ExceptionMinerOptions{/*epsilon=*/0.2,
                                             /*min_support=*/21});
  const std::vector<StageCondition> long_stay = {{factory_, 9}};
  // Only 20 paths match the condition.
  EXPECT_TRUE(miner.Mine(graph_, resolved_.view(), {long_stay}).empty());
}

TEST_F(ExceptionMinerTest, NonInformativePatternsSkipped) {
  ExceptionMiner miner(ExceptionMinerOptions{0.1, 2});
  // Passage-only condition (duration '*'): implied by reaching the node,
  // deviation would be zero by construction; the miner skips it.
  const std::vector<StageCondition> passage = {{factory_, kAnyDuration}};
  EXPECT_TRUE(miner.Mine(graph_, resolved_.view(), {passage}).empty());
}

TEST(ExceptionMinerDuration, FindsDurationExceptionGivenPreviousDuration) {
  // The paper's second example: the duration at the next location depends
  // on the duration at the previous one.
  std::vector<Path> paths;
  auto add = [&paths](Duration a, Duration b, int copies) {
    for (int i = 0; i < copies; ++i) {
      Path p;
      p.stages = {Stage{kFactory, a}, Stage{kStore, b}};
      paths.push_back(p);
    }
  };
  // Global durations at the store: half 1, half 2. But after a short
  // factory stay the store duration is always 1.
  add(1, 1, 10);
  add(5, 1, 0);
  add(5, 2, 10);
  const FlowGraph g = BuildFlowGraph(paths);
  const FlowNodeId f = g.FindChild(FlowGraph::kRoot, kFactory);
  const FlowNodeId fs = g.FindChild(f, kStore);

  ExceptionMiner miner(ExceptionMinerOptions{0.3, 5});
  const auto exceptions =
      miner.Mine(g, ResolveByWalk(g, paths).view(), {{StageCondition{f, 1}}});
  bool found = false;
  for (const FlowException& e : exceptions) {
    if (e.kind == FlowException::Kind::kDuration && e.node == fs &&
        e.duration_value == 1) {
      EXPECT_NEAR(e.global_probability, 0.5, 1e-9);
      EXPECT_NEAR(e.conditional_probability, 1.0, 1e-9);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ExceptionMinerDuration, ConditionalAbsenceIsAnException) {
  std::vector<Path> paths;
  auto add = [&paths](Duration a, Duration b, int copies) {
    for (int i = 0; i < copies; ++i) {
      Path p;
      p.stages = {Stage{kFactory, a}, Stage{kStore, b}};
      paths.push_back(p);
    }
  };
  add(1, 1, 10);
  add(5, 2, 10);
  const FlowGraph g = BuildFlowGraph(paths);
  const FlowNodeId f = g.FindChild(FlowGraph::kRoot, kFactory);
  const FlowNodeId fs = g.FindChild(f, kStore);

  ExceptionMiner miner(ExceptionMinerOptions{0.4, 5});
  const auto exceptions =
      miner.Mine(g, ResolveByWalk(g, paths).view(), {{StageCondition{f, 1}}});
  // Given (factory,1), store duration 2 has conditional probability 0
  // against a global 0.5.
  bool absence = false;
  for (const FlowException& e : exceptions) {
    if (e.kind == FlowException::Kind::kDuration && e.node == fs &&
        e.duration_value == 2) {
      EXPECT_NEAR(e.conditional_probability, 0.0, 1e-9);
      absence = true;
    }
  }
  EXPECT_TRUE(absence);
}

TEST(ExceptionMinerChains, MultiStageConditionsEvaluate) {
  // Three-stage paths where the pair (factory=1, warehouse=1) makes the
  // final transition deterministic.
  std::vector<Path> paths;
  auto add = [&paths](Duration a, Duration b, NodeId last, int copies) {
    for (int i = 0; i < copies; ++i) {
      Path p;
      p.stages = {Stage{kFactory, a}, Stage{kWarehouse, b}, Stage{last, 1}};
      paths.push_back(p);
    }
  };
  add(1, 1, kStore, 10);
  add(1, 2, kFactory + 10, 10);  // location 11
  add(2, 1, kFactory + 10, 10);
  const FlowGraph g = BuildFlowGraph(paths);
  const FlowNodeId f = g.FindChild(FlowGraph::kRoot, kFactory);
  const FlowNodeId fw = g.FindChild(f, kWarehouse);

  ExceptionMiner miner(ExceptionMinerOptions{0.3, 5});
  const std::vector<StageCondition> chain = {{f, 1}, {fw, 1}};
  const auto exceptions =
      miner.Mine(g, ResolveByWalk(g, paths).view(), {chain});
  bool found = false;
  for (const FlowException& e : exceptions) {
    if (e.kind == FlowException::Kind::kTransition && e.node == fw &&
        e.transition_target == g.FindChild(fw, kStore)) {
      EXPECT_EQ(e.condition_support, 10u);
      EXPECT_NEAR(e.conditional_probability, 1.0, 1e-9);
      EXPECT_NEAR(e.global_probability, 1.0 / 3, 1e-9);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace flowcube
