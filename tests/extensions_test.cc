// Tests for the substrate extensions: weakly-connected components and
// heterogeneous per-user attention bounds flowing through every algorithm.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "alloc/allocation.h"
#include "alloc/myopic.h"
#include "alloc/tirm.h"
#include "common/rng.h"
#include "graph/components.h"
#include "graph/generators.h"

namespace tirm {
namespace {

// --------------------------------------------------------------- components

TEST(ComponentsTest, SingleComponentOnCycle) {
  ComponentInfo info = WeaklyConnectedComponents(CycleGraph(8));
  EXPECT_EQ(info.num_components, 1u);
  EXPECT_EQ(info.largest_size, 8u);
  EXPECT_DOUBLE_EQ(info.largest_fraction, 1.0);
}

TEST(ComponentsTest, DisconnectedPieces) {
  // Two paths: 0->1->2 and 3->4, plus isolated node 5.
  Graph g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {3, 4}});
  ComponentInfo info = WeaklyConnectedComponents(g);
  EXPECT_EQ(info.num_components, 3u);
  EXPECT_EQ(info.largest_size, 3u);
  EXPECT_EQ(info.component[0], info.component[2]);
  EXPECT_EQ(info.component[3], info.component[4]);
  EXPECT_NE(info.component[0], info.component[3]);
  EXPECT_NE(info.component[5], info.component[0]);
}

TEST(ComponentsTest, DirectionIgnored) {
  // Arcs 0->1 and 2->1: weakly one component despite no directed path 0~2.
  Graph g = Graph::FromEdges(3, {{0, 1}, {2, 1}});
  ComponentInfo info = WeaklyConnectedComponents(g);
  EXPECT_EQ(info.num_components, 1u);
}

TEST(ComponentsTest, EmptyGraph) {
  ComponentInfo info = WeaklyConnectedComponents(Graph());
  EXPECT_EQ(info.num_components, 0u);
  EXPECT_EQ(info.largest_size, 0u);
}

TEST(ComponentsTest, RMatHasDominantComponent) {
  Rng rng(3);
  Graph g = RMatGraph(10, 8000, rng);
  ComponentInfo info = WeaklyConnectedComponents(g);
  // Social-graph stand-ins should be dominated by one giant component
  // among non-isolated nodes.
  EXPECT_GT(info.largest_fraction, 0.5);
}

TEST(ComponentsTest, ForwardReachability) {
  Graph g = PathGraph(5);
  EXPECT_EQ(CountForwardReachable(g, 0), 5u);
  EXPECT_EQ(CountForwardReachable(g, 3), 2u);
  EXPECT_EQ(CountForwardReachable(g, 4), 1u);
}

// ------------------------------------------- heterogeneous attention bounds

class HeterogeneousKappaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = StarGraph(10);
    probs_ = std::make_unique<EdgeProbabilities>(
        EdgeProbabilities::Constant(graph_, 0.3));
    ctps_ = std::make_unique<ClickProbabilities>(
        ClickProbabilities::Constant(10, 3, 1.0));
    ads_.resize(3);
    for (auto& a : ads_) {
      a.gamma = TopicDistribution::Uniform(1);
      a.budget = 4.0;
      a.cpe = 1.0;
    }
    // Hub allows 3 promoted ads; leaves allow only 1.
    bounds_.assign(10, 1);
    bounds_[0] = 3;
  }

  ProblemInstance MakeInstance(double lambda = 0.0) {
    return ProblemInstance(&graph_, probs_.get(), ctps_.get(), ads_, bounds_,
                           lambda);
  }

  Graph graph_;
  std::unique_ptr<EdgeProbabilities> probs_;
  std::unique_ptr<ClickProbabilities> ctps_;
  std::vector<Advertiser> ads_;
  std::vector<std::uint16_t> bounds_;
};

TEST_F(HeterogeneousKappaTest, InstanceExposesPerUserBounds) {
  ProblemInstance inst = MakeInstance();
  ASSERT_TRUE(inst.Validate().ok());
  EXPECT_EQ(inst.AttentionBound(0), 3);
  EXPECT_EQ(inst.AttentionBound(5), 1);
}

TEST_F(HeterogeneousKappaTest, ValidatorEnforcesPerUserBounds) {
  ProblemInstance inst = MakeInstance();
  Allocation a = Allocation::Empty(3);
  a.seeds[0] = {0, 1};
  a.seeds[1] = {0};
  a.seeds[2] = {0};
  EXPECT_TRUE(ValidateAllocation(inst, a).ok());  // hub used 3x: allowed
  a.seeds[0].push_back(2);
  a.seeds[1].push_back(2);  // leaf 2 used twice: violation
  EXPECT_FALSE(ValidateAllocation(inst, a).ok());
}

TEST_F(HeterogeneousKappaTest, MyopicRespectsPerUserBounds) {
  ProblemInstance inst = MakeInstance();
  Allocation a = MyopicAllocate(inst);
  EXPECT_TRUE(ValidateAllocation(inst, a).ok());
  // Hub gets all 3 ads, leaves exactly one.
  auto counts = AssignmentCounts(a, 10);
  EXPECT_EQ(counts[0], 3u);
  for (NodeId u = 1; u < 10; ++u) EXPECT_EQ(counts[u], 1u);
}

TEST_F(HeterogeneousKappaTest, TirmSharesTheHubAcrossAds) {
  ProblemInstance inst = MakeInstance();
  TirmOptions o;
  o.theta.epsilon = 0.2;
  o.theta.theta_min = 8192;
  o.theta.theta_cap = 1 << 16;
  Rng rng(21);
  TirmResult r = RunTirm(inst, o, rng);
  EXPECT_TRUE(ValidateAllocation(inst, r.allocation).ok());
  // sigma({hub}) = 1 + 9*0.3 = 3.7 ~ budget 4: the hub is the best seed for
  // every ad and its bound of 3 lets all of them take it.
  int hub_uses = 0;
  for (const auto& seeds : r.allocation.seeds) {
    for (const NodeId v : seeds) hub_uses += (v == 0);
  }
  EXPECT_EQ(hub_uses, 3);
}

}  // namespace
}  // namespace tirm
