// Tests for the CTP-aware survival-weighted RR collection
// (rrset/weighted_rr_collection.h) and the TIRM variant built on it.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/regret_evaluator.h"
#include "alloc/tirm.h"
#include "common/rng.h"
#include "datasets/dataset.h"
#include "graph/generators.h"
#include "rrset/rr_collection.h"
#include "rrset/weighted_rr_collection.h"
#include "tirm_test_util.h"

namespace tirm {
namespace {

using WeightedView = PooledView<WeightedRrCollection>;

TEST(WeightedRrCollectionTest, InitialCoverageCountsSets) {
  WeightedView p(4, {{0, 1}, {1, 2}});
  const WeightedRrCollection& c = p.view;
  EXPECT_DOUBLE_EQ(c.CoverageOf(0), 1.0);
  EXPECT_DOUBLE_EQ(c.CoverageOf(1), 2.0);
  EXPECT_DOUBLE_EQ(c.CoverageOf(3), 0.0);
  EXPECT_DOUBLE_EQ(c.CoveredMass(), 0.0);
}

TEST(WeightedRrCollectionTest, CommitDiscountsBySurvival) {
  WeightedView p(3, {{0, 1}, {0, 2}});
  WeightedRrCollection& c = p.view;
  // Commit node 0 with delta = 0.25: both sets keep survival 0.75.
  const double covered = c.CommitSeed(0, 0.25);
  EXPECT_DOUBLE_EQ(covered, 2.0);  // coverage mass before the discount
  EXPECT_NEAR(c.Survival(0), 0.75, 1e-6);
  EXPECT_NEAR(c.Survival(1), 0.75, 1e-6);
  EXPECT_NEAR(c.CoverageOf(1), 0.75, 1e-6);
  EXPECT_NEAR(c.CoverageOf(2), 0.75, 1e-6);
  EXPECT_NEAR(c.CoveredMass(), 0.5, 1e-6);  // 2 sets x 0.25 mass each
}

TEST(WeightedRrCollectionTest, RepeatCommitsCompoundSurvival) {
  WeightedView p(3, {{0, 1, 2}});
  WeightedRrCollection& c = p.view;
  c.CommitSeed(0, 0.5);
  c.CommitSeed(1, 0.5);
  // survival = (1-0.5)^2 = 0.25.
  EXPECT_NEAR(c.Survival(0), 0.25, 1e-6);
  EXPECT_NEAR(c.CoverageOf(2), 0.25, 1e-6);
}

TEST(WeightedRrCollectionTest, DeltaOneReproducesRemovalSemantics) {
  const std::unique_ptr<RrSetPool> pool =
      MakePool(4, {{0, 1}, {1, 2}, {1}, {3}, {0, 3}});
  WeightedRrCollection weighted(pool.get());
  RrCollection removal(pool.get());
  weighted.AttachUpTo(5);
  removal.AttachUpTo(5);
  const double wc = weighted.CommitSeed(1, 1.0);
  const std::uint32_t rc = removal.CommitSeed(1);
  EXPECT_DOUBLE_EQ(wc, static_cast<double>(rc));
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_NEAR(weighted.CoverageOf(v),
                static_cast<double>(removal.CoverageOf(v)), 1e-9)
        << "node " << v;
  }
  EXPECT_NEAR(weighted.CoveredMass(),
              static_cast<double>(removal.NumCovered()), 1e-9);
}

TEST(WeightedRrCollectionTest, MarginalRevenueOfSecondSeedBarelyDiscounted) {
  // Two seeds sharing every set: with delta = 0.02 the second seed keeps
  // ~98% of its coverage mass — the core fix over removal semantics, which
  // would leave it 0.
  WeightedView p(2, std::vector<std::vector<NodeId>>(100, {0, 1}));
  WeightedRrCollection& c = p.view;
  c.CommitSeed(0, 0.02);
  EXPECT_NEAR(c.CoverageOf(1), 98.0, 1e-3);
}

TEST(WeightedRrCollectionTest, CommitOnRangeOnlyNewSets) {
  const std::unique_ptr<RrSetPool> pool = MakePool(2, {{0}, {0}});
  WeightedRrCollection c(pool.get());
  c.AttachUpTo(1);  // set 0
  const auto first_new = static_cast<std::uint32_t>(c.NumSets());
  c.AttachUpTo(2);  // set 1
  const double covered = c.CommitSeedOnRange(0, 0.5, first_new);
  EXPECT_DOUBLE_EQ(covered, 1.0);          // only set 1 counted
  EXPECT_NEAR(c.Survival(0), 1.0, 1e-9);   // untouched
  EXPECT_NEAR(c.Survival(1), 0.5, 1e-9);
}

TEST(WeightedRrCollectionTest, ArgMaxCoverageEligibility) {
  WeightedView p(3, {{0}, {0}, {1}});
  const WeightedRrCollection& c = p.view;
  EXPECT_EQ(c.ArgMaxCoverage([](NodeId) { return true; }), 0u);
  EXPECT_EQ(c.ArgMaxCoverage([](NodeId v) { return v != 0; }), 1u);
  EXPECT_EQ(c.ArgMaxCoverage([](NodeId) { return false; }), kInvalidNode);
}

TEST(WeightedRrCollectionTest, MemoryBytesGrow) {
  const std::unique_ptr<RrSetPool> pool =
      MakePool(10, std::vector<std::vector<NodeId>>(64, {0, 1, 2}));
  WeightedRrCollection c(pool.get());
  const auto before = c.MemoryBytes();
  c.AttachUpTo(64);
  EXPECT_GT(c.MemoryBytes(), before);
}

// ------------------------------------------- TIRM with CTP-aware coverage

class CtpAwareTirmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2015);
    built_ = BuildDataset(FlixsterLike(0.01), rng);
  }

  TirmOptions Options(bool weighted) {
    TirmOptions o;
    o.theta.epsilon = 0.2;
    o.theta.theta_cap = 1 << 17;
    o.ctp_aware_coverage = weighted;
    return o;
  }

  BuiltInstance built_;
};

TEST_F(CtpAwareTirmTest, InternalEstimateMatchesMcTruth) {
  ProblemInstance inst = built_.MakeInstance(3, 0.0);
  Rng rng(7);
  TirmResult r = RunTirm(inst, Options(true), rng);
  RegretEvaluator ev(&inst, {.num_sims = 4000});
  Rng eval_rng(8);
  RegretReport report = ev.Evaluate(r.allocation, eval_rng);
  for (int i = 0; i < inst.num_ads(); ++i) {
    const double internal = r.estimated_revenue[static_cast<std::size_t>(i)];
    const double mc = report.ads[static_cast<std::size_t>(i)].revenue;
    // Unbiased estimator: within 25% (sampling noise at capped theta).
    EXPECT_NEAR(internal, mc, 0.25 * mc + 0.5) << "ad " << i;
  }
}

TEST_F(CtpAwareTirmTest, ReducesRegretVsRemovalSemantics) {
  ProblemInstance inst = built_.MakeInstance(3, 0.0);
  Rng a(7);
  Rng b(7);
  TirmResult removal = RunTirm(inst, Options(false), a);
  TirmResult weighted = RunTirm(inst, Options(true), b);
  RegretEvaluator ev(&inst, {.num_sims = 4000});
  Rng e1(9);
  Rng e2(9);
  const double regret_removal = ev.Evaluate(removal.allocation, e1).total_regret;
  const double regret_weighted =
      ev.Evaluate(weighted.allocation, e2).total_regret;
  EXPECT_LT(regret_weighted, regret_removal);
}

TEST_F(CtpAwareTirmTest, StillValidAndDeterministic) {
  ProblemInstance inst = built_.MakeInstance(2, 0.1);
  Rng a(11);
  Rng b(11);
  TirmResult r1 = RunTirm(inst, Options(true), a);
  TirmResult r2 = RunTirm(inst, Options(true), b);
  EXPECT_TRUE(ValidateAllocation(inst, r1.allocation).ok());
  EXPECT_EQ(r1.allocation.seeds, r2.allocation.seeds);
}

TEST_F(CtpAwareTirmTest, EquivalentToRemovalWhenCtpIsOne) {
  // With delta = 1 everywhere the weighted semantics degenerate to removal,
  // so both modes must produce identical allocations.
  Rng rng(500);
  Graph g = RMatGraph(8, 1200, rng);
  auto probs = std::make_unique<EdgeProbabilities>(
      EdgeProbabilities::WeightedCascade(g));
  auto ctps = std::make_unique<ClickProbabilities>(
      ClickProbabilities::Constant(g.num_nodes(), 2, 1.0));
  std::vector<Advertiser> ads(2);
  for (auto& a : ads) {
    a.gamma = TopicDistribution::Uniform(1);
    a.budget = 20.0;
    a.cpe = 1.0;
  }
  ProblemInstance inst = ProblemInstance::WithUniformAttention(
      &g, probs.get(), ctps.get(), ads, 1, 0.0);
  Rng a(13);
  Rng b(13);
  TirmResult removal = RunTirm(inst, Options(false), a);
  TirmResult weighted = RunTirm(inst, Options(true), b);
  EXPECT_EQ(removal.allocation.seeds, weighted.allocation.seeds);
}

}  // namespace
}  // namespace tirm
