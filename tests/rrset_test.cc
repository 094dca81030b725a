// Unit tests for src/rrset: RR/RRC samplers, collection coverage
// bookkeeping, theta (Eq. 5), KPT estimation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/hashing.h"
#include "common/rng.h"
#include "common/stats.h"
#include "diffusion/exact_spread.h"
#include "graph/generators.h"
#include "rrset/kpt_estimator.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "rrset/theta.h"
#include "tirm_test_util.h"
#include "topic/ctp_model.h"

namespace tirm {
namespace {

// ---------------------------------------------------------------- sampler

TEST(RrSamplerTest, RootAlwaysInPlainSet) {
  Rng graph_rng(1);
  Graph g = ErdosRenyiGraph(30, 90, graph_rng);
  std::vector<float> probs(g.num_edges(), 0.3f);
  RrSampler sampler(g, probs);
  Rng rng(2);
  std::vector<NodeId> set;
  for (int i = 0; i < 200; ++i) {
    const NodeId root = sampler.SampleInto(rng, set);
    EXPECT_FALSE(set.empty());
    EXPECT_EQ(set[0], root);
  }
}

TEST(RrSamplerTest, ZeroProbabilityYieldsSingletons) {
  Graph g = CompleteGraph(10);
  std::vector<float> probs(g.num_edges(), 0.0f);
  RrSampler sampler(g, probs);
  Rng rng(3);
  std::vector<NodeId> set;
  for (int i = 0; i < 50; ++i) {
    sampler.SampleInto(rng, set);
    EXPECT_EQ(set.size(), 1u);
  }
}

TEST(RrSamplerTest, ProbabilityOneYieldsAncestors) {
  Graph g = PathGraph(5);  // 0->1->2->3->4
  std::vector<float> probs(g.num_edges(), 1.0f);
  RrSampler sampler(g, probs);
  Rng rng(4);
  std::vector<NodeId> set;
  sampler.SampleWithRoot(3, rng, set);
  std::set<NodeId> s(set.begin(), set.end());
  EXPECT_EQ(s, (std::set<NodeId>{0, 1, 2, 3}));
}

TEST(RrSamplerTest, NoDuplicateMembers) {
  Rng graph_rng(5);
  Graph g = ErdosRenyiGraph(25, 150, graph_rng);
  std::vector<float> probs(g.num_edges(), 0.6f);
  RrSampler sampler(g, probs);
  Rng rng(6);
  std::vector<NodeId> set;
  for (int i = 0; i < 100; ++i) {
    sampler.SampleInto(rng, set);
    std::set<NodeId> s(set.begin(), set.end());
    EXPECT_EQ(s.size(), set.size());
  }
}

// The RR-set membership probability of node u for random root equals
// sigma_ic({u}) / n — Proposition 1 specialized to singletons.
TEST(RrSamplerTest, SingletonMembershipIsUnbiasedSpreadEstimate) {
  Graph g = PathGraph(3);  // 0->1->2, p=0.5
  std::vector<float> probs(g.num_edges(), 0.5f);
  const double n = 3.0;
  std::vector<NodeId> seed0 = {0};
  const double sigma0 = ExactSpread(g, probs, seed0);  // 1.75
  RrSampler sampler(g, probs);
  Rng rng(7);
  std::vector<NodeId> set;
  const int trials = 60000;
  int hits = 0;
  for (int i = 0; i < trials; ++i) {
    sampler.SampleInto(rng, set);
    for (const NodeId v : set) hits += (v == 0);
  }
  const double estimate = n * static_cast<double>(hits) / trials;
  EXPECT_NEAR(estimate, sigma0, 0.05);
}

TEST(RrSamplerTest, WidthCountsTraversedInDegrees) {
  Graph g = PathGraph(4);
  std::vector<float> probs(g.num_edges(), 1.0f);
  RrSampler sampler(g, probs);
  Rng rng(8);
  std::vector<NodeId> set;
  sampler.SampleWithRoot(3, rng, set);
  // Traversal = {3,2,1,0}; in-degrees 1+1+1+0 = 3.
  EXPECT_EQ(sampler.last_width(), 3u);
}

// ----------------------------------------------------- golden streams
//
// Locks the exact sampling streams (roots, set members, widths) against a
// fixed seed. The expected hashes were captured from the pre-span-CTP
// sampler (the std::function<double(NodeId)> implementation), so these
// tests prove the flat-array CTP refactor changed neither the plain nor
// the RRC stream bit-for-bit — and guard every future sampler touch.

std::uint64_t HashSampleStream(RrSampler& sampler) {
  Rng rng(2015);
  std::vector<NodeId> set;
  std::uint64_t h = kFnvOffsetBasis;
  for (int i = 0; i < 500; ++i) {
    const NodeId root = sampler.SampleInto(rng, set);
    h = HashBytes(h, &root, sizeof(root));
    h = HashBytes(h, set.data(), set.size() * sizeof(NodeId));
    const std::uint64_t w = sampler.last_width();
    h = HashBytes(h, &w, sizeof(w));
  }
  return FinalizeHash(h);
}

struct GoldenFixture {
  GoldenFixture() {
    Rng graph_rng(7);
    graph = RMatGraph(8, 1200, graph_rng);
    probs.resize(graph.num_edges());
    Rng prob_rng(11);
    for (float& p : probs) {
      p = static_cast<float>(prob_rng.UniformReal(0.0, 0.4));
    }
  }
  Graph graph;
  std::vector<float> probs;
};

TEST(RrSamplerGoldenTest, PlainStreamUnchanged) {
  GoldenFixture f;
  RrSampler sampler(f.graph, f.probs);
  EXPECT_EQ(HashSampleStream(sampler), 0xC51BA3CF51920DABULL);
}

TEST(RrSamplerGoldenTest, RrcConstantCtpStreamUnchanged) {
  GoldenFixture f;
  // 0.25 is exactly representable in float, so the old double-callback
  // path and the new float-array path flip identical coins.
  const std::vector<float> ctps(f.graph.num_nodes(), 0.25f);
  RrSampler sampler(f.graph, f.probs, ctps);
  EXPECT_EQ(HashSampleStream(sampler), 0xA8F320CF68176DDDULL);
}

TEST(RrSamplerGoldenTest, RrcTableCtpStreamUnchanged) {
  GoldenFixture f;
  // Production shape: per-node CTPs out of a ClickProbabilities row (the
  // old code wrapped Delta() in a std::function; Row() is the same data).
  Rng ctp_rng(13);
  ClickProbabilities ctps = ClickProbabilities::SampleUniform(
      f.graph.num_nodes(), 2, 0.05, 0.95, ctp_rng);
  RrSampler sampler(f.graph, f.probs, ctps.Row(1));
  EXPECT_EQ(HashSampleStream(sampler), 0x9545FE865CEB71A6ULL);
}

// ------------------------------------------------------------- RRC sets

TEST(RrcSamplerTest, CtpZeroMakesEmptySets) {
  Rng graph_rng(9);
  Graph g = ErdosRenyiGraph(20, 60, graph_rng);
  std::vector<float> probs(g.num_edges(), 0.4f);
  const std::vector<float> ctps(g.num_nodes(), 0.0f);
  RrSampler sampler(g, probs, ctps);
  Rng rng(10);
  std::vector<NodeId> set;
  for (int i = 0; i < 50; ++i) {
    sampler.SampleInto(rng, set);
    EXPECT_TRUE(set.empty());
  }
}

TEST(RrcSamplerTest, CtpOneMatchesPlain) {
  Rng graph_rng(11);
  Graph g = ErdosRenyiGraph(20, 80, graph_rng);
  std::vector<float> probs(g.num_edges(), 0.5f);
  RrSampler plain(g, probs);
  const std::vector<float> ctps(g.num_nodes(), 1.0f);
  RrSampler rrc(g, probs, ctps);
  Rng rng_a(12);
  Rng rng_b(12);
  std::vector<NodeId> set_a;
  std::vector<NodeId> set_b;
  // Same RNG stream; delta=1 consumes extra coins, so compare sizes
  // statistically instead of element-wise.
  RunningStat sa;
  RunningStat sb;
  for (int i = 0; i < 20000; ++i) {
    plain.SampleInto(rng_a, set_a);
    rrc.SampleInto(rng_b, set_b);
    sa.Add(static_cast<double>(set_a.size()));
    sb.Add(static_cast<double>(set_b.size()));
  }
  EXPECT_NEAR(sa.mean(), sb.mean(), 4 * (sa.ci95_halfwidth() + sb.ci95_halfwidth()));
}

// Theorem 5 with S = empty: delta(u)·E[F_R({u})] = E[F_Q({u})] exactly.
TEST(RrcSamplerTest, Theorem5SingletonIdentity) {
  Graph g = PathGraph(3);
  std::vector<float> probs(g.num_edges(), 0.5f);
  const double delta = 0.3;
  RrSampler plain(g, probs);
  const std::vector<float> ctps(g.num_nodes(), static_cast<float>(delta));
  RrSampler rrc(g, probs, ctps);
  Rng rng(13);
  std::vector<NodeId> set;
  const int trials = 80000;
  int plain_hits = 0;
  int rrc_hits = 0;
  for (int i = 0; i < trials; ++i) {
    plain.SampleInto(rng, set);
    for (const NodeId v : set) plain_hits += (v == 0);
    rrc.SampleInto(rng, set);
    for (const NodeId v : set) rrc_hits += (v == 0);
  }
  const double lhs = delta * static_cast<double>(plain_hits) / trials;
  const double rhs = static_cast<double>(rrc_hits) / trials;
  EXPECT_NEAR(lhs, rhs, 0.01);
}

// Lemma 2: n·E[F_Q(S)] = sigma_icctp(S).
TEST(RrcSamplerTest, Lemma2UnbiasedCtpSpread) {
  Graph g = Figure1Gadget();
  std::vector<float> probs(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const NodeId src = g.edge_source(e);
    const NodeId dst = g.edge_target(e);
    probs[e] = dst == 2 ? 0.2f : (src == 2 ? 0.5f : 0.1f);
  }
  const double delta = 0.9;
  std::vector<NodeId> seeds = {0, 1};
  const double exact = ExactSpreadWithCtp(g, probs, seeds,
                                          [delta](NodeId) { return delta; });
  const std::vector<float> ctps(g.num_nodes(), static_cast<float>(delta));
  RrSampler rrc(g, probs, ctps);
  Rng rng(14);
  std::vector<NodeId> set;
  const int trials = 100000;
  int covered = 0;
  for (int i = 0; i < trials; ++i) {
    rrc.SampleInto(rng, set);
    for (const NodeId v : set) {
      if (v == 0 || v == 1) {
        ++covered;
        break;
      }
    }
  }
  const double estimate =
      6.0 * static_cast<double>(covered) / static_cast<double>(trials);
  EXPECT_NEAR(estimate, exact, 0.05);
}

// --------------------------------------------------------------- collection

TEST(RrCollectionTest, CoverageCounts) {
  PooledView<RrCollection> p(5, {{0, 1}, {1, 2}, {1}});
  const RrCollection& c = p.view;
  EXPECT_EQ(c.NumSets(), 3u);
  EXPECT_EQ(c.CoverageOf(0), 1u);
  EXPECT_EQ(c.CoverageOf(1), 3u);
  EXPECT_EQ(c.CoverageOf(2), 1u);
  EXPECT_EQ(c.CoverageOf(4), 0u);
}

TEST(RrCollectionTest, CommitSeedRemovesCoveredSets) {
  PooledView<RrCollection> p(5, {{0, 1}, {1, 2}, {3}});
  RrCollection& c = p.view;
  EXPECT_EQ(c.CommitSeed(1), 2u);
  EXPECT_EQ(c.NumCovered(), 2u);
  EXPECT_EQ(c.CoverageOf(0), 0u);  // its only set is covered
  EXPECT_EQ(c.CoverageOf(2), 0u);
  EXPECT_EQ(c.CoverageOf(3), 1u);
  // Committing again covers nothing new.
  EXPECT_EQ(c.CommitSeed(1), 0u);
}

TEST(RrCollectionTest, CommitSeedOnRangeOnlyTouchesNewSets) {
  // Sets 2 and 3 form a second attach batch.
  const std::unique_ptr<RrSetPool> pool =
      MakePool(4, {{0}, {0, 1}, {0, 2}, {1}});
  RrCollection c(pool.get());
  c.AttachUpTo(2);
  const auto first_new = static_cast<std::uint32_t>(c.NumSets());
  c.AttachUpTo(4);
  EXPECT_EQ(c.CommitSeedOnRange(0, first_new), 1u);  // only set 2
  EXPECT_FALSE(c.IsCovered(0));
  EXPECT_FALSE(c.IsCovered(1));
  EXPECT_TRUE(c.IsCovered(2));
  EXPECT_EQ(c.CoverageOf(1), 2u);  // sets 1 and 3 still uncovered
}

TEST(RrCollectionTest, ArgMaxCoverageRespectsEligibility) {
  PooledView<RrCollection> p(4, {{0}, {0}, {1}});
  const RrCollection& c = p.view;
  EXPECT_EQ(c.ArgMaxCoverage([](NodeId) { return true; }), 0u);
  EXPECT_EQ(c.ArgMaxCoverage([](NodeId v) { return v != 0; }), 1u);
  EXPECT_EQ(c.ArgMaxCoverage([](NodeId) { return false; }), kInvalidNode);
}

TEST(RrCollectionTest, MemoryBytesGrows) {
  std::vector<std::vector<NodeId>> sets;
  for (NodeId i = 0; i < 100; ++i) sets.push_back({i, (i + 1) % 100});
  const std::unique_ptr<RrSetPool> pool = MakePool(100, sets);
  RrCollection c(pool.get());
  const std::size_t before = c.MemoryBytes();
  c.AttachUpTo(100);
  EXPECT_GT(c.MemoryBytes(), before);
}

TEST(CoverageHeapTest, PopsInCoverageOrder) {
  PooledView<RrCollection> p(4, {{0}, {0}, {0}, {1}, {1}, {2}});
  RrCollection& c = p.view;
  CoverageHeap heap(&c);
  auto all = [](NodeId) { return true; };
  EXPECT_EQ(heap.PopBest(all), 0u);
  c.CommitSeed(0);
  EXPECT_EQ(heap.PopBest(all), 1u);
  c.CommitSeed(1);
  EXPECT_EQ(heap.PopBest(all), 2u);
  c.CommitSeed(2);
  EXPECT_EQ(heap.PopBest(all), kInvalidNode);
}

TEST(CoverageHeapTest, LazyRefreshAfterCoverageDrop) {
  PooledView<RrCollection> p(3, {{0, 1}, {0, 1}, {0}});
  RrCollection& c = p.view;
  CoverageHeap heap(&c);
  auto all = [](NodeId) { return true; };
  // Committing 0 drives 1's coverage to zero; heap must notice staleness.
  c.CommitSeed(0);
  EXPECT_EQ(heap.PopBest(all), kInvalidNode);
}

TEST(CoverageHeapTest, EligibilityFilter) {
  PooledView<RrCollection> p(3, {{0}, {0}, {1}});
  CoverageHeap heap(&p.view);
  EXPECT_EQ(heap.PopBest([](NodeId v) { return v != 0; }), 1u);
}

TEST(CoverageHeapTest, RebuildAfterBatchAttach) {
  const std::unique_ptr<RrSetPool> pool = MakePool(3, {{0}, {2}, {2}});
  RrCollection c(pool.get());
  c.AttachUpTo(1);
  CoverageHeap heap(&c);
  auto all = [](NodeId) { return true; };
  EXPECT_EQ(heap.PopBest(all), 0u);
  heap.Push(0, c.CoverageOf(0));
  c.AttachUpTo(3);
  heap.Rebuild();
  EXPECT_EQ(heap.PopBest(all), 2u);
}

// ------------------------------------------------------------------ theta

TEST(ThetaTest, LogNChooseKKnownValues) {
  EXPECT_NEAR(LogNChooseK(5, 2), std::log(10.0), 1e-9);
  EXPECT_NEAR(LogNChooseK(10, 0), 0.0, 1e-12);
  EXPECT_NEAR(LogNChooseK(10, 10), 0.0, 1e-12);
  EXPECT_NEAR(LogNChooseK(52, 5), std::log(2598960.0), 1e-6);
}

TEST(ThetaTest, ThetaDecreasesWithOpt) {
  ThetaParams params;
  params.theta_min = 1;
  const auto t1 = ComputeTheta(1000, 10, 10.0, params);
  const auto t2 = ComputeTheta(1000, 10, 100.0, params);
  EXPECT_GT(t1, t2);
}

TEST(ThetaTest, ThetaIncreasesWithSeedCount) {
  ThetaParams params;
  params.theta_min = 1;
  const auto t1 = ComputeTheta(1000, 5, 50.0, params);
  const auto t2 = ComputeTheta(1000, 50, 50.0, params);
  EXPECT_GT(t2, t1);
}

TEST(ThetaTest, EpsilonShrinksTheta) {
  ThetaParams tight;
  tight.epsilon = 0.1;
  tight.theta_min = 1;
  ThetaParams loose;
  loose.epsilon = 0.4;
  loose.theta_min = 1;
  EXPECT_GT(ComputeTheta(1000, 10, 10.0, tight),
            ComputeTheta(1000, 10, 10.0, loose));
}

TEST(ThetaTest, CapAndFloorApply) {
  ThetaParams params;
  params.theta_cap = 5000;
  params.theta_min = 100;
  EXPECT_EQ(ComputeTheta(100000, 100, 1.0, params), 5000u);
  EXPECT_EQ(ComputeTheta(10, 1, 1e9, params), 100u);
}

// -------------------------------------------------------------------- KPT

TEST(KptEstimatorTest, LowerBoundsOptOnStar) {
  // Star 0->{1..99} with p=1: sigma({0}) = 100, so OPT_1 = 100.
  Graph g = StarGraph(100);
  std::vector<float> probs(g.num_edges(), 1.0f);
  RrSampler sampler(g, probs);
  KptEstimator kpt(&sampler, g.num_edges(), {.ell = 1.0, .max_samples = 1 << 16});
  Rng rng(15);
  const double est = kpt.Estimate(1, rng);
  EXPECT_GE(est, 1.0);
  EXPECT_LE(est, 100.0 * 1.5);  // should not wildly exceed OPT
  EXPECT_GT(kpt.num_sampled(), 0u);
}

TEST(KptEstimatorTest, ReEstimateGrowsWithS) {
  Rng graph_rng(16);
  Graph g = ErdosRenyiGraph(200, 1000, graph_rng);
  std::vector<float> probs(g.num_edges(), 0.1f);
  RrSampler sampler(g, probs);
  KptEstimator kpt(&sampler, g.num_edges(), {.ell = 1.0, .max_samples = 1 << 16});
  Rng rng(17);
  kpt.Estimate(1, rng);
  const double k1 = kpt.ReEstimate(1);
  const double k10 = kpt.ReEstimate(10);
  const double k50 = kpt.ReEstimate(50);
  EXPECT_LE(k1, k10);
  EXPECT_LE(k10, k50);
}

TEST(KptEstimatorTest, AtLeastOne) {
  Graph g = PathGraph(8);
  std::vector<float> probs(g.num_edges(), 0.0f);
  RrSampler sampler(g, probs);
  KptEstimator kpt(&sampler, g.num_edges(), {.ell = 1.0, .max_samples = 4096});
  Rng rng(18);
  EXPECT_GE(kpt.Estimate(1, rng), 1.0);
}

}  // namespace
}  // namespace tirm
