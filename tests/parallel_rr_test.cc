// Regression tests for the parallel RR-set engine: determinism for a fixed
// (seed, thread count), structural integrity of the sampled parts, split
// invariance (one call over many chunk masters equals one call per master),
// and statistical agreement between parallel and serial sampling — both at
// the raw spread-estimate level (Proposition 1) and end-to-end through TIRM.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "alloc/regret_evaluator.h"
#include "alloc/tirm.h"
#include "common/rng.h"
#include "diffusion/exact_spread.h"
#include "graph/generators.h"
#include "rrset/parallel_rr_builder.h"
#include "rrset/rr_sampler.h"
#include "tirm_test_util.h"
#include "topic/instance.h"

namespace tirm {
namespace {

using Batch = ParallelRrBuilder::Batch;

TEST(ParallelRrBuilderTest, DeterministicForFixedSeedAndThreads) {
  Rng graph_rng(11);
  Graph g = ErdosRenyiGraph(60, 300, graph_rng);
  std::vector<float> probs(g.num_edges(), 0.2f);
  for (const int threads : {1, 2, 4}) {
    ParallelRrBuilder b1(g, probs, {.num_threads = threads,
                                    .min_parallel_batch = 1});
    ParallelRrBuilder b2(g, probs, {.num_threads = threads,
                                    .min_parallel_batch = 1});
    Rng r1(99), r2(99);
    EXPECT_EQ(SetsOf(b1.SampleChunks(500, {&r1, 1})),
              SetsOf(b2.SampleChunks(500, {&r2, 1})))
        << "threads=" << threads;
    // Later calls continue both master streams identically.
    EXPECT_EQ(b1.SampleWidths(123, r1), b2.SampleWidths(123, r2))
        << "threads=" << threads;
    EXPECT_EQ(SetsOf(b1.SampleChunks(123, {&r1, 1})),
              SetsOf(b2.SampleChunks(123, {&r2, 1})))
        << "threads=" << threads;
  }
}

TEST(ParallelRrBuilderTest, PartStructureIsConsistent) {
  Rng graph_rng(12);
  Graph g = ErdosRenyiGraph(40, 200, graph_rng);
  std::vector<float> probs(g.num_edges(), 0.3f);
  ParallelRrBuilder builder(g, probs,
                            {.num_threads = 3, .min_parallel_batch = 1});
  Rng rng(5);
  const std::vector<std::vector<Batch>> chunks =
      builder.SampleChunks(1000, {&rng, 1});
  ASSERT_EQ(chunks.size(), 1u);
  const std::vector<Batch>& parts = chunks[0];
  ASSERT_EQ(parts.size(), 3u);  // one part per thread, sizes within one
  for (const Batch& part : parts) {
    EXPECT_TRUE(part.size() == 333u || part.size() == 334u);
    ASSERT_EQ(part.offsets.size(), part.size() + 1);
    EXPECT_EQ(part.offsets.back(), part.nodes.size());
    EXPECT_TRUE(part.widths.empty());
  }
  const std::vector<std::vector<NodeId>> sets = SetsOf(chunks);
  ASSERT_EQ(sets.size(), 1000u);
  for (const std::vector<NodeId>& set : sets) {
    ASSERT_FALSE(set.empty());  // plain mode: the root is always a member
    const std::set<NodeId> uniq(set.begin(), set.end());
    EXPECT_EQ(uniq.size(), set.size());  // no duplicates within a set
    for (const NodeId v : set) ASSERT_LT(v, g.num_nodes());
  }
  Rng widths_rng(5);
  EXPECT_EQ(builder.SampleWidths(1000, widths_rng).size(), 1000u);
}

TEST(ParallelRrBuilderTest, ThreadCountCappedByBatchSize) {
  Graph g = PathGraph(5);
  std::vector<float> probs(g.num_edges(), 0.5f);
  ParallelRrBuilder builder(g, probs,
                            {.num_threads = 8, .min_parallel_batch = 1});
  Rng rng(1);
  const std::vector<std::vector<Batch>> chunks =
      builder.SampleChunks(3, {&rng, 1});
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].size(), 3u);
  EXPECT_EQ(SetsOf(chunks).size(), 3u);
  EXPECT_TRUE(SetsOf(builder.SampleChunks(0, {&rng, 1})).empty());
  EXPECT_TRUE(builder.SampleChunks(5, {}).empty());  // no masters, no chunks
}

// One fan-out over N masters is N one-master calls on copies of the same
// masters, part for part — the split invariance a store top-up relies on
// when it samples all of its chunks in one call. Covers a chunk size that
// splits into one part per thread and one below min_parallel_batch (one
// part per chunk); a thread reuses its sampler across tasks, so no state
// may leak from one part into the next.
TEST(ParallelRrBuilderTest, ManyMastersEqualOneMasterCallsPartForPart) {
  Rng graph_rng(14);
  Graph g = ErdosRenyiGraph(60, 300, graph_rng);
  std::vector<float> probs(g.num_edges(), 0.2f);
  constexpr std::size_t kChunks = 5;
  for (const int threads : {1, 2, 4}) {
    for (const std::uint64_t count : {300u, 100u}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " count=" << count);
      const ParallelRrBuilder::Options options{.num_threads = threads};
      ParallelRrBuilder together(g, probs, options);
      ParallelRrBuilder apart(g, probs, options);
      std::vector<Rng> masters;
      for (std::size_t c = 0; c < kChunks; ++c) masters.emplace_back(50 + c);
      std::vector<Rng> copies = masters;

      const std::vector<std::vector<Batch>> chunks =
          together.SampleChunks(count, masters);
      ASSERT_EQ(chunks.size(), kChunks);
      const std::size_t parts =
          count < options.min_parallel_batch
              ? 1
              : static_cast<std::size_t>(threads);
      for (std::size_t c = 0; c < kChunks; ++c) {
        const std::vector<std::vector<Batch>> one =
            apart.SampleChunks(count, {&copies[c], 1});
        ASSERT_EQ(one.size(), 1u);
        ASSERT_EQ(chunks[c].size(), parts);
        ASSERT_EQ(one[0].size(), parts);
        for (std::size_t p = 0; p < parts; ++p) {
          EXPECT_EQ(chunks[c][p].offsets, one[0][p].offsets)
              << "chunk " << c << " part " << p;
          EXPECT_EQ(chunks[c][p].nodes, one[0][p].nodes)
              << "chunk " << c << " part " << p;
          EXPECT_EQ(chunks[c][p].max_traversal, one[0][p].max_traversal);
        }
        // Both sides advanced the master by the same forks.
        EXPECT_EQ(masters[c].NextUInt64(), copies[c].NextUInt64());
      }
    }
  }
}

// Proposition 1 (singleton form): n * P[u in R] = sigma({u}). The parallel
// engine must produce the same unbiased estimates as the serial sampler.
TEST(ParallelRrBuilderTest, ParallelSpreadEstimateMatchesSerialAndExact) {
  Graph g = PathGraph(3);  // 0->1->2, p = 0.5
  std::vector<float> probs(g.num_edges(), 0.5f);
  const double n = 3.0;
  const std::vector<NodeId> seed0 = {0};
  const double sigma0 = ExactSpread(g, probs, seed0);  // 1.75

  const int trials = 60000;
  auto estimate_from = [&](const std::vector<std::vector<NodeId>>& sets) {
    int hits = 0;
    for (const std::vector<NodeId>& set : sets) {
      for (const NodeId v : set) hits += (v == 0);
    }
    return n * static_cast<double>(hits) / static_cast<double>(sets.size());
  };

  ParallelRrBuilder parallel(g, probs,
                             {.num_threads = 4, .min_parallel_batch = 1});
  Rng prng(7);
  const double parallel_estimate =
      estimate_from(SetsOf(parallel.SampleChunks(trials, {&prng, 1})));
  EXPECT_NEAR(parallel_estimate, sigma0, 0.05);

  RrSampler serial(g, probs);
  Rng srng(7);
  std::vector<NodeId> set;
  int serial_hits = 0;
  for (int i = 0; i < trials; ++i) {
    serial.SampleInto(srng, set);
    for (const NodeId v : set) serial_hits += (v == 0);
  }
  const double serial_estimate =
      n * static_cast<double>(serial_hits) / trials;
  EXPECT_NEAR(parallel_estimate, serial_estimate, 0.1);
}

TEST(ParallelRrBuilderTest, RrcModeAppliesCtpCoins) {
  Rng graph_rng(13);
  Graph g = ErdosRenyiGraph(30, 120, graph_rng);
  std::vector<float> probs(g.num_edges(), 0.4f);
  const std::vector<float> ctps(g.num_nodes(), 0.0f);
  ParallelRrBuilder builder(g, probs, ctps,
                            {.num_threads = 2, .min_parallel_batch = 1});
  Rng rng(3);
  const std::vector<std::vector<Batch>> chunks =
      builder.SampleChunks(200, {&rng, 1});
  std::size_t sets = 0;
  for (const Batch& part : chunks[0]) {
    sets += part.size();
    EXPECT_TRUE(part.nodes.empty());  // delta = 0 blocks every membership coin
  }
  EXPECT_EQ(sets, 200u);
}

// ----------------------------------------------------- TIRM end-to-end
// TestInstance / MakeRMatInstance / FastOptions live in tirm_test_util.h.

TEST(ParallelTirmTest, DeterministicForFixedThreadCount) {
  TestInstance s = MakeRMatInstance(2, 30.0);
  ProblemInstance inst = s.Make(1, 0.0);
  Rng rng_a(42), rng_b(42);
  const TirmResult a = RunTirm(inst, FastOptions(4), rng_a);
  const TirmResult b = RunTirm(inst, FastOptions(4), rng_b);
  ASSERT_EQ(a.allocation.seeds.size(), b.allocation.seeds.size());
  for (std::size_t j = 0; j < a.allocation.seeds.size(); ++j) {
    EXPECT_EQ(a.allocation.seeds[j], b.allocation.seeds[j]);
  }
  for (std::size_t j = 0; j < a.estimated_revenue.size(); ++j) {
    EXPECT_DOUBLE_EQ(a.estimated_revenue[j], b.estimated_revenue[j]);
  }
}

TEST(ParallelTirmTest, ParallelAgreesWithSerialWithinTolerance) {
  // Budget 100 keeps the regret-drop decision far from the knife edge at
  // sigma(hub)/2 (~30 on this graph), where serial and parallel runs could
  // legitimately branch to different allocations on sampling noise alone.
  TestInstance s = MakeRMatInstance(2, 100.0);
  ProblemInstance inst = s.Make(1, 0.0);
  Rng rng_serial(42), rng_parallel(42);
  const TirmResult serial = RunTirm(inst, FastOptions(1), rng_serial);
  const TirmResult parallel = RunTirm(inst, FastOptions(4), rng_parallel);
  ASSERT_GT(serial.allocation.TotalSeeds(), 0u);
  ASSERT_GT(parallel.allocation.TotalSeeds(), 0u);

  // Parallel and serial runs draw different (equally valid) RR samples, so
  // near the budget boundary they may commit a different number of seeds.
  // The statistically meaningful comparison is the ground-truth quality of
  // the two allocations: Monte-Carlo revenue and regret under the *same*
  // evaluator stream must agree within sampling tolerance.
  RegretEvaluator evaluator(&inst, {.num_sims = 2000});
  Rng eval_a(777), eval_b(777);
  const RegretReport serial_report =
      evaluator.Evaluate(serial.allocation, eval_a);
  const RegretReport parallel_report =
      evaluator.Evaluate(parallel.allocation, eval_b);
  ASSERT_GT(serial_report.total_revenue, 0.0);
  ASSERT_GT(parallel_report.total_revenue, 0.0);
  EXPECT_NEAR(parallel_report.total_revenue / serial_report.total_revenue,
              1.0, 0.15);
  // Both allocations should leave a comparable fraction of the total
  // budget as regret (identical instances, same budgets).
  EXPECT_NEAR(parallel_report.RegretFractionOfBudget(),
              serial_report.RegretFractionOfBudget(), 0.10);
}

}  // namespace
}  // namespace tirm
