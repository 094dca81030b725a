// Regression tests for the parallel RR-set engine: the sampled sets are
// the same at every thread count (the fixed part layout), structural
// integrity of the sampled parts, split invariance (one call over many
// chunk masters equals one call per master), statistical agreement between
// parallel and serial sampling at the raw spread-estimate level
// (Proposition 1), and the same TIRM allocation at every thread count.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

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

constexpr int kThreadCounts[] = {1, 2, 3, 4, 8};

// The sets, the widths and the masters' advancement are the same at every
// thread count: against a one-thread reference, a chunk that splits (500
// sets), a widths call and a chunk below the split (123 sets).
TEST(ParallelRrBuilderTest, SameSetsAtEveryThreadCount) {
  Rng graph_rng(11);
  Graph g = ErdosRenyiGraph(60, 300, graph_rng);
  std::vector<float> probs(g.num_edges(), 0.2f);
  ParallelRrBuilder reference(g, probs);
  Rng ref_rng(99);
  const std::vector<std::vector<NodeId>> ref_split =
      SetsOf(reference.SampleChunks(500, {&ref_rng, 1}, 1));
  const std::vector<std::uint64_t> ref_widths =
      reference.SampleWidths(123, ref_rng, 1);
  const std::vector<std::vector<NodeId>> ref_small =
      SetsOf(reference.SampleChunks(123, {&ref_rng, 1}, 1));
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ParallelRrBuilder builder(g, probs);
    Rng rng(99);
    EXPECT_EQ(SetsOf(builder.SampleChunks(500, {&rng, 1}, threads)),
              ref_split);
    // Later calls continue the master stream identically.
    EXPECT_EQ(builder.SampleWidths(123, rng, threads), ref_widths);
    EXPECT_EQ(SetsOf(builder.SampleChunks(123, {&rng, 1}, threads)),
              ref_small);
  }
}

// Every thread count gets the fixed layout: a chunk of at least
// kMinSplitChunkSets sets splits into kChunkParts parts with quotas within
// one, a smaller chunk is one part.
TEST(ParallelRrBuilderTest, PartStructureIsConsistent) {
  Rng graph_rng(12);
  Graph g = ErdosRenyiGraph(40, 200, graph_rng);
  std::vector<float> probs(g.num_edges(), 0.3f);
  static_assert(ParallelRrBuilder::kChunkParts == 4);
  static_assert(ParallelRrBuilder::kMinSplitChunkSets == 256);
  EXPECT_EQ(ParallelRrBuilder::PartsPerChunk(255), 1u);
  EXPECT_EQ(ParallelRrBuilder::PartsPerChunk(256), 4u);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ParallelRrBuilder builder(g, probs);
    Rng rng(5);
    const std::vector<std::vector<Batch>> chunks =
        builder.SampleChunks(1002, {&rng, 1}, threads);
    ASSERT_EQ(chunks.size(), 1u);
    const std::vector<Batch>& parts = chunks[0];
    ASSERT_EQ(parts.size(), 4u);
    for (std::size_t p = 0; p < parts.size(); ++p) {
      const Batch& part = parts[p];
      EXPECT_EQ(part.size(), p < 2 ? 251u : 250u);  // 1002 = 4 * 250 + 2
      ASSERT_EQ(part.offsets.size(), part.size() + 1);
      EXPECT_EQ(part.offsets.back(), part.nodes.size());
      EXPECT_TRUE(part.widths.empty());
    }
    const std::vector<std::vector<NodeId>> sets = SetsOf(chunks);
    ASSERT_EQ(sets.size(), 1002u);
    for (const std::vector<NodeId>& set : sets) {
      ASSERT_FALSE(set.empty());  // plain mode: the root is always a member
      const std::set<NodeId> uniq(set.begin(), set.end());
      EXPECT_EQ(uniq.size(), set.size());  // no duplicates within a set
      for (const NodeId v : set) ASSERT_LT(v, g.num_nodes());
    }
    Rng small_rng(5);
    const std::vector<std::vector<Batch>> small =
        builder.SampleChunks(255, {&small_rng, 1}, threads);
    ASSERT_EQ(small[0].size(), 1u);
    EXPECT_EQ(small[0][0].size(), 255u);
    Rng widths_rng(5);
    EXPECT_EQ(builder.SampleWidths(1000, widths_rng, threads).size(), 1000u);
  }
}

TEST(ParallelRrBuilderTest, TinyAndEmptyRequests) {
  Graph g = PathGraph(5);
  std::vector<float> probs(g.num_edges(), 0.5f);
  ParallelRrBuilder builder(g, probs);
  Rng rng(1);
  const std::vector<std::vector<Batch>> chunks =
      builder.SampleChunks(3, {&rng, 1}, 8);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].size(), 1u);
  EXPECT_EQ(SetsOf(chunks).size(), 3u);
  EXPECT_TRUE(SetsOf(builder.SampleChunks(0, {&rng, 1}, 8)).empty());
  EXPECT_TRUE(builder.SampleChunks(5, {}, 8).empty());  // no masters
}

// One fan-out over N masters is N one-master calls on copies of the same
// masters, part for part — the split invariance a store top-up relies on
// when it samples all of its chunks in one call. Covers a chunk size that
// splits into kChunkParts parts and one below kMinSplitChunkSets (one part
// per chunk), at every thread count; a thread reuses its sampler across
// tasks, so no state may leak from one part into the next.
TEST(ParallelRrBuilderTest, ManyMastersEqualOneMasterCallsPartForPart) {
  Rng graph_rng(14);
  Graph g = ErdosRenyiGraph(60, 300, graph_rng);
  std::vector<float> probs(g.num_edges(), 0.2f);
  constexpr std::size_t kChunks = 5;
  for (const int threads : kThreadCounts) {
    for (const std::uint64_t count : {300u, 100u}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " count=" << count);
      ParallelRrBuilder together(g, probs);
      ParallelRrBuilder apart(g, probs);
      std::vector<Rng> masters;
      for (std::size_t c = 0; c < kChunks; ++c) masters.emplace_back(50 + c);
      std::vector<Rng> copies = masters;

      const std::vector<std::vector<Batch>> chunks =
          together.SampleChunks(count, masters, threads);
      ASSERT_EQ(chunks.size(), kChunks);
      const std::size_t parts = count < 256 ? 1 : 4;
      for (std::size_t c = 0; c < kChunks; ++c) {
        const std::vector<std::vector<Batch>> one =
            apart.SampleChunks(count, {&copies[c], 1}, threads);
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

  ParallelRrBuilder parallel(g, probs);
  Rng prng(7);
  const double parallel_estimate =
      estimate_from(SetsOf(parallel.SampleChunks(trials, {&prng, 1}, 4)));
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
  ParallelRrBuilder builder(g, probs, ctps);
  Rng rng(3);
  const std::vector<std::vector<Batch>> chunks =
      builder.SampleChunks(300, {&rng, 1}, 2);
  std::size_t sets = 0;
  for (const Batch& part : chunks[0]) {
    sets += part.size();
    EXPECT_TRUE(part.nodes.empty());  // delta = 0 blocks every membership coin
  }
  EXPECT_EQ(sets, 300u);
}

// ----------------------------------------------------- TIRM end-to-end
// TestInstance / MakeRMatInstance / FastOptions live in tirm_test_util.h.

// The allocation, revenue estimates and iteration count are the same at
// every thread count: the pools are.
TEST(ParallelTirmTest, SameAllocationAtEveryThreadCount) {
  TestInstance s = MakeRMatInstance(2, 100.0);
  ProblemInstance inst = s.Make(1, 0.0);
  Rng reference_rng(42);
  const TirmResult reference = RunTirm(inst, FastOptions(1), reference_rng);
  ASSERT_GT(reference.allocation.TotalSeeds(), 0u);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    Rng rng(42);
    const TirmResult result = RunTirm(inst, FastOptions(threads), rng);
    EXPECT_EQ(result.allocation.seeds, reference.allocation.seeds);
    EXPECT_EQ(result.estimated_revenue, reference.estimated_revenue);
    EXPECT_EQ(result.iterations, reference.iterations);
    EXPECT_EQ(result.total_rr_sets, reference.total_rr_sets);
  }
}

}  // namespace
}  // namespace tirm
