// Tests for the packed bitmap coverage kernel (src/rrset/coverage_bitmap.h)
// and the kernel-parameterized coverage views:
//  * golden end-to-end gate — every registered allocator makes bit-identical
//    selections under --coverage_kernel=scalar and =bitmap;
//  * randomized commit/recount parity between the two kernels (unweighted
//    exact integers, weighted bit-identical doubles), including staged
//    attaches and CommitSeedOnRange attribution;
//  * SIMD tier equivalence (portable vs AVX2 word loops, same integers);
//  * CoverageHeap tie-break regression (equal coverages pop lowest id,
//    matching ArgMaxCoverage);
//  * transpose laziness + byte accounting, and concurrent EnsureTranspose
//    (exercised under TSan in CI).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/allocator_config.h"
#include "api/allocator_registry.h"
#include "common/rng.h"
#include "datasets/dataset.h"
#include "rrset/coverage_bitmap.h"
#include "rrset/rr_collection.h"
#include "rrset/sample_store.h"
#include "rrset/weighted_rr_collection.h"
#include "tirm_test_util.h"

namespace tirm {
namespace {

// ------------------------------------------------------------ kernel parsing

TEST(CoverageKernelTest, ParseAndNameRoundTrip) {
  for (const char* name : {"auto", "scalar", "bitmap"}) {
    Result<CoverageKernel> parsed = ParseCoverageKernel(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_STREQ(CoverageKernelName(parsed.value()), name);
  }
  EXPECT_FALSE(ParseCoverageKernel("avx2").ok());
  EXPECT_FALSE(ParseCoverageKernel("").ok());
  EXPECT_EQ(ResolveCoverageKernel(CoverageKernel::kAuto),
            CoverageKernel::kBitmap);
  EXPECT_EQ(ResolveCoverageKernel(CoverageKernel::kScalar),
            CoverageKernel::kScalar);
}

TEST(CoverageKernelTest, AllocatorConfigRejectsUnknownKernel) {
  AllocatorConfig config;
  config.coverage_kernel = "simd";
  EXPECT_FALSE(config.Validate().ok());
  config.coverage_kernel = "scalar";
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_EQ(config.MakeTirmOptions().coverage_kernel, CoverageKernel::kScalar);
}

// --------------------------------------------------------- word-loop helpers

TEST(CoverageKernelTest, TailMaskCoversPartialWords) {
  EXPECT_EQ(CoverageTailMask(64), ~std::uint64_t{0});
  EXPECT_EQ(CoverageTailMask(128), ~std::uint64_t{0});
  EXPECT_EQ(CoverageTailMask(1), std::uint64_t{1});
  EXPECT_EQ(CoverageTailMask(65), std::uint64_t{1});
  EXPECT_EQ(CoverageTailMask(3), std::uint64_t{7});
  EXPECT_EQ(CoverageWordsFor(0), 0u);
  EXPECT_EQ(CoverageWordsFor(64), 1u);
  EXPECT_EQ(CoverageWordsFor(65), 2u);
}

TEST(CoverageKernelTest, SimdTiersComputeIdenticalCounts) {
  // Random word buffers of awkward lengths: the active tier (AVX2 when the
  // host supports it) must produce the exact integers of the portable tier
  // for both the pure recount and the mutating commit.
  Rng rng(41);
  for (const std::size_t words : {1u, 3u, 4u, 5u, 17u, 64u, 129u}) {
    CoverageWordBuffer bits(words), mask_a(words), mask_b(words);
    for (std::size_t i = 0; i < words; ++i) {
      bits[i] = rng.NextUInt64();
      mask_a[i] = rng.NextUInt64();
      mask_b[i] = mask_a[i];
    }
    const CoverageKernelOps& portable = PortableCoverageOps();
    const CoverageKernelOps& active = ActiveCoverageOps();
    EXPECT_EQ(portable.andnot_popcount(bits.data(), mask_a.data(), words),
              active.andnot_popcount(bits.data(), mask_a.data(), words));
    EXPECT_EQ(portable.commit_or(bits.data(), mask_a.data(), words),
              active.commit_or(bits.data(), mask_b.data(), words));
    for (std::size_t i = 0; i < words; ++i) EXPECT_EQ(mask_a[i], mask_b[i]);
  }
}

TEST(CoverageKernelTest, ForceSimdTierValidatesNames) {
  EXPECT_FALSE(ForceCoverageSimdTier("sse9").ok());
  ASSERT_TRUE(ForceCoverageSimdTier("portable").ok());
  EXPECT_STREQ(ActiveCoverageOps().name, "portable");
  if (CoverageAvx2Available()) {
    ASSERT_TRUE(ForceCoverageSimdTier("avx2").ok());
    EXPECT_STREQ(ActiveCoverageOps().name, "avx2");
  } else {
    EXPECT_FALSE(ForceCoverageSimdTier("avx2").ok());
  }
  ASSERT_TRUE(ForceCoverageSimdTier("auto").ok());
}

// ----------------------------------------------------- randomized view parity

// Random pool: `sets` sets over `nodes` nodes, ~`avg` members each.
std::unique_ptr<RrSetPool> RandomPool(NodeId nodes, std::uint32_t sets,
                                      int avg, Rng& rng) {
  std::vector<std::vector<NodeId>> members(sets);
  std::vector<std::uint8_t> taken(nodes, 0);
  for (std::vector<NodeId>& set : members) {
    const int size = 1 + static_cast<int>(rng.NextUInt64() %
                                          static_cast<std::uint64_t>(2 * avg));
    for (int k = 0; k < size; ++k) {
      const NodeId v = static_cast<NodeId>(rng.NextUInt64() % nodes);
      if (taken[v]) continue;  // sets hold distinct members
      taken[v] = 1;
      set.push_back(v);
    }
    for (const NodeId v : set) taken[v] = 0;
  }
  return MakePool(nodes, members);
}

TEST(CoverageKernelTest, RandomizedUnweightedParityWithStagedAttaches) {
  Rng rng(2015);
  const NodeId n = 120;
  // 300 sets: several words plus a partial tail; attach in uneven stages so
  // partial-word boundaries move through commits.
  std::unique_ptr<RrSetPool> pool = RandomPool(n, 300, 4, rng);
  RrCollection scalar(pool.get(), CoverageKernel::kScalar);
  RrCollection bitmap(pool.get(), CoverageKernel::kBitmap);
  ASSERT_EQ(scalar.kernel(), CoverageKernel::kScalar);
  ASSERT_EQ(bitmap.kernel(), CoverageKernel::kBitmap);

  std::uint32_t attached = 0;
  for (const std::uint32_t stage : {63u, 64u, 130u, 257u, 300u}) {
    scalar.AttachUpTo(stage);
    bitmap.AttachUpTo(stage);
    // Attribute the new sets to two fixed "existing seeds" (Algorithm 4
    // path), then commit a few random fresh seeds.
    for (const NodeId seed : {NodeId{3}, NodeId{77}}) {
      EXPECT_EQ(scalar.CommitSeedOnRange(seed, attached),
                bitmap.CommitSeedOnRange(seed, attached));
    }
    for (int k = 0; k < 5; ++k) {
      const NodeId v = static_cast<NodeId>(rng.NextUInt64() % n);
      EXPECT_EQ(scalar.CommitSeed(v), bitmap.CommitSeed(v));
    }
    EXPECT_EQ(scalar.NumCovered(), bitmap.NumCovered());
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(scalar.CoverageOf(v), bitmap.CoverageOf(v)) << "node " << v;
    }
    for (std::uint32_t id = 0; id < stage; ++id) {
      ASSERT_EQ(scalar.IsCovered(id), bitmap.IsCovered(id)) << "set " << id;
    }
    EXPECT_EQ(scalar.ArgMaxCoverage([](NodeId) { return true; }),
              bitmap.ArgMaxCoverage([](NodeId) { return true; }));
    attached = stage;
  }
}

TEST(CoverageKernelTest, RandomizedWeightedParityIsBitIdentical) {
  Rng rng(77);
  const NodeId n = 90;
  std::unique_ptr<RrSetPool> pool = RandomPool(n, 200, 4, rng);
  WeightedRrCollection scalar(pool.get(), CoverageKernel::kScalar);
  WeightedRrCollection bitmap(pool.get(), CoverageKernel::kBitmap);

  std::uint32_t attached = 0;
  for (const std::uint32_t stage : {65u, 128u, 200u}) {
    scalar.AttachUpTo(stage);
    bitmap.AttachUpTo(stage);
    for (const NodeId seed : {NodeId{1}, NodeId{42}}) {
      const double delta = 0.25;
      EXPECT_EQ(scalar.CommitSeedOnRange(seed, delta, attached),
                bitmap.CommitSeedOnRange(seed, delta, attached));
    }
    for (int k = 0; k < 6; ++k) {
      const NodeId v = static_cast<NodeId>(rng.NextUInt64() % n);
      // Mix of fractional discounts and removal-style δ = 1 (dead lanes).
      const double delta = (k % 3 == 0) ? 1.0 : rng.NextDouble();
      // Bit-identical, not approximately equal: both kernels gather in
      // ascending set order over identical values.
      EXPECT_EQ(scalar.CommitSeed(v, delta), bitmap.CommitSeed(v, delta));
    }
    EXPECT_EQ(scalar.CoveredMass(), bitmap.CoveredMass());
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(scalar.CoverageOf(v), bitmap.CoverageOf(v)) << "node " << v;
    }
    for (std::uint32_t id = 0; id < stage; ++id) {
      ASSERT_EQ(scalar.Survival(id), bitmap.Survival(id)) << "set " << id;
    }
    EXPECT_EQ(scalar.ArgMaxCoverage([](NodeId) { return true; }),
              bitmap.ArgMaxCoverage([](NodeId) { return true; }));
    attached = stage;
  }
}

// ------------------------------------------------------ heap tie-break fix

TEST(CoverageHeapTest, EqualCoveragesPopLowestNodeId) {
  // Nodes 9, 4, and 7 each cover exactly two (disjoint) sets. The heap must
  // pop them in id order — matching ArgMaxCoverage's first-maximum scan —
  // not in whatever order make_heap left equal keys.
  PooledView<RrCollection> p(12, {{9}, {9}, {4}, {4}, {7}, {7}},
                              CoverageKernel::kScalar);
  RrCollection& c = p.view;
  EXPECT_EQ(c.ArgMaxCoverage([](NodeId) { return true; }), 4u);

  CoverageHeap heap(&c);
  const NodeId first = heap.PopBest([](NodeId) { return true; });
  EXPECT_EQ(first, 4u);
  c.CommitSeed(first);
  const NodeId second = heap.PopBest([](NodeId) { return true; });
  EXPECT_EQ(second, 7u);
  c.CommitSeed(second);
  EXPECT_EQ(heap.PopBest([](NodeId) { return true; }), 9u);
}

TEST(CoverageHeapTest, TieBreakMatchesArgMaxUnderBothKernels) {
  Rng rng(5);
  std::unique_ptr<RrSetPool> pool = RandomPool(40, 96, 3, rng);
  for (const CoverageKernel kernel :
       {CoverageKernel::kScalar, CoverageKernel::kBitmap}) {
    RrCollection c(pool.get(), kernel);
    c.AttachUpTo(96);
    CoverageHeap heap(&c);
    for (int i = 0; i < 10; ++i) {
      const NodeId by_scan = c.ArgMaxCoverage([](NodeId) { return true; });
      const NodeId by_heap = heap.PopBest([](NodeId) { return true; });
      ASSERT_EQ(by_heap, by_scan) << "iteration " << i;
      if (by_heap == kInvalidNode) break;
      c.CommitSeed(by_heap);
    }
  }
}

// ------------------------------------------- transpose laziness + accounting

TEST(CoverageTransposeTest, BuiltLazilyAndCountedInMemoryBytes) {
  Rng rng(9);
  std::unique_ptr<RrSetPool> pool = RandomPool(50, 70, 3, rng);
  EXPECT_EQ(pool->TransposeBytes(), 0u);
  const std::size_t before = pool->MemoryBytes();

  // A scalar view never touches the transpose.
  RrCollection scalar(pool.get(), CoverageKernel::kScalar);
  scalar.AttachUpTo(70);
  EXPECT_EQ(pool->TransposeBytes(), 0u);
  EXPECT_EQ(pool->MemoryBytes(), before);

  // The first bitmap attach builds it; the pool's accounting grows by
  // exactly the transpose bytes.
  RrCollection bitmap(pool.get(), CoverageKernel::kBitmap);
  bitmap.AttachUpTo(70);
  const std::size_t transpose_bytes = pool->TransposeBytes();
  EXPECT_GT(transpose_bytes, 0u);
  EXPECT_EQ(pool->MemoryBytes(), before + transpose_bytes);
  // Rows hold >= 70 lanes, stride is a multiple of 8 words (64B alignment).
  const CoverageTranspose& t = pool->EnsureTranspose(70);
  EXPECT_GE(t.built_sets(), 70u);
  EXPECT_EQ(t.words_per_row() % 8, 0u);

  // The bitmap view's own bookkeeping (covered words) is counted in the
  // view, not double-counted in the pool.
  EXPECT_GE(bitmap.MemoryBytes(), CoverageWordsFor(70) * sizeof(std::uint64_t));
}

TEST(CoverageTransposeTest, ConcurrentEnsureIsSerialized) {
  Rng rng(13);
  std::unique_ptr<RrSetPool> pool = RandomPool(60, 128, 3, rng);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&pool, i] {
      // Build only — reading the returned transpose here would race with
      // another thread's extension (the documented arena discipline).
      pool->EnsureTranspose(32u * static_cast<std::uint32_t>(i + 1));
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(pool->EnsureTranspose(128).built_sets(), 128u);

  // Post-join parity: the concurrently built transpose serves correct rows.
  RrCollection scalar(pool.get(), CoverageKernel::kScalar);
  RrCollection bitmap(pool.get(), CoverageKernel::kBitmap);
  scalar.AttachUpTo(128);
  bitmap.AttachUpTo(128);
  for (NodeId v = 0; v < 60; ++v) {
    ASSERT_EQ(scalar.CoverageOf(v), bitmap.CoverageOf(v));
  }
}

// ----------------------------------------------- golden end-to-end selections

AllocationResult RunWithKernel(const std::string& allocator,
                               const std::string& kernel,
                               const ProblemInstance& instance,
                               std::uint64_t seed, bool ctp_aware = false) {
  AllocatorConfig config;
  config.allocator = allocator;
  config.eps = 0.3;
  config.theta_cap = 1 << 14;
  config.mc_sims = 200;
  config.coverage_kernel = kernel;
  config.ctp_aware_coverage = ctp_aware;
  Result<std::unique_ptr<Allocator>> made =
      AllocatorRegistry::Global().Create(config);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  Rng rng(seed);
  return made.value()->Allocate(instance, rng);
}

void ExpectKernelInvariantRuns(const BuiltInstance& built,
                               const std::vector<std::string>& allocators,
                               bool ctp_aware = false) {
  const ProblemInstance instance = built.MakeInstance(1, 0.1);
  for (const std::string& name : allocators) {
    const AllocationResult scalar =
        RunWithKernel(name, "scalar", instance, 99, ctp_aware);
    const AllocationResult bitmap =
        RunWithKernel(name, "bitmap", instance, 99, ctp_aware);
    EXPECT_EQ(scalar.allocation.seeds, bitmap.allocation.seeds) << name;
    EXPECT_EQ(scalar.estimated_revenue, bitmap.estimated_revenue) << name;
    EXPECT_EQ(scalar.iterations, bitmap.iterations) << name;
  }
}

TEST(CoverageKernelGoldenTest, AllFiveAllocatorsKernelInvariantOnFigure1) {
  // The acceptance gate of the kernel refactor: switching the coverage data
  // path must never change an allocation, for every registered allocator.
  ExpectKernelInvariantRuns(BuildFigure1Instance(),
                            AllocatorRegistry::Global().Names());
}

TEST(CoverageKernelGoldenTest, SamplingAllocatorsKernelInvariantOnPerTopic) {
  Rng rng(2015);
  const BuiltInstance built = BuildDataset(FlixsterLike(0.003), rng);
  // greedy-mc is excluded: it is the small-graph MC reference oracle.
  ExpectKernelInvariantRuns(built, {"tirm", "myopic", "myopic+",
                                    "greedy-irie"});
}

TEST(CoverageKernelGoldenTest, WeightedTirmKernelInvariantOnPerTopic) {
  Rng rng(2015);
  const BuiltInstance built = BuildDataset(FlixsterLike(0.003), rng);
  // The survival-weighted backend relies on the gather argument (file
  // comment of weighted_rr_collection.h) for its bit-identity.
  ExpectKernelInvariantRuns(built, {"tirm"}, /*ctp_aware=*/true);
}

}  // namespace
}  // namespace tirm
