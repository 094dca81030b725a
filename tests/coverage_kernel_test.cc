// Tests for the CSR node -> set index (src/rrset/coverage_bitmap.h) and the
// coverage views built on it:
//  * golden end-to-end selections — every registered allocator's seeds and
//    iteration count, and TIRM's revenue estimates, pinned to recorded
//    constants;
//  * randomized commit/recount parity against the scalar oracle of
//    tests/coverage_oracle.h (unweighted exact integers, weighted
//    bit-identical doubles), including staged attaches and
//    CommitSeedOnRange attribution;
//  * UncoveredWords parity with the oracle, and a view attached below the
//    index's built count (the index stops mid-segment for it);
//  * CoverageHeap tie-break regression (equal coverages pop lowest id,
//    matching ArgMaxCoverage and the oracle);
//  * transpose laziness + byte accounting, transpose extensions against a
//    member scatter, and concurrent EnsureTranspose with reads of the
//    returned segments (exercised under TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/allocator_config.h"
#include "api/allocator_registry.h"
#include "common/hashing.h"
#include "common/rng.h"
#include "coverage_oracle.h"
#include "datasets/dataset.h"
#include "rrset/coverage_bitmap.h"
#include "rrset/rr_collection.h"
#include "rrset/sample_store.h"
#include "rrset/weighted_rr_collection.h"
#include "tirm_test_util.h"

namespace tirm {
namespace {

// -------------------------------------------------------------- word helpers

TEST(CoverageKernelTest, WordsForRoundsUpToWholeWords) {
  EXPECT_EQ(CoverageWordsFor(0), 0u);
  EXPECT_EQ(CoverageWordsFor(64), 1u);
  EXPECT_EQ(CoverageWordsFor(65), 2u);
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
  CoverageOracle oracle(pool.get());
  RrCollection bitmap(pool.get());

  std::uint32_t attached = 0;
  for (const std::uint32_t stage : {63u, 64u, 130u, 257u, 300u}) {
    oracle.AttachUpTo(stage);
    bitmap.AttachUpTo(stage);
    // Attribute the new sets to two fixed "existing seeds" (Algorithm 4
    // path), then commit a few random fresh seeds.
    for (const NodeId seed : {NodeId{3}, NodeId{77}}) {
      EXPECT_EQ(oracle.CommitSeedOnRange(seed, attached),
                bitmap.CommitSeedOnRange(seed, attached));
    }
    for (int k = 0; k < 5; ++k) {
      const NodeId v = static_cast<NodeId>(rng.NextUInt64() % n);
      EXPECT_EQ(oracle.CommitSeed(v), bitmap.CommitSeed(v));
    }
    EXPECT_EQ(oracle.NumCovered(), bitmap.NumCovered());
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(oracle.CoverageOf(v), bitmap.CoverageOf(v)) << "node " << v;
    }
    for (std::uint32_t id = 0; id < stage; ++id) {
      ASSERT_EQ(oracle.IsCovered(id), bitmap.IsCovered(id)) << "set " << id;
    }
    EXPECT_EQ(oracle.ArgMaxCoverage(),
              bitmap.ArgMaxCoverage([](NodeId) { return true; }));
    attached = stage;
  }
}

TEST(CoverageKernelTest, RandomizedWeightedParityIsBitIdentical) {
  Rng rng(77);
  const NodeId n = 90;
  std::unique_ptr<RrSetPool> pool = RandomPool(n, 200, 4, rng);
  WeightedCoverageOracle oracle(pool.get());
  WeightedRrCollection bitmap(pool.get());

  std::uint32_t attached = 0;
  for (const std::uint32_t stage : {65u, 128u, 200u}) {
    oracle.AttachUpTo(stage);
    bitmap.AttachUpTo(stage);
    for (const NodeId seed : {NodeId{1}, NodeId{42}}) {
      const double delta = 0.25;
      EXPECT_EQ(oracle.CommitSeedOnRange(seed, delta, attached),
                bitmap.CommitSeedOnRange(seed, delta, attached));
    }
    for (int k = 0; k < 6; ++k) {
      const NodeId v = static_cast<NodeId>(rng.NextUInt64() % n);
      // Mix of fractional discounts and removal-style δ = 1 (dead sets).
      const double delta = (k % 3 == 0) ? 1.0 : rng.NextDouble();
      // Bit-identical, not approximately equal: both gather in ascending
      // set order over identical values.
      EXPECT_EQ(oracle.CommitSeed(v, delta), bitmap.CommitSeed(v, delta));
    }
    EXPECT_EQ(oracle.CoveredMass(), bitmap.CoveredMass());
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(oracle.CoverageOf(v), bitmap.CoverageOf(v)) << "node " << v;
    }
    for (std::uint32_t id = 0; id < stage; ++id) {
      ASSERT_EQ(oracle.Survival(id), bitmap.Survival(id)) << "set " << id;
    }
    EXPECT_EQ(oracle.ArgMaxCoverage(),
              bitmap.ArgMaxCoverage([](NodeId) { return true; }));
    attached = stage;
  }
}

// UncoveredWords against the oracle's scatter of a node's uncovered ids,
// over staged attaches (segments of uneven lengths) and first_set values
// that fall mid-word and mid-segment. Each delta must be ascending with no
// zero word, and its count must be what the following commit covers.
TEST(CoverageKernelTest, UncoveredWordsMatchOracleIds) {
  Rng rng(1412);
  const NodeId n = 80;
  std::unique_ptr<RrSetPool> pool = RandomPool(n, 400, 4, rng);
  CoverageOracle oracle(pool.get());
  RrCollection bitmap(pool.get());

  std::uint32_t attached = 0;
  for (const std::uint32_t stage : {70u, 129u, 250u, 400u}) {
    oracle.AttachUpTo(stage);
    bitmap.AttachUpTo(stage);
    for (const std::uint32_t first_set : {0u, attached, attached + 37u}) {
      for (int k = 0; k < 6; ++k) {
        const NodeId v = static_cast<NodeId>(rng.NextUInt64() % n);
        const CoveredWordDelta want = oracle.UncoveredWords(v, first_set);
        const CoveredWordDelta got = bitmap.UncoveredWords(v, first_set);
        ASSERT_EQ(got.words, want.words) << "node " << v << " from "
                                         << first_set;
        ASSERT_EQ(got.newly_covered, want.newly_covered);
        for (std::size_t i = 0; i < got.words.size(); ++i) {
          EXPECT_NE(got.words[i].second, 0u);
          if (i > 0) {
            EXPECT_LT(got.words[i - 1].first, got.words[i].first);
          }
        }
        // Commit every other probe, so later probes see covered sets.
        if (k % 2 == 0) continue;
        EXPECT_EQ(bitmap.CommitSeedOnRange(v, first_set), got.newly_covered);
        oracle.CommitSeedOnRange(v, first_set);
      }
    }
    attached = stage;
  }
}

// A view attached below the index's built count: view A builds the index
// to 1100 sets in one segment, then view B attaches only 100 (mid-segment,
// mid-word), so every walk of B must stop inside the segment.
TEST(CoverageKernelTest, ViewBelowBuiltCountMatchesOracle) {
  Rng rng(1100);
  const NodeId n = 200;
  std::unique_ptr<RrSetPool> pool = RandomPool(n, 1100, 5, rng);
  RrCollection a(pool.get());
  a.AttachUpTo(1100);
  RrCollection b(pool.get());
  b.AttachUpTo(100);  // 100 % 64 == 36
  ASSERT_EQ(pool->EnsureTranspose(100).built_sets(), 1100u);
  CoverageOracle oracle(pool.get());
  oracle.AttachUpTo(100);

  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(b.CoverageOf(v), oracle.CoverageOf(v)) << "node " << v;
  }
  for (int k = 0; k < 20; ++k) {
    const NodeId v = static_cast<NodeId>(rng.NextUInt64() % n);
    const std::uint32_t first_set = k % 2 == 0 ? 0u : 50u;
    const CoveredWordDelta want = oracle.UncoveredWords(v, first_set);
    const CoveredWordDelta got = b.UncoveredWords(v, first_set);
    ASSERT_EQ(got.words, want.words) << "node " << v;
    ASSERT_EQ(got.newly_covered, want.newly_covered);
    ASSERT_EQ(b.CommitSeedOnRange(v, first_set),
              oracle.CommitSeedOnRange(v, first_set));
  }
  EXPECT_EQ(b.NumCovered(), oracle.NumCovered());
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(b.CoverageOf(v), oracle.CoverageOf(v)) << "node " << v;
  }
  // A's coverage is its own: B's commits touched none of it.
  EXPECT_EQ(a.NumCovered(), 0u);

  // The weighted gather stops inside the segment too.
  WeightedRrCollection weighted(pool.get());
  weighted.AttachUpTo(100);
  WeightedCoverageOracle weighted_oracle(pool.get());
  weighted_oracle.AttachUpTo(100);
  for (NodeId v = 0; v < n; v += 7) {
    ASSERT_EQ(weighted.CommitSeedOnRange(v, 0.5, 50),
              weighted_oracle.CommitSeedOnRange(v, 0.5, 50));
  }
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(weighted.CoverageOf(v), weighted_oracle.CoverageOf(v));
  }
}

// ------------------------------------------------------ heap tie-break fix

TEST(CoverageHeapTest, EqualCoveragesPopLowestNodeId) {
  // Nodes 9, 4, and 7 each cover exactly two (disjoint) sets. The heap must
  // pop them in id order — matching ArgMaxCoverage's first-maximum scan —
  // not in whatever order make_heap left equal keys.
  PooledView<RrCollection> p(12, {{9}, {9}, {4}, {4}, {7}, {7}});
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

TEST(CoverageHeapTest, TieBreakMatchesOracleArgMax) {
  Rng rng(5);
  std::unique_ptr<RrSetPool> pool = RandomPool(40, 96, 3, rng);
  CoverageOracle oracle(pool.get());
  RrCollection c(pool.get());
  oracle.AttachUpTo(96);
  c.AttachUpTo(96);
  CoverageHeap heap(&c);
  for (int i = 0; i < 10; ++i) {
    const NodeId by_oracle = oracle.ArgMaxCoverage();
    const NodeId by_heap = heap.PopBest([](NodeId) { return true; });
    ASSERT_EQ(by_heap, by_oracle) << "iteration " << i;
    if (by_heap == kInvalidNode) break;
    EXPECT_EQ(c.CommitSeed(by_heap), oracle.CommitSeed(by_heap));
  }
}

// ------------------------------------------- transpose laziness + accounting

TEST(CoverageTransposeTest, BuiltLazilyAndCountedInMemoryBytes) {
  Rng rng(9);
  std::unique_ptr<RrSetPool> pool = RandomPool(50, 70, 3, rng);
  EXPECT_EQ(pool->TransposeBytes(), 0u);
  const std::size_t before = pool->MemoryBytes();

  // The first attach builds it; the pool's accounting grows by exactly the
  // transpose bytes.
  RrCollection bitmap(pool.get());
  bitmap.AttachUpTo(70);
  const std::size_t transpose_bytes = pool->TransposeBytes();
  EXPECT_GT(transpose_bytes, 0u);
  EXPECT_EQ(pool->MemoryBytes(), before + transpose_bytes);
  const CoverageTranspose& t = pool->EnsureTranspose(70);
  EXPECT_GE(t.built_sets(), 70u);

  // The bitmap view's own bookkeeping (covered words) is counted in the
  // view, not double-counted in the pool.
  EXPECT_GE(bitmap.MemoryBytes(), CoverageWordsFor(70) * sizeof(std::uint64_t));
}

// Concurrent extensions serialize on the pool mutex, and each thread reads
// its own segment list while the others extend the index.
TEST(CoverageTransposeTest, ConcurrentEnsureIsSerialized) {
  Rng rng(13);
  std::unique_ptr<RrSetPool> pool = RandomPool(60, 128, 3, rng);
  const std::vector<std::vector<NodeId>> sets = SetsOf(*pool);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&pool, &sets, i] {
      const std::uint32_t up_to = 32u * static_cast<std::uint32_t>(i + 1);
      const CoverageTranspose t = pool->EnsureTranspose(up_to);
      for (NodeId v = 0; v < t.num_nodes(); ++v) {
        std::size_t ids = 0;
        t.ForEachRun(v, 0, up_to, [&ids](std::span<const std::uint32_t> run) {
          ids += run.size();
        });
        std::size_t expected = 0;
        for (std::uint32_t id = 0; id < up_to; ++id) {
          expected += static_cast<std::size_t>(
              std::count(sets[id].begin(), sets[id].end(), v));
        }
        EXPECT_EQ(ids, expected) << "node " << v << " up_to " << up_to;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(pool->EnsureTranspose(128).built_sets(), 128u);

  // Post-join parity: the concurrently built transpose serves correct rows.
  CoverageOracle oracle(pool.get());
  RrCollection bitmap(pool.get());
  oracle.AttachUpTo(128);
  bitmap.AttachUpTo(128);
  for (NodeId v = 0; v < 60; ++v) {
    ASSERT_EQ(oracle.CoverageOf(v), bitmap.CoverageOf(v));
  }
}

// The ids must equal a member scatter after each extension, including a
// second extension that starts mid-word and appends a second segment.
TEST(CoverageTransposeTest, ExtensionsMatchMemberScatter) {
  Rng rng(4096);
  std::unique_ptr<RrSetPool> pool = RandomPool(300, 1100, 6, rng);
  const std::vector<std::vector<NodeId>> sets = SetsOf(*pool);
  std::size_t bytes = 0;
  for (const std::uint32_t up_to : {100u, 1100u}) {  // 100 % 64 == 36
    const CoverageTranspose& t = pool->EnsureTranspose(up_to);
    ASSERT_EQ(t.built_sets(), up_to);
    EXPECT_GT(t.MemoryBytes(), bytes);
    bytes = t.MemoryBytes();
    ExpectRowsMatch(t, std::span(sets).first(up_to));
  }
}

// ----------------------------------------------- golden end-to-end selections

// Hash of what an allocator run decided: per-ad seeds, the iteration count
// and, when `with_revenue`, the exact bits of the per-ad revenue estimates.
std::uint64_t HashRun(const AllocationResult& r, bool with_revenue) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const std::vector<NodeId>& ad : r.allocation.seeds) {
    const auto size = static_cast<std::uint64_t>(ad.size());
    h = HashBytes(h, &size, sizeof(size));
    h = HashBytes(h, ad.data(), ad.size() * sizeof(NodeId));
  }
  if (with_revenue) {
    h = HashBytes(h, r.estimated_revenue.data(),
                  r.estimated_revenue.size() * sizeof(double));
  }
  const auto iterations = static_cast<std::uint64_t>(r.iterations);
  h = HashBytes(h, &iterations, sizeof(iterations));
  return FinalizeHash(h);
}

struct GoldenRun {
  const char* allocator;
  std::uint64_t hash;
};

// Runs each allocator once (λ = 0.1, κ = 1, rng seed 99) and compares its
// HashRun with the constant, which was recorded when a scalar postings
// kernel still ran beside the bitmap one and both gave these values. The
// tirm constants were re-recorded when a chunk's part layout stopped
// depending on the thread count: they are the values the same runs gave
// at 4 threads, whose layout became the fixed one.
void ExpectGoldenRuns(const BuiltInstance& built,
                      const std::vector<GoldenRun>& runs,
                      bool ctp_aware = false) {
  const ProblemInstance instance = built.MakeInstance(1, 0.1);
  for (const GoldenRun& golden : runs) {
    AllocatorConfig config;
    config.allocator = golden.allocator;
    config.eps = 0.3;
    config.theta_cap = 1 << 14;
    config.mc_sims = 200;
    config.ctp_aware_coverage = ctp_aware;
    Result<std::unique_ptr<Allocator>> made =
        AllocatorRegistry::Global().Create(config);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    // Only TIRM reads its revenue estimates off the coverage views;
    // greedy-mc's and greedy-irie's come from Monte-Carlo and IRIE, so
    // their constants pin seeds and iterations only (myopic estimates none).
    const bool with_revenue = std::string_view(golden.allocator) == "tirm";
    Rng rng(99);
    const std::uint64_t hash =
        HashRun(made.value()->Allocate(instance, rng), with_revenue);
    EXPECT_EQ(hash, golden.hash)
        << golden.allocator << " got 0x" << std::hex << hash;
  }
}

TEST(CoverageKernelGoldenTest, AllFiveAllocatorsOnFigure1) {
  EXPECT_EQ(AllocatorRegistry::Global().Names(),
            (std::vector<std::string>{"greedy-irie", "greedy-mc", "myopic",
                                      "myopic+", "tirm"}));
  ExpectGoldenRuns(BuildFigure1Instance(),
                   {{"greedy-irie", 0xe1d00a8a199d0253ULL},
                    {"greedy-mc", 0x8d1e34af84f42c5bULL},
                    {"myopic", 0x4c9143744baf3e19ULL},
                    {"myopic+", 0x0142737761f5a0ccULL},
                    {"tirm", 0x090d79896fd0b1c9ULL}});
}

TEST(CoverageKernelGoldenTest, SamplingAllocatorsOnPerTopic) {
  Rng rng(2015);
  const BuiltInstance built = BuildDataset(FlixsterLike(0.003), rng);
  // greedy-mc is excluded: it is the small-graph MC reference oracle.
  ExpectGoldenRuns(built, {{"tirm", 0x2d51617f880b2e4eULL},
                           {"myopic", 0x7742535de895c58bULL},
                           {"myopic+", 0x134f973d3e3e8d53ULL},
                           {"greedy-irie", 0x73f1edb1086db470ULL}});
}

TEST(CoverageKernelGoldenTest, WeightedTirmOnPerTopic) {
  Rng rng(2015);
  const BuiltInstance built = BuildDataset(FlixsterLike(0.003), rng);
  // The survival-weighted backend's bit-identity rests on the gather
  // argument in the file comment of weighted_rr_collection.h.
  ExpectGoldenRuns(built, {{"tirm", 0x37a776544e7b8bafULL}},
                   /*ctp_aware=*/true);
}

}  // namespace
}  // namespace tirm
