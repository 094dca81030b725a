// RrSampleStore: pooled-sample reuse. Covers the pool/view split
// (RrSetPool + borrowing RrCollection/WeightedRrCollection), chunked
// top-up determinism (θ grown in one step vs several, at any mix of
// thread counts), one sampling fan-out per top-up, concurrency of
// EnsureSets/Acquire at mixed thread counts and TIRM reading a prefix of
// pools another run grows (both run under TSan in CI), the arena-direct
// top-up (a pool holds exactly the sets of its sampled parts, byte for
// byte, in exact-size buffers), the max-traversal statistic, golden
// equivalence of pooled-store vs fresh-sampling runs for all five
// allocators, engine-level sweep reuse (samples drawn at most once per (ad, max-θ),
// one store for every thread count), and pool contents, RunTim and TIRM
// seeds pinned to recorded constants at every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/tirm.h"
#include "api/ad_alloc_engine.h"
#include "api/allocator_registry.h"
#include "common/hashing.h"
#include "common/rng.h"
#include "coverage_oracle.h"
#include "datasets/dataset.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "rrset/parallel_rr_builder.h"
#include "rrset/rr_collection.h"
#include "rrset/sample_store.h"
#include "rrset/tim.h"
#include "rrset/weighted_rr_collection.h"
#include "tirm_test_util.h"
#include "topic/instance.h"

namespace tirm {
namespace {

using Batch = ParallelRrBuilder::Batch;

constexpr std::uint64_t kSeed = 2015;

std::vector<float> ConstantProbs(const Graph& g, float p) {
  return std::vector<float>(g.num_edges(), p);
}

// ------------------------------------------------------------------ pool

// Adopted chunks get dense ids in order (empty sets included), the
// transpose holds exactly those ids across chunks, and spans handed out
// before a later adoption stay valid.
TEST(RrSetPoolTest, AdoptedChunksKeepIdsRowsAndSpans) {
  RrSetPool pool(5);
  const std::vector<std::size_t> first_offsets = {0, 2, 2, 4};
  EXPECT_EQ(pool.AdoptChunk({0, 1, 1, 2}, first_offsets), 0u);
  const std::span<const NodeId> first = pool.SetMembers(0);
  EXPECT_EQ(pool.AdoptChunk({3, 1, 4}, std::vector<std::size_t>{0, 2, 3}), 3u);
  ASSERT_EQ(pool.NumSets(), 5u);
  const std::vector<std::vector<NodeId>> sets = {
      {0, 1}, {}, {1, 2}, {3, 1}, {4}};
  EXPECT_EQ(SetsOf(pool), sets);
  ASSERT_EQ(first.size(), 2u);  // still points at live storage
  EXPECT_EQ(first[0], 0u);
  EXPECT_EQ(first[1], 1u);
  const CoverageTranspose& transpose = pool.EnsureTranspose(5);
  ExpectRowsMatch(transpose, sets);
  std::vector<std::uint32_t> node1;
  transpose.ForEachRun(1, 0, 5, [&](std::span<const std::uint32_t> ids) {
    node1.insert(node1.end(), ids.begin(), ids.end());
  });
  EXPECT_EQ(node1, (std::vector<std::uint32_t>{0, 2, 3}));
  EXPECT_GT(pool.MemoryBytes(), 0u);
}

// An index extension may start and stop inside a part and span several:
// each segment holds exactly the ids of its own set range.
TEST(RrSetPoolTest, IndexSegmentsClipToTheirSetRangeAcrossParts) {
  RrSetPool pool(6);
  pool.AdoptChunk({0, 1, 2, 3}, {0, 2, 4});        // sets 0-1
  pool.AdoptChunk({4, 5, 0, 1, 2}, {0, 1, 3, 5});  // sets 2-4
  pool.AdoptChunk({3, 5}, {0, 2});                 // set 5
  const std::vector<std::vector<NodeId>> sets = SetsOf(pool);
  ASSERT_EQ(sets.size(), 6u);
  for (const std::uint32_t up_to : {1u, 3u, 6u}) {
    SCOPED_TRACE(testing::Message() << "up_to=" << up_to);
    ExpectRowsMatch(pool.EnsureTranspose(up_to), std::span(sets).first(up_to));
  }
}

// Two views over one pool: independent coverage, one physical copy.
TEST(RrSetPoolTest, ViewsShareSetsButNotCoverage) {
  const std::unique_ptr<RrSetPool> pool = MakePool(3, {{0, 1}, {0, 2}});
  RrCollection a(pool.get());
  RrCollection b(pool.get());
  a.AttachUpTo(2);
  b.AttachUpTo(2);
  EXPECT_EQ(a.CommitSeed(0), 2u);
  EXPECT_EQ(a.CoverageOf(1), 0u);
  // b is untouched by a's commit.
  EXPECT_EQ(b.CoverageOf(0), 2u);
  EXPECT_EQ(b.CommitSeed(0), 2u);
}

// A view only sees its attached prefix, even when the pool is larger.
TEST(RrSetPoolTest, AttachWatermarkLimitsView) {
  const std::unique_ptr<RrSetPool> pool = MakePool(2, {{0}, {0}, {1}});
  RrCollection view(pool.get());
  view.AttachUpTo(2);
  EXPECT_EQ(view.NumSets(), 2u);
  EXPECT_EQ(view.CoverageOf(0), 2u);
  EXPECT_EQ(view.CoverageOf(1), 0u);  // set 2 not attached
  EXPECT_EQ(view.CommitSeed(0), 2u);
  view.AttachUpTo(3);
  EXPECT_EQ(view.CoverageOf(1), 1u);
  // Weighted view over the same pool.
  WeightedRrCollection weighted(pool.get());
  weighted.AttachUpTo(3);
  EXPECT_DOUBLE_EQ(weighted.CoverageOf(0), 2.0);
}

// ------------------------------------------------------------ store top-up

class SampleStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng grng(7);
    graph_ = ErdosRenyiGraph(60, 300, grng);
    probs_ = ConstantProbs(graph_, 0.2f);
  }

  Graph graph_;
  std::vector<float> probs_;
};

TEST_F(SampleStoreTest, EnsureSetsRoundsUpToChunks) {
  RrSampleStore store(&graph_, {.seed = 11, .chunk_sets = 256});
  RrSampleStore::AdPool* entry = store.Acquire(1, probs_);
  const auto r = store.EnsureSets(entry, 300);
  EXPECT_EQ(r.had_before, 0u);
  EXPECT_EQ(r.sampled, 512u);  // 2 chunks
  EXPECT_EQ(entry->sets().NumSets(), 512u);
  // Second call inside the pooled size: pure reuse, nothing sampled.
  const auto r2 = store.EnsureSets(entry, 400);
  EXPECT_EQ(r2.had_before, 512u);
  EXPECT_EQ(r2.sampled, 0u);
  const SampleCacheStats stats = store.LifetimeStats();
  EXPECT_EQ(stats.sampled_sets, 512u);
  EXPECT_EQ(stats.reused_sets, 400u);
  EXPECT_EQ(stats.top_ups, 1u);
  EXPECT_GT(stats.arena_bytes, 0u);
  EXPECT_EQ(store.NumEntries(), 1u);
}

// Growing to θ in one step or in several yields bit-identical pools — the
// property that lets a warm pool serve a run that would have sampled in a
// different batch pattern, at a different thread count. The one step is a
// single 4-chunk fan-out at T threads, compared against several smaller
// ones at other counts.
TEST_F(SampleStoreTest, TopUpDeterminismOneStepVsSeveral) {
  const RrSampleStore::Options options{.seed = 42, .chunk_sets = 256};
  for (const int threads : {1, 3, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    RrSampleStore one(&graph_, options);
    RrSampleStore many(&graph_, options);
    RrSampleStore::AdPool* a = one.Acquire(9, probs_);
    RrSampleStore::AdPool* b = many.Acquire(9, probs_);
    one.EnsureSets(a, 1000, 0, threads);
    many.EnsureSets(b, 100, 0, 2);
    many.EnsureSets(b, 500, 0, 1);
    many.EnsureSets(b, 130, 0, 8);  // no-op
    many.EnsureSets(b, 1000, 0, threads);
    ASSERT_EQ(a->sets().NumSets(), b->sets().NumSets());
    EXPECT_EQ(SetsOf(a->sets()), SetsOf(b->sets()));
  }
}

// A top-up is one fan-out: all 8 chunks x 4 parts = 32 sampling tasks run
// on at most 4 threads (the calling thread and 3 started once), not on a
// fresh set of threads per chunk. Each thread that records a span keeps a
// trace buffer for the life of the process, so this also bounds what a
// traced multi-threaded run holds.
TEST_F(SampleStoreTest, TopUpSamplesAllChunksOnAtMostNumThreadsThreads) {
  RrSampleStore store(&graph_, {.seed = 8, .chunk_sets = 256});
  RrSampleStore::AdPool* entry = store.Acquire(1, probs_);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();
  EXPECT_EQ(store.EnsureSets(entry, 8 * 256, 0, 4).sampled, 8u * 256);
  recorder.Disable();
  std::size_t batches = 0;
  std::set<std::int32_t> tids;
  for (const obs::TraceEvent& event : recorder.Collect()) {
    if (std::string_view(event.name) != "rr_sample_batch") continue;
    ++batches;
    tids.insert(event.tid);
  }
  recorder.Clear();
  EXPECT_EQ(batches, 32u);
  EXPECT_LE(tids.size(), 4u);
}

TEST_F(SampleStoreTest, DifferentSignaturesGetIndependentPools) {
  RrSampleStore store(&graph_, {.seed = 42, .chunk_sets = 128});
  RrSampleStore::AdPool* a = store.Acquire(1, probs_);
  RrSampleStore::AdPool* b = store.Acquire(2, probs_);
  EXPECT_NE(a, b);
  EXPECT_EQ(store.Acquire(1, probs_), a);  // same key -> same entry
  store.EnsureSets(a, 128);
  store.EnsureSets(b, 128);
  EXPECT_NE(SetsOf(a->sets()), SetsOf(b->sets()));
}

// Signature keying keeps ads independent (the paper's per-ad R_j): even
// identically-distributed ads sampling one probability array (kShared
// mode) get distinct signatures, and so distinct pools.
TEST_F(SampleStoreTest, SignatureKeyingKeepsIdenticalAdsIndependent) {
  auto probs = std::make_unique<EdgeProbabilities>(
      EdgeProbabilities::WeightedCascade(graph_));  // kShared mode
  auto ctps = std::make_unique<ClickProbabilities>(
      ClickProbabilities::Constant(graph_.num_nodes(), 2, 1.0));
  std::vector<Advertiser> ads(2);
  for (auto& a : ads) {
    a.gamma = TopicDistribution::Uniform(1);
    a.budget = 5.0;
  }
  const ProblemInstance inst = ProblemInstance::WithUniformAttention(
      &graph_, probs.get(), ctps.get(), ads, 1, 0.0);

  RrSampleStore store(&graph_, {.seed = 1});
  const std::uint64_t sig0 = store.SignatureForAd(inst, 0);
  const std::uint64_t sig1 = store.SignatureForAd(inst, 1);
  EXPECT_NE(sig0, sig1);
  RrSampleStore::AdPool* a = store.Acquire(sig0, inst.EdgeProbsForAd(0));
  RrSampleStore::AdPool* b = store.Acquire(sig1, inst.EdgeProbsForAd(1));
  EXPECT_NE(a, b);
  EXPECT_EQ(store.NumEntries(), 2u);
}

TEST_F(SampleStoreTest, KptCacheHitsOnRepeat) {
  RrSampleStore store(&graph_, {.seed = 5});
  RrSampleStore::AdPool* entry = store.Acquire(1, probs_);
  const KptEstimator::Options options{.ell = 1.0, .max_samples = 1 << 12};
  bool hit = true;
  const KptEstimator& first = store.EnsureKpt(entry, options, 1, &hit);
  EXPECT_FALSE(hit);
  const double kpt1 = first.ReEstimate(1);
  const KptEstimator& second = store.EnsureKpt(entry, options, 1, &hit);
  EXPECT_TRUE(hit);
  EXPECT_DOUBLE_EQ(second.ReEstimate(1), kpt1);
  // Different options invalidate the cache.
  store.EnsureKpt(entry, {.ell = 2.0, .max_samples = 1 << 12}, 1, &hit);
  EXPECT_FALSE(hit);
  const SampleCacheStats stats = store.LifetimeStats();
  EXPECT_EQ(stats.kpt_estimations, 3u);
  EXPECT_EQ(stats.kpt_cache_hits, 1u);
}

// Part buffers are exact-size: after top-ups at one thread and at four, a
// pool holds 4 B per member and 8 B per set and per part, with no slack.
TEST_F(SampleStoreTest, PoolBytesAreMembersAndOffsetsWithoutSlack) {
  constexpr std::uint64_t kChunk = 256;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    RrSampleStore store(&graph_, {.seed = 3, .chunk_sets = kChunk});
    RrSampleStore::AdPool* entry = store.Acquire(1, probs_);
    store.EnsureSets(entry, 600, 0, threads);  // 3 chunks
    store.EnsureSets(entry, 1000, 0, threads);  // and 1 more
    const RrSetPool& pool = entry->sets();
    ASSERT_EQ(pool.NumSets(), 4 * kChunk);
    std::size_t members = 0;
    for (std::uint32_t id = 0; id < pool.NumSets(); ++id) {
      members += pool.SetMembers(id).size();
    }
    const std::size_t parts = 4 * ParallelRrBuilder::PartsPerChunk(kChunk);
    EXPECT_EQ(pool.TransposeBytes(), 0u);
    EXPECT_EQ(pool.MemoryBytes(), 4 * members + 8 * (pool.NumSets() + parts));
  }
}

// Concurrent top-ups — same entry and different entries, each racing
// thread sampling at its own thread count — must be safe (run under
// ThreadSanitizer in CI) and leave the pools a one-thread reference store
// samples. The 256-set chunks split into parts, so every racing top-up at
// more than one thread runs its own multi-threaded fan-out.
TEST_F(SampleStoreTest, ConcurrentEnsureSetsIsSafeAndDeterministic) {
  constexpr std::uint64_t kChunk = 256;
  const RrSampleStore::Options options{.seed = 99, .chunk_sets = kChunk};
  RrSampleStore store(&graph_, options);
  RrSampleStore::AdPool* shared = store.Acquire(77, probs_);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&store, shared, t, this] {
      const int num_threads = 1 + t % 4;
      // Same entry, racing targets...
      store.EnsureSets(shared, kChunk * static_cast<std::uint64_t>(t + 1), 0,
                       num_threads);
      // ...plus a per-thread entry created under the store lock.
      RrSampleStore::AdPool* own =
          store.Acquire(1000 + static_cast<std::uint64_t>(t), probs_);
      store.EnsureSets(own, 2 * kChunk, 0, num_threads);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(shared->sets().NumSets(), kChunk * 8);
  EXPECT_EQ(store.NumEntries(), 9u);

  RrSampleStore reference(&graph_, options);
  RrSampleStore::AdPool* ref = reference.Acquire(77, probs_);
  reference.EnsureSets(ref, kChunk * 8, 0, 1);
  EXPECT_EQ(SetsOf(shared->sets()), SetsOf(ref->sets()));
  for (std::uint64_t t = 0; t < 8; ++t) {
    RrSampleStore::AdPool* ref_own = reference.Acquire(1000 + t, probs_);
    reference.EnsureSets(ref_own, 2 * kChunk, 0, 1);
    EXPECT_EQ(SetsOf(store.Acquire(1000 + t, probs_)->sets()),
              SetsOf(ref_own->sets()))
        << "entry " << 1000 + t;
  }
}

// The pool guards its own growth: one thread runs TIRM over a prefix of a
// shared store's pools, again and again, while another runs TIRM at a
// larger θ on the same store, topping the same pools up past that prefix
// and extending their index. Clean under TSan in CI; every allocation
// equals its one-thread golden, at sampling threads 1 and 4.
TEST(SharedPoolRaceTest, TirmReadsAPrefixWhileAnotherRunGrowsThePools) {
  Rng build_rng(kSeed);
  const BuiltInstance built = BuildDataset(FlixsterLike(0.003), build_rng);
  const ProblemInstance inst = built.MakeInstance(2, 0.0);
  TirmOptions prefix;
  prefix.theta.epsilon = 0.4;
  prefix.theta.theta_cap = 1 << 13;
  prefix.sample_store_seed = kSeed;
  TirmOptions grower = prefix;
  grower.theta.epsilon = 0.25;
  grower.theta.theta_cap = 1 << 15;
  const auto run = [&inst](TirmOptions options, int threads,
                           RrSampleStore* store) {
    options.num_threads = threads;
    options.sample_store = store;
    Rng rng(kSeed);
    return RunTirm(inst, options, rng);
  };
  const TirmResult prefix_golden = run(prefix, 1, nullptr);
  const TirmResult grower_golden = run(grower, 1, nullptr);
  ASSERT_GT(grower_golden.total_rr_sets, prefix_golden.total_rr_sets);

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    RrSampleStore store(&inst.graph(), {.seed = kSeed});
    // The prefix is pooled before the race, so the reader samples nothing.
    EXPECT_EQ(run(prefix, threads, &store).allocation.seeds,
              prefix_golden.allocation.seeds);
    std::atomic<bool> grown{false};
    std::vector<std::vector<std::vector<NodeId>>> read;
    std::thread reader([&] {
      do {
        read.push_back(run(prefix, threads, &store).allocation.seeds);
      } while (!grown.load());
    });
    const TirmResult grower_run = run(grower, threads, &store);
    grown.store(true);
    reader.join();
    EXPECT_GT(grower_run.cache.sampled_sets, 0u);
    EXPECT_EQ(grower_run.allocation.seeds, grower_golden.allocation.seeds);
    for (const auto& seeds : read) {
      EXPECT_EQ(seeds, prefix_golden.allocation.seeds);
    }
  }
}

// --------------------------------------------------- arena-direct pool path

// Golden gate for the arena-direct top-up: a store pool must hold exactly
// the sets of the parts its builder samples, replayed by hand from the
// same per-chunk substreams — ids, members, and transpose rows — whatever
// thread count the store top-up and the replay sample at.
TEST(ArenaDirectGoldenTest, StoreTopUpMatchesSampledParts) {
  Rng grng(7);
  const Graph g = ErdosRenyiGraph(60, 300, grng);
  const std::vector<float> probs(g.num_edges(), 0.2f);
  constexpr std::uint64_t kStoreSeed = 123;
  constexpr std::uint64_t kSignature = 7;
  constexpr std::uint64_t kChunk = 256;

  // Replay: the store's substreams, one chunk per call, parts kept as
  // sets — the fixed layout of 4 parts per chunk at every thread count.
  ParallelRrBuilder builder(g, probs);
  const std::uint64_t base_seed = MixHash(kStoreSeed, kSignature);
  std::vector<std::vector<NodeId>> sampled;
  for (std::uint64_t c = 0; c < 3; ++c) {
    Rng master(MixHash(base_seed, 0x2000 + c));
    const std::vector<std::vector<Batch>> chunks = builder.SampleChunks(
        kChunk, {&master, 1}, /*num_threads=*/1 + static_cast<int>(c));
    EXPECT_EQ(chunks[0].size(), 4u);
    for (std::vector<NodeId>& set : SetsOf(chunks)) {
      sampled.push_back(std::move(set));
    }
  }

  for (const int threads : {1, 2, 3, 4, 8}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    RrSampleStore store(&g, {.seed = kStoreSeed, .chunk_sets = kChunk});
    RrSampleStore::AdPool* entry = store.Acquire(kSignature, probs);
    const auto ensured = store.EnsureSets(entry, 600, 0, threads);  // 3 chunks
    EXPECT_EQ(ensured.sampled, 3 * kChunk);
    EXPECT_GT(ensured.max_traversal, 0u);
    const RrSetPool& pool = entry->sets();
    ASSERT_EQ(pool.NumSets(), sampled.size());
    EXPECT_EQ(SetsOf(pool), sampled);
    const auto count = static_cast<std::uint32_t>(sampled.size());
    ExpectRowsMatch(pool.EnsureTranspose(count), sampled);
  }
}

// ------------------------------------------------------ traversal telemetry

TEST(MaxTraversalStatTest, SurfacesThroughBatchStoreAndLifetimeStats) {
  Rng grng(7);
  const Graph g = ErdosRenyiGraph(60, 300, grng);
  const std::vector<float> probs(g.num_edges(), 0.2f);

  ParallelRrBuilder builder(g, probs);
  Rng rng(5);
  const std::vector<std::vector<Batch>> chunks =
      builder.SampleChunks(300, {&rng, 1}, 2);
  for (const Batch& part : chunks[0]) {
    EXPECT_GT(part.max_traversal, 0u);  // every traversal visits >= the root
    EXPECT_LE(part.max_traversal, static_cast<std::uint64_t>(g.num_nodes()));
  }

  RrSampleStore store(&g, {.seed = 11, .chunk_sets = 128});
  RrSampleStore::AdPool* entry = store.Acquire(1, probs);
  const auto grown = store.EnsureSets(entry, 128);
  EXPECT_GT(grown.max_traversal, 0u);
  EXPECT_GE(store.LifetimeStats().max_traversal, grown.max_traversal);
  // Pure reuse samples nothing, so it reports no traversal.
  const auto reused = store.EnsureSets(entry, 64);
  EXPECT_EQ(reused.max_traversal, 0u);
}

// --------------------------------------------- golden: pooled == fresh

AllocatorConfig SmallConfig(const std::string& name) {
  AllocatorConfig config;
  config.allocator = name;
  config.eps = 0.25;
  config.theta_cap = 1 << 15;
  config.mc_sims = 50;
  return config;
}

// The engine with reuse disabled resamples per query through private
// stores seeded like the shared one — allocations must be bit-identical
// for every registered allocator, on every sweep point.
TEST(SampleReuseGoldenTest, PooledMatchesFreshForAllFiveAllocators) {
  AdAllocEngine pooled(BuildFigure1Instance(),
                       {.eval_sims = 200, .seed = kSeed,
                        .reuse_samples = true});
  AdAllocEngine fresh(BuildFigure1Instance(),
                      {.eval_sims = 200, .seed = kSeed,
                       .reuse_samples = false});
  for (const char* name :
       {"tirm", "greedy-mc", "greedy-irie", "myopic", "myopic+"}) {
    for (const double lambda : {0.0, 0.5}) {
      Result<EngineRun> a = pooled.Run(SmallConfig(name), {.lambda = lambda});
      Result<EngineRun> b = fresh.Run(SmallConfig(name), {.lambda = lambda});
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(a->result.allocation.seeds, b->result.allocation.seeds)
          << name << " lambda=" << lambda;
      EXPECT_EQ(a->result.estimated_revenue, b->result.estimated_revenue)
          << name << " lambda=" << lambda;
      EXPECT_DOUBLE_EQ(a->report.total_regret, b->report.total_regret)
          << name << " lambda=" << lambda;
    }
  }
  // Only the pooled engine kept a store, and only sampling allocators
  // touched it.
  ASSERT_NE(pooled.sample_store(), nullptr);
  EXPECT_EQ(fresh.sample_store(), nullptr);
  EXPECT_GT(pooled.sample_store()->LifetimeStats().reused_sets, 0u);
}

// θ grown in one step (warm pool, second query attaches in one jump) vs
// organically (first query grows step by step) yields identical
// allocations — the run-level corollary of chunked top-up determinism.
TEST(SampleReuseGoldenTest, WarmPoolRunMatchesColdRun) {
  Rng build_rng(77);
  const BuiltInstance built = BuildDataset(FlixsterLike(0.01), build_rng);
  const ProblemInstance inst = built.MakeInstance(2, 0.1);

  TirmOptions options;
  options.theta.epsilon = 0.25;
  options.theta.theta_cap = 1 << 15;
  options.sample_store_seed = 1234;

  Rng cold_rng(kSeed);
  const TirmResult cold = RunTirm(inst, options, cold_rng);
  EXPECT_FALSE(cold.cache.shared_store);
  EXPECT_EQ(cold.cache.reused_sets, 0u);
  EXPECT_GT(cold.cache.sampled_sets, 0u);
  EXPECT_GT(cold.cache.arena_bytes, 0u);
  EXPECT_EQ(cold.rr_memory_bytes,
            cold.cache.arena_bytes + cold.cache.view_bytes);

  RrSampleStore store(&inst.graph(), {.seed = 1234});
  options.sample_store = &store;
  Rng warm_rng(kSeed);
  const TirmResult prime = RunTirm(inst, options, warm_rng);  // fills pools
  EXPECT_EQ(prime.allocation.seeds, cold.allocation.seeds);
  Rng warm_rng2(kSeed);
  const TirmResult warm = RunTirm(inst, options, warm_rng2);
  EXPECT_EQ(warm.allocation.seeds, cold.allocation.seeds);
  EXPECT_EQ(warm.estimated_revenue, cold.estimated_revenue);
  EXPECT_TRUE(warm.cache.shared_store);
  EXPECT_EQ(warm.cache.sampled_sets, 0u);  // fully served from the pool
  EXPECT_GT(warm.cache.reused_sets, 0u);
}

// ------------------------------------------------------ engine-level reuse

// A λ-sweep samples each ad's RR sets at most once per (ad, max-θ):
// re-running every point after the sweep draws nothing new.
TEST(AdAllocEngineReuseTest, LambdaSweepSamplesAtMostOncePerAdTheta) {
  AdAllocEngine engine(BuildFigure1Instance(),
                       {.eval_sims = 100, .seed = kSeed});
  const std::vector<double> lambdas = {0.0, 0.1, 0.25, 0.5, 1.0};
  std::vector<std::vector<std::vector<NodeId>>> first_pass;
  for (const double lambda : lambdas) {
    Result<EngineRun> run = engine.Run(SmallConfig("tirm"), {.lambda = lambda});
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    first_pass.push_back(run->result.allocation.seeds);
  }
  ASSERT_NE(engine.sample_store(), nullptr);
  const std::uint64_t sampled_after_sweep =
      engine.sample_store()->LifetimeStats().sampled_sets;
  EXPECT_GT(sampled_after_sweep, 0u);

  // Second pass over the same points: pure reuse, identical allocations.
  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    Result<EngineRun> run =
        engine.Run(SmallConfig("tirm"), {.lambda = lambdas[i]});
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->result.allocation.seeds, first_pass[i])
        << "lambda=" << lambdas[i];
    EXPECT_EQ(run->result.cache.sampled_sets, 0u) << "lambda=" << lambdas[i];
    EXPECT_TRUE(run->result.cache.shared_store);
  }
  EXPECT_EQ(engine.sample_store()->LifetimeStats().sampled_sets,
            sampled_after_sweep);
}

// One engine keeps one store for every thread count: a threads=4 run after
// a threads=1 run returns the same allocation from the warm pools and
// samples nothing.
TEST(AdAllocEngineReuseTest, OneStoreServesEveryThreadCount) {
  Rng build_rng(77);
  AdAllocEngine engine(BuildDataset(FlixsterLike(0.01), build_rng),
                       {.eval_sims = 50, .seed = kSeed});
  AllocatorConfig config = SmallConfig("tirm");
  config.num_threads = 1;
  Result<EngineRun> serial = engine.Run(config, {.kappa = 2});
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_GT(serial->result.cache.sampled_sets, 0u);
  config.num_threads = 4;
  Result<EngineRun> parallel = engine.Run(config, {.kappa = 2});
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(parallel->result.allocation.seeds, serial->result.allocation.seeds);
  EXPECT_EQ(parallel->result.estimated_revenue,
            serial->result.estimated_revenue);
  EXPECT_EQ(parallel->result.cache.sampled_sets, 0u);
  EXPECT_EQ(engine.sample_store()->LifetimeStats().sampled_sets,
            serial->result.cache.sampled_sets);
}

// ------------------------------------------------ pinned across commits

// The goldens above compare two paths inside one binary. These pin what
// the one write path (ParallelRrBuilder::SampleChunks -> AdoptChunk) puts
// into a pool, and what RunTim and TIRM compute from it, to constants
// recorded from an earlier implementation — so a change that alters pool
// contents fails here even when every in-binary comparison still agrees.

std::uint64_t HashPool(const RrSetPool& pool) {
  std::uint64_t h = kFnvOffsetBasis;
  for (std::uint32_t id = 0; id < pool.NumSets(); ++id) {
    const std::span<const NodeId> members = pool.SetMembers(id);
    const auto size = static_cast<std::uint64_t>(members.size());
    h = HashBytes(h, &size, sizeof(size));
    h = HashBytes(h, members.data(), members.size() * sizeof(NodeId));
  }
  // Each node's ascending list of set ids, derived from the members: part
  // of the bytes the constants below were recorded over.
  std::vector<std::vector<std::uint32_t>> lists(pool.num_nodes());
  for (std::uint32_t id = 0; id < pool.NumSets(); ++id) {
    for (const NodeId v : pool.SetMembers(id)) lists[v].push_back(id);
  }
  for (const std::vector<std::uint32_t>& ids : lists) {
    h = HashBytes(h, ids.data(), ids.size() * sizeof(std::uint32_t));
  }
  return FinalizeHash(h);
}

std::uint64_t HashSeeds(const std::vector<std::vector<NodeId>>& seeds) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const std::vector<NodeId>& ad : seeds) {
    const auto size = static_cast<std::uint64_t>(ad.size());
    h = HashBytes(h, &size, sizeof(size));
    h = HashBytes(h, ad.data(), ad.size() * sizeof(NodeId));
  }
  return FinalizeHash(h);
}

std::string Hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

constexpr int kThreadCounts[] = {1, 2, 3, 4, 8};

// Ad 0's pool of a K=1 store: θ = 3500 spans four 1024-set chunks and is
// reached in two top-ups at `threads` threads; every chunk is adopted in 4
// parts.
std::uint64_t PinnedPoolHash(const DatasetSpec& spec, int threads) {
  Rng build_rng(kSeed);
  const BuiltInstance built = BuildDataset(spec, build_rng);
  const ProblemInstance inst = built.MakeInstance(1, 0.0);
  RrSampleStore store(&inst.graph(), {.seed = kSeed, .chunk_sets = 1024});
  RrSampleStore::AdPool* entry =
      store.Acquire(store.SignatureForAd(inst, 0), inst.EdgeProbsForAd(0));
  EXPECT_EQ(store.EnsureSets(entry, 1500, 0, threads).sampled, 2048u);
  EXPECT_EQ(store.EnsureSets(entry, 3500, 0, threads).sampled, 2048u);
  EXPECT_EQ(entry->sets().NumSets(), 4096u);
  return HashPool(entry->sets());
}

// One pool per dataset, whatever the thread count. The constants were
// recorded at 4 threads, when a chunk still split into one part per
// thread; that layout is now the fixed one.
TEST(PinnedGoldenTest, PoolContents) {
  struct Case {
    const char* name;
    DatasetSpec spec;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"flixster", FlixsterLike(0.003), 0xd52bd1fa418459e5ULL},
      {"dblp_wc", DblpLike(0.001), 0xf14bda640f1aa594ULL},
  };
  for (const Case& c : cases) {
    for (const int threads : kThreadCounts) {
      const std::uint64_t hash = PinnedPoolHash(c.spec, threads);
      EXPECT_EQ(hash, c.hash) << c.name << " threads=" << threads
                              << " got " << Hex(hash);
    }
  }
}

TEST(PinnedGoldenTest, RunTimSeedsAndTheta) {
  Rng build_rng(kSeed);
  const BuiltInstance built = BuildDataset(DblpLike(0.001), build_rng);
  const ProblemInstance inst = built.MakeInstance(1, 0.0);
  TimOptions options;
  options.theta.epsilon = 0.3;
  options.kpt_max_samples = 1 << 14;
  Rng rng(kSeed);
  const TimResult tim =
      RunTim(inst.graph(), inst.EdgeProbsForAd(0), 5, options, rng);
  EXPECT_EQ(tim.theta, 75295u);
  EXPECT_EQ(tim.seeds, (std::vector<NodeId>{0, 4, 1, 32, 2}));
}

// Recorded at 4 threads, like the pool constants above.
TEST(PinnedGoldenTest, TirmAllocationSeeds) {
  Rng build_rng(kSeed);
  const BuiltInstance built = BuildDataset(FlixsterLike(0.003), build_rng);
  const ProblemInstance inst = built.MakeInstance(2, 0.0);
  constexpr std::uint64_t kExpected = 0xb738b5d4c393e556ULL;
  for (const int threads : kThreadCounts) {
    TirmOptions options;
    options.theta.epsilon = 0.25;
    options.theta.theta_cap = 1 << 15;
    options.num_threads = threads;
    options.sample_store_seed = kSeed;
    Rng rng(kSeed);
    const TirmResult result = RunTirm(inst, options, rng);
    const std::uint64_t hash = HashSeeds(result.allocation.seeds);
    EXPECT_EQ(hash, kExpected) << "threads=" << threads << " got "
                              << Hex(hash) << ", "
                              << result.allocation.TotalSeeds() << " seeds";
  }
}

// -------------------------------------------- weighted CELF heap (satellite)

TEST(WeightedCoverageHeapTest, MatchesLinearArgMaxUnderCommits) {
  Rng rng(3);
  std::vector<std::vector<NodeId>> sets(400);
  for (std::vector<NodeId>& set : sets) {
    const int size = 1 + static_cast<int>(rng.UniformBelow(4));
    for (int k = 0; k < size; ++k) {
      const NodeId v = static_cast<NodeId>(rng.UniformBelow(40));
      if (std::find(set.begin(), set.end(), v) == set.end()) set.push_back(v);
    }
  }
  const std::unique_ptr<RrSetPool> pool = MakePool(40, sets);
  WeightedRrCollection c(pool.get());
  c.AttachUpTo(400);
  WeightedCoverageHeap heap(&c);
  auto all = [](NodeId) { return true; };
  for (int step = 0; step < 25; ++step) {
    const NodeId expected = c.ArgMaxCoverage(all);
    const NodeId got = heap.PopBest(all);
    ASSERT_EQ(got, expected) << "step " << step;
    if (got == kInvalidNode) break;
    c.CommitSeed(got, 0.4);
    heap.Push(got, c.CoverageOf(got));
  }
}

TEST(WeightedCoverageHeapTest, EligibilityAndRebuild) {
  const std::unique_ptr<RrSetPool> pool =
      MakePool(3, {{0}, {0}, {1}, {2}, {2}, {2}});
  WeightedRrCollection c(pool.get());
  c.AttachUpTo(3);
  WeightedCoverageHeap heap(&c);
  EXPECT_EQ(heap.PopBest([](NodeId v) { return v != 0; }), 1u);
  c.AttachUpTo(6);
  heap.Rebuild();
  EXPECT_EQ(heap.PopBest([](NodeId) { return true; }), 2u);
}

}  // namespace
}  // namespace tirm
