// Sampler-kernel suite: flag parsing / kAuto resolution, per-node row
// classification (weighted-cascade rows must qualify for geometric skip
// wholesale), exactness anchors for the skip traversal (p = 0, p = 1, and
// an exact-spread gadget), statistical equivalence between the classic and
// skip kernels (mean set size, KPT, TIRM end-to-end, and the five-allocator
// engine head-to-head — skip is opt-in and gated by exactly these tests),
// skip self-determinism across thread counts, the arena-direct pool path
// (a store top-up holds exactly the sets of its sampled parts, byte for
// byte), and concurrent skip top-ups (run under TSan in CI).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/regret_evaluator.h"
#include "alloc/tirm.h"
#include "api/ad_alloc_engine.h"
#include "common/hashing.h"
#include "common/rng.h"
#include "coverage_oracle.h"
#include "datasets/dataset.h"
#include "diffusion/exact_spread.h"
#include "graph/generators.h"
#include "rrset/parallel_rr_builder.h"
#include "rrset/rr_sampler.h"
#include "rrset/sample_store.h"
#include "rrset/sampler_kernel.h"
#include "tirm_test_util.h"
#include "topic/instance.h"

namespace tirm {
namespace {

using Batch = ParallelRrBuilder::Batch;
using RowKind = SamplerRowClass::RowKind;

/// Weighted-cascade probabilities built by hand (p = 1/indeg for every
/// in-edge of v): exactly what EdgeProbabilities::WeightedCascade assigns,
/// but as a raw per-edge array the sampler-layer tests can own directly.
std::vector<float> WeightedCascadeProbs(const Graph& g) {
  std::vector<float> probs(g.num_edges(), 0.0f);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::size_t indeg = g.InDegree(v);
    if (indeg == 0) continue;
    const float p = 1.0f / static_cast<float>(indeg);
    for (const EdgeId e : g.InEdgeIds(v)) probs[e] = p;
  }
  return probs;
}

// ----------------------------------------------------------- flag parsing

TEST(SamplerKernelParseTest, ParsesKnownNamesAndRejectsUnknown) {
  ASSERT_TRUE(ParseSamplerKernel("auto").ok());
  EXPECT_EQ(ParseSamplerKernel("auto").value(), SamplerKernel::kAuto);
  ASSERT_TRUE(ParseSamplerKernel("classic").ok());
  EXPECT_EQ(ParseSamplerKernel("classic").value(), SamplerKernel::kClassic);
  ASSERT_TRUE(ParseSamplerKernel("skip").ok());
  EXPECT_EQ(ParseSamplerKernel("skip").value(), SamplerKernel::kSkip);
  EXPECT_FALSE(ParseSamplerKernel("geometric").ok());
  EXPECT_FALSE(ParseSamplerKernel("").ok());
}

TEST(SamplerKernelParseTest, NamesRoundTripThroughParse) {
  for (const SamplerKernel k :
       {SamplerKernel::kAuto, SamplerKernel::kClassic, SamplerKernel::kSkip}) {
    const Result<SamplerKernel> back = ParseSamplerKernel(SamplerKernelName(k));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), k);
  }
}

// Unlike the coverage kernel (auto == bitmap), auto must resolve to the
// classic golden reference — skip changes random-stream consumption.
TEST(SamplerKernelParseTest, AutoResolvesToClassic) {
  EXPECT_EQ(ResolveSamplerKernel(SamplerKernel::kAuto),
            SamplerKernel::kClassic);
  EXPECT_EQ(ResolveSamplerKernel(SamplerKernel::kClassic),
            SamplerKernel::kClassic);
  EXPECT_EQ(ResolveSamplerKernel(SamplerKernel::kSkip), SamplerKernel::kSkip);
}

// ------------------------------------------------------ row classification

TEST(SamplerRowClassTest, ClassifiesEachRowKind) {
  // 2 -> mixed {0.3, 0.7}; 3 -> uniform 0.4; 4 -> uniform 0; 5 -> uniform 1.
  const Graph g = Graph::FromEdges(
      6, {{0, 2}, {0, 3}, {0, 4}, {0, 5}, {1, 2}, {1, 3}});
  std::vector<float> probs(g.num_edges(), 0.0f);
  auto set_prob = [&](NodeId v, NodeId src, float p) {
    const auto sources = g.InNeighbors(v);
    const auto edges = g.InEdgeIds(v);
    for (std::size_t j = 0; j < sources.size(); ++j) {
      if (sources[j] == src) probs[edges[j]] = p;
    }
  };
  set_prob(2, 0, 0.3f);
  set_prob(2, 1, 0.7f);
  set_prob(3, 0, 0.4f);
  set_prob(3, 1, 0.4f);
  set_prob(4, 0, 0.0f);
  set_prob(5, 0, 1.0f);

  const SamplerRowClass rows(g, probs);
  ASSERT_EQ(rows.num_nodes(), 6u);
  EXPECT_EQ(rows.Kind(0), RowKind::kBlocked);  // indeg 0
  EXPECT_EQ(rows.Kind(1), RowKind::kBlocked);  // indeg 0
  EXPECT_EQ(rows.Kind(2), RowKind::kMixed);
  EXPECT_EQ(rows.Kind(3), RowKind::kGeometric);
  EXPECT_EQ(rows.Kind(4), RowKind::kBlocked);  // uniform p = 0
  EXPECT_EQ(rows.Kind(5), RowKind::kAlways);   // uniform p = 1
  EXPECT_FLOAT_EQ(rows.UniformProb(3), 0.4f);
  EXPECT_LT(rows.InvLog1mP(3), 0.0);  // 1/log1p(-p) is negative
  EXPECT_EQ(rows.geometric_rows(), 1u);
  EXPECT_EQ(rows.mixed_rows(), 1u);
  EXPECT_GT(rows.MemoryBytes(), 0u);
}

// Weighted cascade assigns p = 1/indeg to every in-edge of a node, so every
// row must be uniform — the instance class the skip kernel targets.
TEST(SamplerRowClassTest, WeightedCascadeRowsAreUniformWholesale) {
  Rng rng(21);
  const Graph g = RMatGraph(10, 8000, rng);
  const std::vector<float> probs = WeightedCascadeProbs(g);
  const SamplerRowClass rows(g, probs);
  EXPECT_EQ(rows.mixed_rows(), 0u);
  EXPECT_GT(rows.geometric_rows(), 0u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.InDegree(v) == 0) {
      EXPECT_EQ(rows.Kind(v), RowKind::kBlocked);
    } else if (g.InDegree(v) == 1) {
      // p = 1/1: the whole row always fires.
      EXPECT_EQ(rows.Kind(v), RowKind::kAlways);
    } else {
      EXPECT_EQ(rows.Kind(v), RowKind::kGeometric);
    }
  }
}

// ------------------------------------------------------------- rng support

TEST(RngTest, FillUniformFloatsMatchesSequentialNextFloat) {
  Rng bulk(99), sequential(99);
  std::array<float, 64> filled{};
  bulk.FillUniformFloats(filled);
  for (const float v : filled) {
    EXPECT_EQ(v, sequential.NextFloat());
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 1.0f);
  }
}

// ---------------------------------------------------- skip-kernel exactness

TEST(SkipKernelTest, ProbabilityOneVisitsEveryAncestor) {
  const Graph g = PathGraph(5);  // 0 -> 1 -> ... -> 4
  const std::vector<float> probs(g.num_edges(), 1.0f);
  RrSampler sampler(g, probs, SamplerKernel::kSkip);
  Rng rng(3);
  std::vector<NodeId> out;
  for (NodeId root = 0; root < 5; ++root) {
    sampler.SampleWithRoot(root, rng, out);
    // All ancestors 0..root are reached with certainty.
    EXPECT_EQ(out.size(), static_cast<std::size_t>(root) + 1);
    EXPECT_EQ(sampler.last_traversal(), static_cast<std::size_t>(root) + 1);
  }
}

TEST(SkipKernelTest, ProbabilityZeroYieldsSingletonRoots) {
  Rng grng(8);
  const Graph g = ErdosRenyiGraph(40, 200, grng);
  const std::vector<float> probs(g.num_edges(), 0.0f);
  RrSampler sampler(g, probs, SamplerKernel::kSkip);
  Rng rng(4);
  std::vector<NodeId> out;
  for (int i = 0; i < 50; ++i) {
    const NodeId root = sampler.SampleInto(rng, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], root);
  }
}

// Proposition 1 anchor (mirrors the classic-kernel test in
// parallel_rr_test.cc): n * P[u in R] estimates sigma({u}) exactly.
TEST(SkipKernelTest, SpreadEstimateMatchesExactSpread) {
  const Graph g = PathGraph(3);  // 0 -> 1 -> 2, p = 0.5
  const std::vector<float> probs(g.num_edges(), 0.5f);
  const std::vector<NodeId> seed0 = {0};
  const double sigma0 = ExactSpread(g, probs, seed0);  // 1.75

  RrSampler sampler(g, probs, SamplerKernel::kSkip);
  Rng rng(7);
  std::vector<NodeId> set;
  const int trials = 60000;
  int hits = 0;
  for (int i = 0; i < trials; ++i) {
    sampler.SampleInto(rng, set);
    for (const NodeId v : set) hits += (v == 0);
  }
  const double estimate = 3.0 * static_cast<double>(hits) / trials;
  EXPECT_NEAR(estimate, sigma0, 0.05);
}

// ------------------------------------------------- statistical equivalence

// Classic and skip consume the random stream differently but must induce
// the same distribution over RR sets: mean set size and mean width agree
// within Monte-Carlo tolerance on a weighted-cascade instance.
TEST(SkipKernelTest, MeanSetSizeAndWidthMatchClassic) {
  Rng grng(33);
  const Graph g = RMatGraph(10, 8000, grng);
  const std::vector<float> probs = WeightedCascadeProbs(g);

  auto sample_means = [&](SamplerKernel kernel, std::uint64_t seed) {
    RrSampler sampler(g, probs, kernel);
    Rng rng(seed);
    std::vector<NodeId> set;
    const int trials = 20000;
    double size_sum = 0.0, width_sum = 0.0;
    for (int i = 0; i < trials; ++i) {
      sampler.SampleInto(rng, set);
      size_sum += static_cast<double>(set.size());
      width_sum += static_cast<double>(sampler.last_width());
    }
    return std::pair<double, double>(size_sum / trials, width_sum / trials);
  };

  const auto [classic_size, classic_width] =
      sample_means(SamplerKernel::kClassic, 111);
  const auto [skip_size, skip_width] = sample_means(SamplerKernel::kSkip, 222);
  ASSERT_GT(classic_size, 1.0);
  EXPECT_NEAR(skip_size / classic_size, 1.0, 0.10);
  EXPECT_NEAR(skip_width / classic_width, 1.0, 0.10);
}

// KPT* is a function of the sampled width multiset only; classic and skip
// widths are equidistributed, so cached-KPT estimates from stores on the
// two kernels must agree within tolerance.
TEST(SkipKernelTest, StoreKptEstimateMatchesClassicWithinTolerance) {
  Rng grng(33);
  const Graph g = RMatGraph(10, 8000, grng);
  const std::vector<float> probs = WeightedCascadeProbs(g);
  const KptEstimator::Options kpt_options{.ell = 1.0, .max_samples = 1 << 14};

  auto kpt_for = [&](SamplerKernel kernel) {
    RrSampleStore store(&g, {.seed = 77, .sampler_kernel = kernel});
    RrSampleStore::AdPool* entry = store.Acquire(1, probs);
    return store.EnsureKpt(entry, kpt_options, 1).ReEstimate(1);
  };

  const double classic = kpt_for(SamplerKernel::kClassic);
  const double skip = kpt_for(SamplerKernel::kSkip);
  ASSERT_GE(classic, 1.0);
  ASSERT_GE(skip, 1.0);
  EXPECT_NEAR(skip / classic, 1.0, 0.25);
}

// End-to-end gate: TIRM under the skip kernel must produce an allocation of
// the same ground-truth quality as under classic — same evaluator streams,
// revenue and regret within the tolerance the serial-vs-parallel test uses.
TEST(SkipKernelTest, TirmAllocationQualityMatchesClassic) {
  TestInstance s = MakeRMatInstance(2, 100.0);
  ProblemInstance inst = s.Make(1, 0.0);

  TirmOptions classic_options = FastOptions(2);
  classic_options.sampler_kernel = SamplerKernel::kClassic;
  TirmOptions skip_options = FastOptions(2);
  skip_options.sampler_kernel = SamplerKernel::kSkip;

  Rng rng_classic(42), rng_skip(42);
  const TirmResult classic = RunTirm(inst, classic_options, rng_classic);
  const TirmResult skip = RunTirm(inst, skip_options, rng_skip);
  ASSERT_GT(classic.allocation.TotalSeeds(), 0u);
  ASSERT_GT(skip.allocation.TotalSeeds(), 0u);

  RegretEvaluator evaluator(&inst, {.num_sims = 2000});
  Rng eval_a(777), eval_b(777);
  const RegretReport classic_report =
      evaluator.Evaluate(classic.allocation, eval_a);
  const RegretReport skip_report = evaluator.Evaluate(skip.allocation, eval_b);
  ASSERT_GT(classic_report.total_revenue, 0.0);
  EXPECT_NEAR(skip_report.total_revenue / classic_report.total_revenue, 1.0,
              0.15);
  EXPECT_NEAR(skip_report.RegretFractionOfBudget(),
              classic_report.RegretFractionOfBudget(), 0.10);
}

// Engine head-to-head: every registered allocator run with
// --sampler_kernel=skip must match its classic run's evaluated quality.
// (Non-sampling allocators are bit-identical; sampling ones statistical.)
TEST(SkipKernelTest, AllFiveAllocatorsMatchClassicQuality) {
  AdAllocEngine engine(BuildFigure1Instance(),
                       {.eval_sims = 500, .seed = 2015});
  for (const char* name :
       {"tirm", "greedy-mc", "greedy-irie", "myopic", "myopic+"}) {
    AllocatorConfig config;
    config.allocator = name;
    config.eps = 0.25;
    config.theta_cap = 1 << 15;
    config.mc_sims = 50;
    config.sampler_kernel = "classic";
    Result<EngineRun> classic = engine.Run(config, {.lambda = 0.0});
    ASSERT_TRUE(classic.ok()) << classic.status().ToString();
    config.sampler_kernel = "skip";
    Result<EngineRun> skip = engine.Run(config, {.lambda = 0.0});
    ASSERT_TRUE(skip.ok()) << skip.status().ToString();
    ASSERT_GT(classic->report.total_revenue, 0.0) << name;
    EXPECT_NEAR(skip->report.total_revenue / classic->report.total_revenue,
                1.0, 0.25)
        << name;
    EXPECT_NEAR(skip->report.RegretFractionOfBudget(),
                classic->report.RegretFractionOfBudget(), 0.15)
        << name;
  }
}

// The engine must NOT share pooled samples across kernels: classic pools
// are the golden reference, skip pools consume streams differently.
TEST(SkipKernelTest, EngineKeepsSeparateStoresPerKernel) {
  AdAllocEngine engine(BuildFigure1Instance(),
                       {.eval_sims = 100, .seed = 2015});
  AllocatorConfig config;
  config.allocator = "tirm";
  config.eps = 0.25;
  config.theta_cap = 1 << 15;
  config.sampler_kernel = "classic";
  ASSERT_TRUE(engine.Run(config, {.lambda = 0.0}).ok());
  const RrSampleStore* classic_store = engine.sample_store();
  ASSERT_NE(classic_store, nullptr);
  EXPECT_EQ(classic_store->options().sampler_kernel, SamplerKernel::kClassic);

  config.sampler_kernel = "skip";
  ASSERT_TRUE(engine.Run(config, {.lambda = 0.0}).ok());
  const RrSampleStore* skip_store = engine.sample_store();
  ASSERT_NE(skip_store, nullptr);
  EXPECT_NE(skip_store, classic_store);
  EXPECT_EQ(skip_store->options().sampler_kernel, SamplerKernel::kSkip);
}

// ------------------------------------------------- skip self-determinism

// Skip is not bit-identical to classic, but it IS fully deterministic in
// (seed, thread count) — two builders on the same stream agree batch for
// batch, at every thread count.
TEST(SkipKernelTest, DeterministicForFixedSeedAndThreads) {
  Rng grng(11);
  const Graph g = RMatGraph(8, 1500, grng);
  const std::vector<float> probs = WeightedCascadeProbs(g);
  for (const int threads : {1, 2, 4}) {
    ParallelRrBuilder b1(g, probs,
                         {.num_threads = threads, .min_parallel_batch = 1,
                          .sampler_kernel = SamplerKernel::kSkip});
    ParallelRrBuilder b2(g, probs,
                         {.num_threads = threads, .min_parallel_batch = 1,
                          .sampler_kernel = SamplerKernel::kSkip});
    EXPECT_EQ(b1.sampler_kernel(), SamplerKernel::kSkip);
    Rng r1(99), r2(99);
    EXPECT_EQ(SetsOf(b1.SampleChunks(500, {&r1, 1})),
              SetsOf(b2.SampleChunks(500, {&r2, 1})))
        << "threads=" << threads;
    // Second call: the coin-buffer state must not leak across calls —
    // each chunk is a pure function of its own master stream.
    EXPECT_EQ(b1.SampleWidths(123, r1), b2.SampleWidths(123, r2))
        << "threads=" << threads;
    EXPECT_EQ(SetsOf(b1.SampleChunks(123, {&r1, 1})),
              SetsOf(b2.SampleChunks(123, {&r2, 1})))
        << "threads=" << threads;
  }
}

// --------------------------------------------------- arena-direct pool path

// Golden gate for the arena-direct top-up: a store pool must hold exactly
// the sets of the parts its builder samples, replayed by hand from the
// same per-chunk substreams — ids, members, and transpose rows.
TEST(ArenaDirectGoldenTest, StoreTopUpMatchesSampledParts) {
  Rng grng(7);
  const Graph g = ErdosRenyiGraph(60, 300, grng);
  const std::vector<float> probs(g.num_edges(), 0.2f);
  constexpr std::uint64_t kStoreSeed = 123;
  constexpr std::uint64_t kSignature = 7;
  constexpr std::uint64_t kChunk = 256;

  RrSampleStore store(&g, {.seed = kStoreSeed, .num_threads = 3,
                           .chunk_sets = kChunk});
  RrSampleStore::AdPool* entry = store.Acquire(kSignature, probs);
  const auto ensured = store.EnsureSets(entry, 600);  // 3 chunks
  EXPECT_EQ(ensured.sampled, 3 * kChunk);
  EXPECT_GT(ensured.max_traversal, 0u);

  // Replay: same builder configuration and substreams, one chunk per
  // call, parts kept as sets.
  ParallelRrBuilder builder(g, probs, {.num_threads = 3});
  const std::uint64_t base_seed = MixHash(kStoreSeed, kSignature);
  std::vector<std::vector<NodeId>> sampled;
  for (std::uint64_t c = 0; c < 3; ++c) {
    Rng master(MixHash(base_seed, 0x2000 + c));
    const std::vector<std::vector<Batch>> chunks =
        builder.SampleChunks(kChunk, {&master, 1});
    EXPECT_EQ(chunks[0].size(), 3u);  // one part per thread
    for (std::vector<NodeId>& set : SetsOf(chunks)) {
      sampled.push_back(std::move(set));
    }
  }

  const RrSetPool& pool = entry->sets();
  ASSERT_EQ(pool.NumSets(), sampled.size());
  EXPECT_EQ(SetsOf(pool), sampled);
  const auto count = static_cast<std::uint32_t>(sampled.size());
  ExpectRowsMatch(pool.EnsureTranspose(count), sampled);
}

// ------------------------------------------------ store: skip + concurrency

// Concurrent skip-kernel top-ups (same entry + per-thread entries) must be
// safe and leave the same pools as a serial reference store. Run under
// ThreadSanitizer in CI.
TEST(SkipKernelTest, ConcurrentSkipTopUpIsSafeAndDeterministic) {
  Rng grng(7);
  const Graph g = ErdosRenyiGraph(60, 300, grng);
  const std::vector<float> probs(g.num_edges(), 0.2f);
  const RrSampleStore::Options options{.seed = 99, .num_threads = 2,
                                       .chunk_sets = 64,
                                       .sampler_kernel = SamplerKernel::kSkip};

  RrSampleStore store(&g, options);
  RrSampleStore::AdPool* shared = store.Acquire(77, probs);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, &probs, shared, t] {
      store.EnsureSets(shared, 64 * (t + 1));
      RrSampleStore::AdPool* own =
          store.Acquire(1000 + static_cast<std::uint64_t>(t), probs);
      store.EnsureSets(own, 128);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(shared->sets().NumSets(), 64u * 4);

  RrSampleStore reference(&g, options);
  RrSampleStore::AdPool* ref = reference.Acquire(77, probs);
  reference.EnsureSets(ref, 64 * 4);
  EXPECT_EQ(SetsOf(shared->sets()), SetsOf(ref->sets()));
}

// ------------------------------------------------------ traversal telemetry

TEST(MaxTraversalStatTest, SurfacesThroughBatchStoreAndLifetimeStats) {
  Rng grng(7);
  const Graph g = ErdosRenyiGraph(60, 300, grng);
  const std::vector<float> probs(g.num_edges(), 0.2f);

  ParallelRrBuilder builder(g, probs, {.num_threads = 2,
                                       .min_parallel_batch = 1});
  Rng rng(5);
  const std::vector<std::vector<Batch>> chunks =
      builder.SampleChunks(200, {&rng, 1});
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

}  // namespace
}  // namespace tirm
