// Micro-benchmarks (google-benchmark) for the hot components:
// RR-set sampling, RRC sampling, forward MC cascades, coverage-greedy
// selection, IRIE rank iteration, graph generation and possible-world
// sampling. These quantify the per-operation costs that the paper's
// complexity discussion (§5) reasons about.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "alloc/irie.h"
#include "bench/bench_common.h"
#include "common/rng.h"
#include "diffusion/monte_carlo.h"
#include "diffusion/possible_world.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "rrset/parallel_rr_builder.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "rrset/sample_store.h"

namespace {

using namespace tirm;

struct Fixture {
  Graph graph;
  std::vector<float> probs;

  static const Fixture& Get() {
    static const Fixture* f = [] {
      auto* fx = new Fixture();
      Rng rng(42);
      fx->graph = RMatGraph(12, 60000, rng);  // 4096 nodes
      EdgeProbabilities ep = EdgeProbabilities::WeightedCascade(fx->graph);
      fx->probs.resize(fx->graph.num_edges());
      for (EdgeId e = 0; e < fx->graph.num_edges(); ++e) {
        fx->probs[e] = ep.Prob(e, 0);
      }
      return fx;
    }();
    return *f;
  }
};

void BM_RrSetSampling(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  RrSampler sampler(f.graph, f.probs);
  Rng rng(1);
  std::vector<NodeId> set;
  std::size_t nodes = 0;
  for (auto _ : state) {
    sampler.SampleInto(rng, set);
    nodes += set.size();
    benchmark::DoNotOptimize(set.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["avg_set_size"] =
      static_cast<double>(nodes) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_RrSetSampling);

void BM_RrcSetSampling(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  const double delta = 0.02;
  const std::vector<float> ctps(f.graph.num_nodes(),
                                static_cast<float>(delta));
  RrSampler sampler(f.graph, f.probs, ctps);
  Rng rng(2);
  std::vector<NodeId> set;
  for (auto _ : state) {
    sampler.SampleInto(rng, set);
    benchmark::DoNotOptimize(set.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RrcSetSampling);

void BM_ForwardCascade(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  SpreadSimulator sim(f.graph, f.probs);
  Rng rng(3);
  std::vector<NodeId> seeds;
  for (NodeId u = 0; u < f.graph.num_nodes(); u += 137) seeds.push_back(u);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.RunOnce(seeds, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ForwardCascade);

void BM_PossibleWorldSampling(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  Rng rng(4);
  for (auto _ : state) {
    PossibleWorld w = PossibleWorld::Sample(f.graph, f.probs, rng);
    benchmark::DoNotOptimize(&w);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(f.graph.num_edges()));
}
BENCHMARK(BM_PossibleWorldSampling);

// ------------------------------------------------- coverage-kernel section
// The coverage views over the CSR node -> set index of
// rrset/coverage_bitmap.h, on the greedy primitives.

// One sampled pool per θ, shared by every coverage benchmark below (the
// sampling itself is BM_RrSetSampling's subject, not these benchmarks').
const RrSetPool& SharedCoveragePool(int num_sets) {
  static std::map<int, std::unique_ptr<RrSetPool>>* pools =
      new std::map<int, std::unique_ptr<RrSetPool>>();
  auto it = pools->find(num_sets);
  if (it == pools->end()) {
    const Fixture& f = Fixture::Get();
    RrSampler sampler(f.graph, f.probs);
    Rng rng(5);
    std::vector<NodeId> nodes;
    std::vector<std::size_t> offsets = {0};
    std::vector<NodeId> set;
    for (int i = 0; i < num_sets; ++i) {
      sampler.SampleInto(rng, set);
      nodes.insert(nodes.end(), set.begin(), set.end());
      offsets.push_back(nodes.size());
    }
    auto pool = std::make_unique<RrSetPool>(f.graph.num_nodes());
    pool->AdoptChunk(std::move(nodes), std::move(offsets));
    it = pools->emplace(num_sets, std::move(pool)).first;
  }
  return *it->second;
}

// The 50 greedy seeds of a pool.
const std::vector<NodeId>& GreedySeeds(int num_sets) {
  static std::map<int, std::vector<NodeId>>* cache =
      new std::map<int, std::vector<NodeId>>();
  auto it = cache->find(num_sets);
  if (it == cache->end()) {
    const RrSetPool& pool = SharedCoveragePool(num_sets);
    RrCollection collection(&pool);
    collection.AttachUpTo(static_cast<std::uint32_t>(pool.NumSets()));
    CoverageHeap heap(&collection);
    std::vector<NodeId> seeds;
    for (int k = 0; k < 50; ++k) {
      const NodeId best = heap.PopBest([](NodeId) { return true; });
      if (best == kInvalidNode) break;
      collection.CommitSeed(best);
      seeds.push_back(best);
    }
    it = cache->emplace(num_sets, std::move(seeds)).first;
  }
  return it->second;
}

// Full greedy path: lazy-heap argmax (initial build + stale refreshes) plus
// seed commits. Each commit, and each recount of a stale CELF probe, walks
// the node's index row. This instance (uniform random sets, heavy coverage
// ties) maximizes probe count, so it bounds the views' worst case;
// BM_CoverageCommitRecount below isolates the commit+recount data path.
void BM_CoverageGreedy(benchmark::State& state) {
  const RrSetPool& pool = SharedCoveragePool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    RrCollection collection(&pool);
    collection.AttachUpTo(static_cast<std::uint32_t>(pool.NumSets()));
    state.ResumeTiming();
    CoverageHeap heap(&collection);
    for (int k = 0; k < 50; ++k) {
      const NodeId best = heap.PopBest([](NodeId) { return true; });
      if (best == kInvalidNode) break;
      collection.CommitSeed(best);
    }
  }
  state.SetLabel("argmax+commit 50 seeds");
}
BENCHMARK(BM_CoverageGreedy)->Arg(20000)->Arg(80000);

// The commit+recount primitive pair alone, on the precomputed greedy seed
// sequence: recount(v) then commit(v) per seed — each a walk over v's ids
// against the covered-set bitmap.
void BM_CoverageCommitRecount(benchmark::State& state) {
  const int num_sets = static_cast<int>(state.range(0));
  const RrSetPool& pool = SharedCoveragePool(num_sets);
  const std::vector<NodeId>& seeds = GreedySeeds(num_sets);
  for (auto _ : state) {
    state.PauseTiming();
    RrCollection collection(&pool);
    collection.AttachUpTo(static_cast<std::uint32_t>(pool.NumSets()));
    state.ResumeTiming();
    std::uint64_t checksum = 0;
    for (const NodeId v : seeds) {
      checksum += collection.CoverageOf(v);
      checksum += collection.CommitSeed(v);
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetLabel("recount+commit 50 seeds");
}
BENCHMARK(BM_CoverageCommitRecount)->Arg(20000)->Arg(80000);

// ------------------------------------------------------- sampling section
// RR-set sampling rate and the pool write path of rrset/sample_store.h.
// Every benchmark here starts with BM_Sampling so CI's
// --benchmark_filter='BM_Sampling' emits exactly this section into
// BENCH_sampling.json.

// Denser weighted-cascade instance than Fixture (mean in-degree ~39, mean
// p ~ 0.026): the reverse BFS touches many in-edges per visited node, so
// this measures the per-edge coin loop rather than per-set overhead.
struct SamplingFixture {
  Graph graph;
  std::vector<float> probs;

  static const SamplingFixture& Get() {
    static const SamplingFixture* f = [] {
      auto* fx = new SamplingFixture();
      Rng rng(43);
      fx->graph = RMatGraph(12, 160000, rng);  // 4096 nodes
      EdgeProbabilities ep = EdgeProbabilities::WeightedCascade(fx->graph);
      fx->probs.resize(fx->graph.num_edges());
      for (EdgeId e = 0; e < fx->graph.num_edges(); ++e) {
        fx->probs[e] = ep.Prob(e, 0);
      }
      return fx;
    }();
    return *f;
  }
};

void BM_SamplingRrSets(benchmark::State& state) {
  const SamplingFixture& f = SamplingFixture::Get();
  RrSampler sampler(f.graph, f.probs);
  Rng rng(1);
  std::vector<NodeId> set;
  std::uint64_t edges = 0;
  for (auto _ : state) {
    sampler.SampleInto(rng, set);
    edges += sampler.last_width();
    benchmark::DoNotOptimize(set.data());
  }
  // items/sec == sets/sec; the counter reports the edge-examination rate.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(edges), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SamplingRrSets);

// --------------------------------------------------- pool-write data path
// Arena-direct adoption, the pool's one write path: worker parts moved
// wholesale into the pool, per-set bookkeeping reserved once, index built
// batched. Sampling itself is excluded: the parts are drawn once and the
// adoption replayed from copies of them.

const std::vector<ParallelRrBuilder::Batch>& SharedSampledParts(int num_sets) {
  static std::map<int, std::vector<ParallelRrBuilder::Batch>>* cache =
      new std::map<int, std::vector<ParallelRrBuilder::Batch>>();
  auto it = cache->find(num_sets);
  if (it == cache->end()) {
    const SamplingFixture& f = SamplingFixture::Get();
    ParallelRrBuilder builder(f.graph, f.probs);
    Rng master(11);
    std::vector<std::vector<ParallelRrBuilder::Batch>> chunks =
        builder.SampleChunks(static_cast<std::uint64_t>(num_sets),
                             {&master, 1}, /*num_threads=*/4);
    it = cache->emplace(num_sets, std::move(chunks.front())).first;
  }
  return it->second;
}

void BM_SamplingStoreWrite(benchmark::State& state) {
  const SamplingFixture& f = SamplingFixture::Get();
  const int num_sets = static_cast<int>(state.range(0));
  const auto& parts = SharedSampledParts(num_sets);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<ParallelRrBuilder::Batch> clone = parts;
    state.ResumeTiming();
    RrSetPool pool(f.graph.num_nodes());
    for (auto& p : clone) {
      pool.AdoptChunk(std::move(p.nodes), std::move(p.offsets));
    }
    benchmark::DoNotOptimize(pool.NumSets());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          num_sets);
  state.SetLabel("arena-direct adopt");
}
BENCHMARK(BM_SamplingStoreWrite)->Arg(40000);

// ---------------------------------------------- flight-recorder section
// Cost of an obs::TraceSpan on the disabled fast path (one relaxed atomic
// load + branch in the constructor and destructor) and while recording.
// The observability acceptance gate reads "overhead_pct" from
// BM_TraceDisabledOverhead: the disabled instrumentation cost as a
// percentage of real work at per-RR-set granularity — far finer than any
// production span (those wrap whole batches), so the deployed overhead is
// smaller still.

void BM_TraceSpanDisabled(benchmark::State& state) {
  obs::TraceRecorder::Global().Disable();
  for (auto _ : state) {
    obs::TraceSpan span("bench_disabled");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceSpanEnabled(benchmark::State& state) {
  obs::TraceRecorder::Global().Clear();
  obs::TraceRecorder::Global().Enable();
  for (auto _ : state) {
    obs::TraceSpan span("bench_enabled");
    span.Counter("i", 1.0);
    benchmark::DoNotOptimize(&span);
  }
  obs::TraceRecorder::Global().Disable();
  obs::TraceRecorder::Global().Clear();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
// Fixed iteration count: every iteration appends one event, and staying
// well under the per-thread buffer cap keeps the drop path out of the
// measurement.
BENCHMARK(BM_TraceSpanEnabled)->Iterations(500000);

// A subtractive A/B of whole instrumented-vs-plain loops cannot resolve a
// sub-1% effect (code-layout jitter alone is a few percent either way),
// so the gate reads the ratio of two directly measured costs: a disabled
// span (tight span-only loop) over one RR-set sample — the finest
// granularity any production span sits at.
void BM_TraceDisabledOverhead(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  obs::TraceRecorder::Global().Disable();
  const int num_sets = 4000;
  const int span_iters = 1000000;
  double sample_ms = 0.0, span_only_ms = 0.0;
  for (auto _ : state) {
    for (int rep = 0; rep < 5; ++rep) {
      {
        RrSampler sampler(f.graph, f.probs);
        std::vector<NodeId> set;
        Rng rng(21);
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < num_sets; ++i) {
          sampler.SampleInto(rng, set);
          benchmark::DoNotOptimize(set.data());
        }
        const auto stop = std::chrono::steady_clock::now();
        const double p =
            std::chrono::duration<double, std::milli>(stop - start).count();
        if (rep == 0 || p < sample_ms) sample_ms = p;
      }
      {
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < span_iters; ++i) {
          obs::TraceSpan span("bench_disabled_unit");
          benchmark::DoNotOptimize(&span);
        }
        const auto stop = std::chrono::steady_clock::now();
        const double s =
            std::chrono::duration<double, std::milli>(stop - start).count();
        if (rep == 0 || s < span_only_ms) span_only_ms = s;
      }
    }
  }
  const double ns_per_set = sample_ms * 1e6 / num_sets;
  const double ns_per_span = span_only_ms * 1e6 / span_iters;
  state.counters["set_ns"] = ns_per_set;
  state.counters["span_ns"] = ns_per_span;
  state.counters["overhead_pct"] =
      ns_per_set > 0.0 ? 100.0 * ns_per_span / ns_per_set : 0.0;
}
BENCHMARK(BM_TraceDisabledOverhead)->Iterations(1);

void BM_IrieRankIteration(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  IrieEstimator irie(&f.graph, f.probs, {.alpha = 0.7, .rank_iterations = 20});
  for (auto _ : state) {
    irie.RecomputeRanks();
    benchmark::DoNotOptimize(irie.Rank(0));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * 20 *
      static_cast<std::int64_t>(f.graph.num_edges()));
}
BENCHMARK(BM_IrieRankIteration);

void BM_RMatGeneration(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    Graph g = RMatGraph(10, 10000, rng);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_RMatGeneration);

void BM_Eq1Mixing(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  Rng rng(7);
  EdgeProbabilities per_topic =
      EdgeProbabilities::SampleExponential(f.graph, 10, 30.0, rng);
  TopicDistribution gamma = TopicDistribution::Concentrated(10, 3, 0.91);
  for (auto _ : state) {
    auto mixed = per_topic.MixForAd(gamma);
    benchmark::DoNotOptimize(mixed.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.graph.num_edges()));
}
BENCHMARK(BM_Eq1Mixing);

}  // namespace

// Expanded BENCHMARK_MAIN(): identical flow, plus the library build type
// stamped into the JSON context (so a checked-in BENCH_micro.json can
// never silently come from a Debug build) and a loud warning when it is
// not release-like.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("library_build_type",
                              tirm::bench::LibraryBuildType());
  if (!tirm::bench::IsReleaseLikeBuild()) {
    std::fprintf(stderr,
                 "*** WARNING: benchmarking a \"%s\" build of the tirm "
                 "library; timings are\n*** not comparable — rebuild with "
                 "-DCMAKE_BUILD_TYPE=Release before recording\n*** "
                 "BENCH_micro.json.\n",
                 tirm::bench::LibraryBuildType());
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
