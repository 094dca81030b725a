// Shared test fixtures for the sampling / allocation tests.
//
// The weighted-cascade RMat instance and the fast TIRM options that
// parallel_rr_test.cc runs at every thread count (the allocations must be
// identical: a pool does not depend on how many threads sampled it).
//
// Also the one way tests build an RR-set pool from explicit sets (MakePool:
// a single RrSetPool::AdoptChunk, the pool's only write path; PooledView:
// a coverage view over such a pool) and read pools and sampled parts back
// as explicit sets (SetsOf).

#ifndef TIRM_TESTS_TIRM_TEST_UTIL_H_
#define TIRM_TESTS_TIRM_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "alloc/tirm.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "rrset/parallel_rr_builder.h"
#include "rrset/sample_store.h"
#include "topic/instance.h"

namespace tirm {

/// A pool over `num_nodes` nodes holding `sets` in order (ids 0..n-1),
/// adopted as one chunk.
inline std::unique_ptr<RrSetPool> MakePool(
    NodeId num_nodes, const std::vector<std::vector<NodeId>>& sets) {
  std::vector<NodeId> nodes;
  std::vector<std::size_t> offsets = {0};
  for (const std::vector<NodeId>& set : sets) {
    nodes.insert(nodes.end(), set.begin(), set.end());
    offsets.push_back(nodes.size());
  }
  auto pool = std::make_unique<RrSetPool>(num_nodes);
  pool->AdoptChunk(std::move(nodes), offsets);
  return pool;
}

/// A coverage view (RrCollection or WeightedRrCollection) attached to
/// every set of its own pool, built from `sets` by MakePool. The pool is
/// declared first so it outlives the view.
template <typename View>
struct PooledView {
  PooledView(NodeId num_nodes, const std::vector<std::vector<NodeId>>& sets)
      : pool(MakePool(num_nodes, sets)), view(pool.get()) {
    view.AttachUpTo(static_cast<std::uint32_t>(sets.size()));
  }
  std::unique_ptr<RrSetPool> pool;
  View view;
};

/// Every set of `pool`, in id order.
inline std::vector<std::vector<NodeId>> SetsOf(const RrSetPool& pool) {
  std::vector<std::vector<NodeId>> sets;
  sets.reserve(pool.NumSets());
  for (std::uint32_t id = 0; id < pool.NumSets(); ++id) {
    const std::span<const NodeId> set = pool.SetMembers(id);
    sets.emplace_back(set.begin(), set.end());
  }
  return sets;
}

/// The sets of sampled chunks, concatenated in chunk and part order —
/// exactly the sets (and ids) a pool adopting the parts in order holds.
inline std::vector<std::vector<NodeId>> SetsOf(
    const std::vector<std::vector<ParallelRrBuilder::Batch>>& chunks) {
  std::vector<std::vector<NodeId>> sets;
  for (const std::vector<ParallelRrBuilder::Batch>& parts : chunks) {
    for (const ParallelRrBuilder::Batch& part : parts) {
      for (std::size_t k = 0; k < part.size(); ++k) {
        const std::span<const NodeId> set = part.Set(k);
        sets.emplace_back(set.begin(), set.end());
      }
    }
  }
  return sets;
}

struct TestInstance {
  Graph graph;
  std::unique_ptr<EdgeProbabilities> probs;
  std::unique_ptr<ClickProbabilities> ctps;
  std::vector<Advertiser> ads;

  ProblemInstance Make(int kappa, double lambda) {
    return ProblemInstance::WithUniformAttention(&graph, probs.get(),
                                                 ctps.get(), ads, kappa,
                                                 lambda);
  }
};

/// 512-node RMat graph with weighted-cascade probabilities (every in-edge
/// of v at p = 1/indeg(v)) and `num_ads` identical unit-CPE advertisers.
inline TestInstance MakeRMatInstance(int num_ads, double budget) {
  TestInstance s;
  Rng rng(500);
  s.graph = RMatGraph(9, 2500, rng);
  s.probs = std::make_unique<EdgeProbabilities>(
      EdgeProbabilities::WeightedCascade(s.graph));
  s.ctps = std::make_unique<ClickProbabilities>(
      ClickProbabilities::Constant(s.graph.num_nodes(), num_ads, 1.0));
  s.ads.resize(static_cast<std::size_t>(num_ads));
  for (auto& a : s.ads) {
    a.gamma = TopicDistribution::Uniform(1);
    a.budget = budget;
    a.cpe = 1.0;
  }
  return s;
}

/// TIRM options tuned for test runtime: looser ε, capped θ and KPT budget,
/// sampling on `threads` threads.
inline TirmOptions FastOptions(int threads) {
  TirmOptions o;
  o.theta.epsilon = 0.2;
  o.theta.theta_min = 4096;
  o.theta.theta_cap = 1 << 16;
  o.kpt_max_samples = 1 << 14;
  o.num_threads = threads;
  return o;
}

}  // namespace tirm

#endif  // TIRM_TESTS_TIRM_TEST_UTIL_H_
