#include "rrset/tim.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "obs/trace.h"
#include "rrset/kpt_estimator.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "rrset/sample_store.h"

namespace tirm {

TimResult RunTim(const Graph& graph, std::span<const float> edge_probs,
                 std::uint64_t k, const TimOptions& options, Rng& rng) {
  TIRM_CHECK_GE(k, 1u);
  TIRM_CHECK_LE(k, graph.num_nodes());
  TimResult result;

  RrSampler sampler(graph, edge_probs);

  // Phase 1: KPT* lower bound on OPT_k.
  {
    ScopedTimer timer(result.kpt_seconds);
    obs::TraceSpan span("tim_kpt");
    KptEstimator kpt(&sampler, graph.num_edges(),
                     {.ell = options.theta.ell,
                      .max_samples = options.kpt_max_samples});
    result.kpt = kpt.Estimate(k, rng);
  }

  // OPT_k >= max(KPT*, k): any k distinct seeds cover at least themselves.
  const double opt_lb = std::max(result.kpt, static_cast<double>(k));
  result.theta =
      ComputeTheta(graph.num_nodes(), k, opt_lb, options.theta);

  // Phase 2: sample θ RR sets into an immutable pool, then greedily Max
  // k-Cover them through a coverage view (the sampling/selection split of
  // rrset/sample_store.h — the pool could equally come from a shared
  // RrSampleStore). The sets are drawn serially from `rng` and adopted as
  // one chunk.
  RrSetPool pool(graph.num_nodes());
  {
    ScopedTimer timer(result.sampling_seconds);
    obs::TraceSpan span("tim_sampling");
    span.Counter("theta", static_cast<double>(result.theta));
    std::vector<NodeId> nodes;
    std::vector<std::size_t> offsets;
    offsets.reserve(result.theta + 1);
    offsets.push_back(0);
    std::vector<NodeId> scratch;
    for (std::uint64_t i = 0; i < result.theta; ++i) {
      sampler.SampleInto(rng, scratch);
      nodes.insert(nodes.end(), scratch.begin(), scratch.end());
      offsets.push_back(nodes.size());
    }
    pool.AdoptChunk(std::move(nodes), std::move(offsets));
  }
  std::uint64_t covered = 0;
  {
    ScopedTimer timer(result.selection_seconds);
    obs::TraceSpan span("tim_selection");
    span.Counter("k", static_cast<double>(k));
    RrCollection collection(&pool);
    collection.AttachUpTo(static_cast<std::uint32_t>(pool.NumSets()));

    CoverageHeap heap(&collection);
    for (std::uint64_t i = 0; i < k; ++i) {
      const NodeId best = heap.PopBest([](NodeId) { return true; });
      if (best == kInvalidNode) break;  // every set covered already
      covered += collection.CommitSeed(best);
      result.seeds.push_back(best);
    }
  }
  result.estimated_spread = static_cast<double>(graph.num_nodes()) *
                            static_cast<double>(covered) /
                            static_cast<double>(result.theta);
  return result;
}

}  // namespace tirm
