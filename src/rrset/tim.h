// TIM — Two-phase Influence Maximization (Tang, Xiao, Shi, SIGMOD 2014).
//
// Classic influence maximization: given G with IC probabilities and k, find
// S (|S| = k) maximizing σ_ic(S). Phase 1 estimates a lower bound KPT* on
// OPT_k; phase 2 samples θ = L(k, ε)/KPT* RR sets and greedily solves Max
// k-Cover over them. Returns a (1 − 1/e − ε)-approximation w.h.p.
//
// In this library TIM is both a reusable substrate (the paper builds TIRM
// on its machinery, §5) and a standalone public API for plain influence
// maximization (see examples/influence_max_demo.cc).

#ifndef TIRM_RRSET_TIM_H_
#define TIRM_RRSET_TIM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "rrset/theta.h"

namespace tirm {

/// Result of a TIM run.
struct TimResult {
  std::vector<NodeId> seeds;
  /// n · F_R(S): RR-estimate of σ_ic(seeds).
  double estimated_spread = 0.0;
  /// Number of RR sets sampled in phase 2.
  std::uint64_t theta = 0;
  /// KPT* lower bound on OPT_k from phase 1.
  double kpt = 0.0;
  /// Wall-clock phase breakdown (seconds).
  double kpt_seconds = 0.0;       ///< phase 1: KPT* estimation
  double sampling_seconds = 0.0;  ///< phase 2a: θ RR-set sampling
  double selection_seconds = 0.0;  ///< phase 2b: greedy Max k-Cover
};

/// Options for TIM.
struct TimOptions {
  ThetaParams theta;            ///< ε, ℓ, caps
  std::uint64_t kpt_max_samples = 1 << 20;
};

/// Runs TIM for seed-set size `k` on `graph` with per-edge probabilities
/// `edge_probs` (IC model, no CTPs).
TimResult RunTim(const Graph& graph, std::span<const float> edge_probs,
                 std::uint64_t k, const TimOptions& options, Rng& rng);

}  // namespace tirm

#endif  // TIRM_RRSET_TIM_H_
