// KPT* estimation — a lower bound on OPT_s (TIM phase 1, Tang et al. 2014).
//
// For a random RR set R with width w(R) = Σ_{v∈R} indeg(v), the quantity
//   κ_s(R) = 1 − (1 − w(R)/m)^s
// satisfies E[n·κ_s(R)] ≥ OPT_s / ... ; TIM's KptEstimation doubles the
// sample size geometrically until the running mean c = mean(κ_s) exceeds
// 1/2^i, then returns KPT* = n·c/2 which is, w.h.p., a lower bound on OPT_s
// within a factor; see TIM §4.1.
//
// TIRM needs KPT for *changing* s (iterative seed-set-size estimation), so
// KptEstimator additionally records the widths of every sampled set: once
// the geometric phase has fixed the batch, KPT for any other s is
// re-evaluated over the cached widths in O(batch) with no new sampling.

#ifndef TIRM_RRSET_KPT_ESTIMATOR_H_
#define TIRM_RRSET_KPT_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "rrset/rr_sampler.h"

namespace tirm {

class ParallelRrBuilder;  // rrset/parallel_rr_builder.h

/// Runs TIM's geometric KPT estimation once, then answers KPT(s) queries
/// for arbitrary s from the cached width sample.
class KptEstimator {
 public:
  struct Options {
    double ell = 1.0;
    /// Upper bound on sampled sets during estimation (safety valve).
    std::uint64_t max_samples = 1 << 20;
  };

  /// Samples via `sampler` (plain RR mode recommended; Theorem 5 moves CTPs
  /// into marginal-gain scaling). `s` is the initial seed-set size of
  /// interest.
  KptEstimator(RrSampler* sampler, std::uint64_t num_edges, Options options);

  /// Parallel variant: each geometric round's sample demand is fanned out
  /// through `builder` (widths arrive batch-at-a-time; the estimate is a
  /// function of the width multiset only, so parallel and serial estimates
  /// agree in distribution).
  KptEstimator(ParallelRrBuilder* builder, std::uint64_t num_edges,
               Options options);

  /// Runs the geometric estimation for size `s`; caches widths.
  /// Returns KPT*(s) >= 1. The parallel variant samples each round on up
  /// to `num_threads` threads; the estimate does not depend on how many.
  double Estimate(std::uint64_t s, Rng& rng, int num_threads = 1);

  /// Re-evaluates KPT for a different size from cached widths (requires a
  /// prior Estimate call). Returns max(result, 1).
  double ReEstimate(std::uint64_t s) const;

  /// Number of RR sets sampled by Estimate().
  std::size_t num_sampled() const { return widths_.size(); }

 private:
  double MeanKappa(std::uint64_t s) const;
  void SampleWidths(std::uint64_t target, Rng& rng, int num_threads);

  RrSampler* sampler_ = nullptr;          // serial path
  ParallelRrBuilder* builder_ = nullptr;  // parallel path
  std::uint64_t num_edges_;
  Options options_;
  std::uint64_t num_nodes_ = 0;
  std::vector<std::uint64_t> widths_;
};

}  // namespace tirm

#endif  // TIRM_RRSET_KPT_ESTIMATOR_H_
