// TIRM — Two-phase Iterative Regret Minimization (Algorithm 2, §5.2).
//
// The paper's main algorithm. Per ad j it maintains a collection R_j of
// random RR sets sampled with the ad's Eq. 1 probabilities, and runs the
// greedy regret-drop selection of Algorithm 1 over RR-coverage estimates:
//
//   marginal revenue of u for ad j = cpe(j) · n · δ(u,j) · F_{R_j}(u)
//
// where F is the fraction of still-uncovered sets containing u (coverages
// are kept *marginal* by removing covered sets on commit — Algorithm 2
// line 12) and δ scaling is justified by Theorem 5.
//
// Because the number of seeds needed is driven by budgets rather than given,
// TIRM estimates it iteratively: start at s_j = 1; whenever |S_j| reaches
// s_j, grow s_j by ⌊budget-regret / (marginal revenue of the latest seed)⌋
// (a lower bound on the additional seeds needed, by submodularity), enlarge
// θ_j to L(s_j, ε)/OPT_lb (Eq. 5) and sample the difference; then
// UpdateEstimates (Algorithm 4) attributes the new sets to the existing
// seeds in selection order so all coverages stay marginal and consistent.
//
// OPT_s lower bound: KPT* (TIM phase 1) evaluated from a cached width
// sample so it can be re-evaluated for growing s without resampling, maxed
// with n·(covered fraction) — the spread estimate of the seeds already
// chosen, itself a valid lower bound (see DESIGN.md §2).

#ifndef TIRM_ALLOC_TIRM_H_
#define TIRM_ALLOC_TIRM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/allocation.h"
#include "alloc/regret.h"
#include "common/rng.h"
#include "rrset/sample_store.h"
#include "rrset/theta.h"
#include "topic/instance.h"

namespace tirm {

class RrShardClient;         // rrset/shard_client.h
class ShardedRrSampleStore;  // rrset/sharded_store.h

/// Per-ad diagnostics of a TIRM run.
struct TirmAdStats {
  std::uint64_t theta = 0;            ///< final #RR sets for this ad
  std::uint64_t final_s = 0;          ///< final seed-count estimate s_j
  double kpt = 0.0;                   ///< KPT* at the final s_j
  std::size_t num_seeds = 0;          ///< |S_j|
  double estimated_revenue = 0.0;     ///< internal Π̂_j at termination
  std::size_t expansions = 0;         ///< number of θ-growth rounds
};

/// Result of a TIRM run.
struct TirmResult {
  Allocation allocation;
  std::vector<TirmAdStats> ad_stats;
  /// Internal Π̂_i estimates (MC evaluation is the ground truth).
  std::vector<double> estimated_revenue;
  std::size_t iterations = 0;
  /// Bytes backing the RR samples at termination: pooled arena (each
  /// distinct pool counted once) + per-run coverage views (Table 4).
  std::size_t rr_memory_bytes = 0;
  /// Total RR sets consumed across ads (Σ θ_j).
  std::uint64_t total_rr_sets = 0;
  /// Sample-reuse diagnostics (pool hits, fresh sampling, arena bytes).
  SampleCacheStats cache;
};

/// TIRM configuration.
struct TirmOptions {
  ThetaParams theta;  ///< ε, ℓ, θ cap/min (paper: ε=0.1 quality, 0.2 scale)
  /// Safety cap on total committed seeds (0 = Σ_u κ_u).
  std::size_t max_total_seeds = 0;
  /// Strictness threshold for "regret decreases".
  double min_drop = 1e-12;
  /// KPT estimation sampling cap per ad.
  std::uint64_t kpt_max_samples = 1 << 17;
  /// Worker threads for RR-set generation (ParallelRrBuilder); 0 selects
  /// the hardware concurrency. Each sampling chunk splits into a fixed
  /// layout of RNG substreams, so the count only decides how many threads
  /// run them: pools, and so allocations, are the same at every count.
  int num_threads = 1;
  /// Ablation: rank candidates by δ(u,i)·coverage instead of Algorithm 3's
  /// raw coverage (linear scan; small instances only).
  bool weight_by_ctp = false;
  /// When the argmax-coverage candidate of Algorithm 3 would *increase*
  /// regret, or its marginal overshoots the remaining budget gap (so a
  /// smaller node can drop regret further), fall back to a linear scan for
  /// the node with the largest positive regret drop — this matches
  /// Algorithm 1's argmax over all (user, ad) pairs. Without the fallback
  /// an ad whose top node overshoots either stalls permanently or commits
  /// a near-2·B seed for a microscopic drop (the "dense network" extreme
  /// of §4.1). Default on; disable for the strictly-literal Algorithm 3
  /// (ablation).
  bool exact_selection_fallback = true;
  /// Shared RR-sample store (not owned; may be null). When set, the run
  /// borrows pooled per-ad samples from it — θ growth becomes store top-up
  /// instead of resampling, and pools persist for later runs/sweep points.
  /// When null, the run creates a private store with identical sampling
  /// discipline, so pooled and fresh runs are bit-identical at a fixed
  /// store seed. The store's graph must be the instance's graph.
  RrSampleStore* sample_store = nullptr;
  /// Seed of the private store when `sample_store` is null (a shared
  /// store keeps its own seed). 0 = derive deterministically from the
  /// run's rng.
  std::uint64_t sample_store_seed = 0;
  /// Extension beyond the paper: CTP-aware survival-weighted coverage
  /// (see rrset/weighted_rr_collection.h). Algorithm 2's covered-set
  /// removal assumes committed seeds are active w.p. 1; with low CTPs this
  /// underestimates later marginals and overshoots budgets (the paper's
  /// Fig. 5a). The weighted variant discounts each set by the exact
  /// probability Π(1-δ) that its root is still inactive, making internal
  /// revenue estimates unbiased for the true TIC-CTP spread. Default off
  /// (paper-faithful); benchmarked in bench_ablation_ctp_coverage.
  bool ctp_aware_coverage = false;
  /// Sampling/coverage shards (the GreeDIMM shape — see
  /// rrset/sharded_store.h). 1 = the classic single-store path. K > 1
  /// interleaves each ad's θ chunks across K shard pools and replaces the
  /// global CELF heap with a tree-reduced top-L summary protocol; every
  /// per-round sum is an exact integer, so selections are bit-identical
  /// to K = 1 (golden-gated). Sharding requires the paper-faithful
  /// unweighted path: combining it with ctp_aware_coverage or
  /// weight_by_ctp is rejected (AllocatorConfig::Validate) / aborts here.
  int num_shards = 1;
  /// Shared sharded store (not owned; may be null): used when
  /// num_shards > 1 and shard_clients is empty — the run drives one
  /// in-process LocalShardClient per shard. Null = a private sharded
  /// store with the run's seed (bit-identical either way).
  ShardedRrSampleStore* sharded_sample_store = nullptr;
  /// Externally provided shard clients (not owned) — e.g. the serving
  /// router's RemoteShardClients. Non-empty overrides num_shards and
  /// sharded_sample_store; each client must already target this
  /// instance's graph.
  std::vector<RrShardClient*> shard_clients;
};

/// Runs TIRM on `instance`. Deterministic given `rng`'s seed.
TirmResult RunTirm(const ProblemInstance& instance, const TirmOptions& options,
                   Rng& rng);

}  // namespace tirm

#endif  // TIRM_ALLOC_TIRM_H_
