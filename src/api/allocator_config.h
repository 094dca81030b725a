// Typed configuration for every registered allocator.
//
// One struct subsumes the per-algorithm option bags (TirmOptions /
// ThetaParams, IrieEstimator::Options, GreedyAllocator::Options,
// McMarginalOracle::Options): each allocator factory reads the fields it
// understands and ignores the rest, so one AllocatorConfig drives any
// registry name. FromFlags() parses the whole set from command-line /
// environment flags with *strict* numeric validation — a malformed or
// out-of-range value is an error, not a silent default.

#ifndef TIRM_API_ALLOCATOR_CONFIG_H_
#define TIRM_API_ALLOCATOR_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "alloc/greedy.h"
#include "alloc/irie.h"
#include "alloc/tirm.h"
#include "common/flags.h"
#include "common/status.h"

namespace tirm {

class RrSampleStore;  // rrset/sample_store.h

/// Configuration shared by all allocators; see file comment.
struct AllocatorConfig {
  /// Registry key to run (`--allocator`): "tirm", "greedy-mc",
  /// "greedy-irie", "myopic", "myopic+".
  std::string allocator = "tirm";

  // -- Greedy-loop knobs (TIRM, GREEDY-MC, GREEDY-IRIE).
  std::size_t max_total_seeds = 0;  ///< safety cap, 0 = sum of kappa_u
  double min_drop = 1e-12;          ///< strictness of "regret decreases"

  // -- TIRM sampling knobs (Eq. 5 / Theorem 6).
  double eps = 0.1;                 ///< epsilon accuracy knob
  double ell = 1.0;                 ///< failure-probability exponent
  std::uint64_t theta_cap = 0;      ///< per-ad RR-set cap, 0 = uncapped
  std::uint64_t theta_min = 1024;   ///< per-ad RR-set floor
  std::uint64_t kpt_max_samples = 1 << 17;
  int num_threads = 1;              ///< RR-sampling workers, 0 = hardware
  bool weight_by_ctp = false;       ///< ablation: delta-weighted selection
  bool exact_selection_fallback = true;
  bool ctp_aware_coverage = false;  ///< extension: survival-weighted coverage
  /// Sampling/coverage shards for TIRM (`--num_shards`): 1 = single-store
  /// path; K > 1 runs the GreeDIMM-shaped sharded plane (chunk-interleaved
  /// shard pools + tree-reduced selection; allocations bit-identical to
  /// K = 1). Requires the paper-faithful unweighted path — combining with
  /// weight_by_ctp or ctp_aware_coverage is rejected.
  int num_shards = 1;

  // -- GREEDY-IRIE knobs.
  double irie_alpha = 0.8;          ///< damping (paper-tuned quality value)
  int irie_rank_iterations = 20;
  double irie_ap_truncation = 1e-4;
  int irie_max_push_hops = 8;

  // -- GREEDY-MC knobs.
  std::size_t mc_sims = 500;        ///< MC simulations per marginal query

  // -- Sample reuse (wired programmatically by AdAllocEngine / benches,
  //    not parsed from flags).
  /// Shared RR-sample store the run borrows pooled samples from (not
  /// owned; may be null — the allocator then samples into a private store
  /// with the same discipline).
  RrSampleStore* sample_store = nullptr;
  /// Private-store seed when `sample_store` is null (0 = derive from the
  /// run rng). Setting it to the shared store's seed makes store-disabled
  /// runs bit-identical to store-enabled ones.
  std::uint64_t sample_store_seed = 0;
  /// Shared sharded store for num_shards > 1 (not owned; may be null —
  /// the run then creates a private one with the same discipline).
  ShardedRrSampleStore* sharded_sample_store = nullptr;
  /// Externally driven shard clients (not owned) — the serving router's
  /// remote workers. Non-empty overrides num_shards/sharded_sample_store.
  std::vector<RrShardClient*> shard_clients;

  /// Parses every field from `flags` (`--allocator=tirm --eps=0.1
  /// --theta_cap=...`), on top of `defaults` (callers pre-seed their
  /// preferred baseline; flags/env override it). Malformed numerics and
  /// out-of-range values (negative eps, eps >= 1, negative sims, ...) are
  /// InvalidArgument errors.
  static Result<AllocatorConfig> FromFlags(const Flags& flags);
  static Result<AllocatorConfig> FromFlags(const Flags& flags,
                                           AllocatorConfig defaults);

  /// Range-checks the current field values.
  Status Validate() const;

  /// Projections onto the per-algorithm option structs.
  TirmOptions MakeTirmOptions() const;
  IrieEstimator::Options MakeIrieOptions() const;
  GreedyAllocator::Options MakeGreedyOptions() const;
  McMarginalOracle::Options MakeMcOptions() const;
};

}  // namespace tirm

#endif  // TIRM_API_ALLOCATOR_CONFIG_H_
