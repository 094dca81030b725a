// AdAllocEngine — the one-stop facade over the unified allocator API.
//
// Owns a built problem instance (graph + probabilities + CTPs +
// advertisers), a ground-truth RegretEvaluator, and a deterministic RNG
// seed policy. One engine serves repeated queries — any registered
// allocator by name, swept over lambda / kappa / beta / budget — against
// the same shared graph without rebuilding anything: derived instances
// share the materialized per-ad edge-probability cache (see
// topic/mixed_prob_cache.h). This is the entry point a serving layer
// fronts; tirm_cli is a thin shell around it and serve/allocation_service.h
// is the concurrent front.
//
// Thread safety. Run() is safe to call concurrently from any number of
// threads, with any allocators and thread counts: concurrent runs share
// the engine's stores, whose pools guard their own growth — a run may read
// a pool while another tops it up (rrset/sample_store.h) — and everything
// else a run touches is its own or read-only (the probability cache fills
// each slot once, under its own lock). The lazily created sharded-store
// map is mutex-guarded, and sample_store() / sharded_sample_store() /
// StoreStats() may poll from any thread. AllocationService runs all of its
// workers on one engine this way. Shard clients a caller injects through
// AllocatorConfig::shard_clients stay the caller's: one client must not
// serve two runs at once.
//
//   AdAllocEngine engine(BuildFigure1Instance(), {.eval_sims = 2000});
//   AllocatorConfig config;            // or AllocatorConfig::FromFlags(...)
//   config.allocator = "tirm";
//   auto run = engine.Run(config, {.kappa = 1, .lambda = 0.1});
//   // run->result: the allocation + allocator diagnostics
//   // run->report: MC-evaluated regret report

#ifndef TIRM_API_AD_ALLOC_ENGINE_H_
#define TIRM_API_AD_ALLOC_ENGINE_H_

#include <cstdint>
#include <optional>

#include <map>
#include <memory>

#include "alloc/allocator.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "alloc/regret_evaluator.h"
#include "api/allocator_config.h"
#include "api/allocator_registry.h"
#include "datasets/dataset.h"
#include "rrset/sample_store.h"
#include "rrset/sharded_store.h"
#include "topic/instance.h"

namespace tirm {

/// Engine-wide knobs.
struct EngineOptions {
  /// Monte-Carlo simulations per ad for ground-truth evaluation
  /// (paper: 10 000).
  std::size_t eval_sims = 2000;
  /// Master seed; every query derives its algorithm and evaluation streams
  /// from it deterministically (same query twice -> same result).
  std::uint64_t seed = 2015;
  /// Skip the MC evaluation (report left empty) — for pure allocation
  /// serving or when the caller evaluates separately.
  bool evaluate = true;
  /// Reuse pooled RR samples across queries: the engine owns an
  /// RrSampleStore and every sampling allocator run borrows warm per-ad
  /// pools from it, so a λ/κ/β/budget sweep samples each ad's sets at most
  /// once per max-θ, whatever thread count each run samples at. Disabling
  /// it resamples per query through a private store with the same seed —
  /// bit-identical results, sweep-slower.
  bool reuse_samples = true;
};

/// One point of a parameter sweep (Problem 1 knobs).
struct EngineQuery {
  int kappa = 1;             ///< uniform attention bound
  double lambda = 0.0;       ///< seed penalty
  double beta = 0.0;         ///< budget boost, B' = (1+beta) B
  double budget_scale = 1.0; ///< scales every declared budget

  /// Parses --kappa/--lambda/--beta/--budget_scale strictly (malformed or
  /// out-of-range values error; kappa is range-checked before narrowing),
  /// on top of `defaults`. Shared by tirm_cli and the examples so the
  /// validation rules cannot diverge.
  static Result<EngineQuery> FromFlags(const Flags& flags);
  static Result<EngineQuery> FromFlags(const Flags& flags,
                                       EngineQuery defaults);
};

/// Outcome of one engine query.
struct EngineRun {
  AllocationResult result;  ///< allocation + allocator diagnostics
  RegretReport report;      ///< MC ground truth (empty if !evaluate)
};

/// See file comment.
class AdAllocEngine {
 public:
  /// Takes ownership of `built`. The base instance (kappa=1, lambda=0) is
  /// the template every query derives from. Aborts (TIRM_CHECK) if the
  /// instance is invalid — use Create() for untrusted inputs.
  AdAllocEngine(BuiltInstance built, EngineOptions options);

  /// Validating factory: returns InvalidArgument in-band (instead of
  /// aborting) when `built` fails ProblemInstance::Validate — the right
  /// entry point for a serving layer fed externally supplied instances.
  static Result<AdAllocEngine> Create(BuiltInstance built,
                                      EngineOptions options);

  /// Move-constructible so Create() can return Result<AdAllocEngine>. The
  /// move takes `other`'s store mutex while transplanting the stores —
  /// but moving an engine another thread is concurrently using is a
  /// contract violation regardless (the mutex only keeps the capability
  /// analysis sound, it cannot make such a move safe). Copying and move
  /// assignment are deleted: the mutex is a direct member (a statically
  /// nameable capability), so the engine is not assignable.
  AdAllocEngine(AdAllocEngine&& other);
  AdAllocEngine& operator=(AdAllocEngine&&) = delete;
  AdAllocEngine(const AdAllocEngine&) = delete;
  AdAllocEngine& operator=(const AdAllocEngine&) = delete;

  /// Runs the allocator named by `config.allocator` on the `query`-derived
  /// instance and (unless disabled) evaluates it. Errors: unknown
  /// allocator, invalid config, or an invalid produced allocation. Safe to
  /// call concurrently (see the file comment); the answer does not depend
  /// on what else runs.
  Result<EngineRun> Run(const AllocatorConfig& config,
                        const EngineQuery& query = {})
      TIRM_EXCLUDES(store_mutex_);

  /// Range/finiteness checks on a query. Run() performs this itself;
  /// callers feeding untrusted input to MakeInstance must check first.
  static Status ValidateQuery(const EngineQuery& query);

  /// The `query`-derived instance view — shares the engine's materialized
  /// probability cache. Valid while the engine lives. Precondition: the
  /// query passes ValidateQuery (out-of-range kappa aborts via TIRM_CHECK).
  ProblemInstance MakeInstance(const EngineQuery& query) const;

  const BuiltInstance& built() const { return built_; }
  const EngineOptions& options() const { return options_; }

  /// Deterministic per-query substream seeds (exposed for tests). The
  /// evaluation stream is allocator-independent so head-to-head rows are
  /// paired comparisons under identical Monte-Carlo draws.
  std::uint64_t AlgoSeed(const std::string& allocator,
                         const EngineQuery& query) const;
  std::uint64_t EvalSeed(const EngineQuery& query) const;

  /// Sampling seed of the engine's store (and of the private per-run
  /// stores when reuse is disabled): a pure function of options().seed, so
  /// reuse on/off cannot change results.
  std::uint64_t StoreSeed() const;

  /// The engine-owned sample store that every run with reuse enabled
  /// samples into, at any thread count (null when reuse_samples is off).
  /// Safe to call from any thread (the store's own counters are
  /// atomic/mutex-guarded); the returned pointer stays valid for the
  /// engine's lifetime.
  const RrSampleStore* sample_store() const { return store_.get(); }

  /// The engine-owned sharded store of `num_shards` shards: null until a
  /// run with reuse enabled samples through the in-process sharded plane
  /// at that shard count. Such a run samples into this store, not into
  /// sample_store(). Same thread safety and lifetime as sample_store().
  const ShardedRrSampleStore* sharded_sample_store(int num_shards) const
      TIRM_EXCLUDES(store_mutex_);

  /// Lifetime counters of every store the engine owns — sample_store()
  /// and each sharded store — totalled by SampleCacheStats::Add; all zero
  /// when reuse_samples is off. Safe to call from any thread.
  SampleCacheStats StoreStats() const TIRM_EXCLUDES(store_mutex_);

 private:
  BuiltInstance built_;
  EngineOptions options_;
  ProblemInstance base_;  ///< kappa=1, lambda=0 template; owns the cache
  /// The one store of every reuse-enabled run (null when reuse is off).
  /// Created by the constructor and never replaced, hence unguarded.
  std::unique_ptr<RrSampleStore> store_;
  /// Guards `sharded_stores_` — Run() may be called concurrently (see the
  /// thread-safety contract in the file comment) and StoreStats() polls
  /// from other threads. A direct member (not heap-held) so the capability
  /// analysis can name it statically; the explicit move constructor above
  /// is what keeps the engine movable.
  mutable Mutex store_mutex_;
  /// The sharded plane's stores, keyed by shard count and created lazily:
  /// shard pools are chunk-interleaved per K, so different K values own
  /// different stores (their unions are nevertheless the same global pool,
  /// which is what keeps K-sweeps bit-identical).
  std::map<int, std::unique_ptr<ShardedRrSampleStore>> sharded_stores_
      TIRM_GUARDED_BY(store_mutex_);
};

}  // namespace tirm

#endif  // TIRM_API_AD_ALLOC_ENGINE_H_
