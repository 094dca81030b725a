#include "api/ad_alloc_engine.h"

#include <cmath>
#include <string>
#include <utility>

#include "common/hashing.h"
#include "common/timer.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace tirm {
namespace {

// Stable query-substream salt (common/hashing.h: reproducible across runs
// and builds, unlike std::hash).
std::uint64_t QuerySalt(const std::string& allocator, const EngineQuery& query,
                        std::uint64_t stream) {
  std::uint64_t h = kFnvOffsetBasis;
  h = HashBytes(h, allocator.data(), allocator.size());
  const double doubles[3] = {query.lambda, query.beta, query.budget_scale};
  h = HashBytes(h, doubles, sizeof(doubles));
  h = HashBytes(h, &query.kappa, sizeof(query.kappa));
  h = HashBytes(h, &stream, sizeof(stream));
  return FinalizeHash(h);
}

}  // namespace

Result<EngineQuery> EngineQuery::FromFlags(const Flags& flags) {
  return FromFlags(flags, EngineQuery());
}

Result<EngineQuery> EngineQuery::FromFlags(const Flags& flags,
                                           EngineQuery defaults) {
  EngineQuery q = defaults;
  Result<std::int64_t> kappa = flags.GetIntStrict("kappa", q.kappa);
  if (!kappa.ok()) return kappa.status();
  if (*kappa < 1 || *kappa > 0xFFFF) {  // range-check before narrowing
    return Status::InvalidArgument("flag --kappa must be in [1, 65535], got " +
                                   std::to_string(*kappa));
  }
  q.kappa = static_cast<int>(*kappa);
  Result<double> lambda = flags.GetDoubleStrict("lambda", q.lambda);
  if (!lambda.ok()) return lambda.status();
  q.lambda = *lambda;
  Result<double> beta = flags.GetDoubleStrict("beta", q.beta);
  if (!beta.ok()) return beta.status();
  q.beta = *beta;
  Result<double> budget_scale =
      flags.GetDoubleStrict("budget_scale", q.budget_scale);
  if (!budget_scale.ok()) return budget_scale.status();
  q.budget_scale = *budget_scale;
  TIRM_RETURN_NOT_OK(AdAllocEngine::ValidateQuery(q));
  return q;
}

Result<AdAllocEngine> AdAllocEngine::Create(BuiltInstance built,
                                            EngineOptions options) {
  {
    const ProblemInstance probe = built.MakeInstance(/*kappa=*/1,
                                                     /*lambda=*/0.0);
    TIRM_RETURN_NOT_OK(probe.Validate());
  }
  return AdAllocEngine(std::move(built), options);
}

AdAllocEngine::AdAllocEngine(BuiltInstance built, EngineOptions options)
    : built_(std::move(built)),
      options_(options),
      base_(built_.MakeInstance(/*kappa=*/1, /*lambda=*/0.0)) {
  const Status valid = base_.Validate();
  TIRM_CHECK(valid.ok()) << "AdAllocEngine: invalid instance: "
                         << valid.ToString();
  if (options_.reuse_samples) {
    store_ = std::make_unique<RrSampleStore>(
        &base_.graph(), RrSampleStore::Options{.seed = StoreSeed()});
  }
}

ProblemInstance AdAllocEngine::MakeInstance(const EngineQuery& query) const {
  return base_.Derive(query.kappa, query.lambda, query.beta,
                      query.budget_scale);
}

std::uint64_t AdAllocEngine::AlgoSeed(const std::string& allocator,
                                      const EngineQuery& query) const {
  return options_.seed ^ QuerySalt(allocator, query, /*stream=*/0x51);
}

std::uint64_t AdAllocEngine::StoreSeed() const {
  // Query-independent (pools are shared across sweep points) and distinct
  // from the algo/eval streams. Never 0 — 0 is the "derive from run rng"
  // sentinel in TirmOptions.
  return FinalizeHash(options_.seed ^ 0x5707A11EULL) | 1ULL;
}

std::uint64_t AdAllocEngine::EvalSeed(const EngineQuery& query) const {
  // Deliberately independent of the allocator: evaluating every algorithm
  // of a head-to-head comparison under the SAME Monte-Carlo possible-world
  // draws makes regret/revenue rows a paired comparison (the paper's
  // "neutral, fair, and accurate" §6 protocol), not a mix of evaluation
  // noise. The 0x52 stream tag keeps it decorrelated from AlgoSeed.
  return options_.seed ^ QuerySalt(/*allocator=*/"", query, /*stream=*/0x52);
}

AdAllocEngine::AdAllocEngine(AdAllocEngine&& other)
    : built_(std::move(other.built_)),
      options_(other.options_),
      base_(std::move(other.base_)),
      store_(std::move(other.store_)) {
  // Locking the source's mutex keeps the capability analysis sound for the
  // guarded members; a move racing an actual concurrent user is a contract
  // violation the caller must rule out (see the header).
  MutexLock lock(other.store_mutex_);
  sharded_stores_ = std::move(other.sharded_stores_);
}

const ShardedRrSampleStore* AdAllocEngine::sharded_sample_store(
    int num_shards) const {
  MutexLock lock(store_mutex_);
  const auto it = sharded_stores_.find(num_shards);
  return it == sharded_stores_.end() ? nullptr : it->second.get();
}

SampleCacheStats AdAllocEngine::StoreStats() const {
  SampleCacheStats total;
  if (store_ != nullptr) total.Add(store_->LifetimeStats());
  MutexLock lock(store_mutex_);
  for (const auto& [num_shards, sharded] : sharded_stores_) {
    total.Add(sharded->LifetimeStats());
  }
  return total;
}

Status AdAllocEngine::ValidateQuery(const EngineQuery& query) {
  if (query.kappa < 1 || query.kappa > 0xFFFF) {
    return Status::InvalidArgument("kappa must be in [1, 65535], got " +
                                   std::to_string(query.kappa));
  }
  // Negated comparisons so NaN fails too.
  if (!(query.lambda >= 0.0) || !(query.beta >= 0.0) ||
      !(query.budget_scale >= 0.0) || !std::isfinite(query.lambda) ||
      !std::isfinite(query.beta) || !std::isfinite(query.budget_scale)) {
    return Status::InvalidArgument(
        "lambda, beta, and budget_scale must be finite and non-negative");
  }
  return Status::OK();
}

Result<EngineRun> AdAllocEngine::Run(const AllocatorConfig& config,
                                     const EngineQuery& query) {
  TIRM_RETURN_NOT_OK(ValidateQuery(query));
  obs::TraceSpan span("engine_run");
  span.Label("allocator", config.allocator);
  static obs::Counter& runs_counter =
      obs::MetricsRegistry::Global().GetCounter("engine.runs");
  static obs::Histogram& run_histogram =
      obs::MetricsRegistry::Global().GetHistogram("engine.run_seconds");
  runs_counter.Increment();
  ScopedTimer run_timer([](double s) { run_histogram.Record(s); });
  AllocatorConfig run_config = config;
  // Sample reuse: hand sampling allocators the engine's store (created on
  // first use) so sweep points share warm pools. With reuse off, the same
  // seed flows into per-run private stores — results are identical either
  // way, only the sampling bill differs.
  run_config.sample_store_seed = StoreSeed();
  if (options_.reuse_samples) {
    // Runs at every thread count share the one store: the thread count
    // never changes a pool (rrset/sample_store.h).
    run_config.sample_store = store_.get();
    // Sharded plane: chunk-interleaved shard pools are keyed by K. The map
    // mutation is guarded — Run() may be called concurrently (see the
    // header contract) and StoreStats() polls from other threads.
    // Externally injected shard clients (the serving router) bypass
    // engine-owned stores entirely.
    if (run_config.num_shards > 1 && run_config.shard_clients.empty()) {
      MutexLock lock(store_mutex_);
      std::unique_ptr<ShardedRrSampleStore>& sharded =
          sharded_stores_[run_config.num_shards];
      if (sharded == nullptr) {
        sharded = std::make_unique<ShardedRrSampleStore>(
            &base_.graph(), RrSampleStore::Options{.seed = StoreSeed()},
            run_config.num_shards);
      }
      run_config.sharded_sample_store = sharded.get();
    }
  } else {
    run_config.sample_store = nullptr;
    run_config.sharded_sample_store = nullptr;
  }
  Result<std::unique_ptr<Allocator>> allocator =
      AllocatorRegistry::Global().Create(run_config);
  if (!allocator.ok()) return allocator.status();

  const ProblemInstance instance = MakeInstance(query);
  Rng algo_rng(AlgoSeed(config.allocator, query));
  EngineRun run;
  run.result = allocator.value()->Allocate(instance, algo_rng);

  const Status valid = ValidateAllocation(instance, run.result.allocation);
  if (!valid.ok()) {
    return Status::Internal("allocator \"" + config.allocator +
                            "\" produced an invalid allocation: " +
                            valid.ToString());
  }
  if (options_.evaluate) {
    RegretEvaluator evaluator(&instance, {.num_sims = options_.eval_sims});
    Rng eval_rng(EvalSeed(query));
    run.report = evaluator.Evaluate(run.result.allocation, eval_rng);
  }
  return run;
}

}  // namespace tirm
