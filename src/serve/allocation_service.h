// AllocationService — the concurrent query-serving layer over AdAllocEngine.
//
// One service owns a fixed pool of worker threads, a bounded request queue
// with admission control, and one AdAllocEngine that every worker runs
// on. Clients submit AllocationRequests (allocator name + config knobs + an
// EngineQuery) and receive AllocationResponses (the EngineRun plus
// queue/serve timings and the run's sample-cache stats) through futures,
// or fan a whole lambda/kappa/beta/budget grid through SubmitSweep and get
// ordered results back.
//
// Concurrency model: one engine, many workers. Start() builds the engine
// from the instance factory, once, and the workers call its Run()
// concurrently (api/ad_alloc_engine.h). A served instance therefore holds
// one instance and one RR-sample store, whatever the worker count: an ad's
// pool is sampled once and read by every request, which is the host model
// of the paper's §5 (one network, many advertisers' queries over it). A
// response is a pure function of the request — bit-identical to a direct
// engine.Run() on an engine built from the same instance, no matter which
// worker serves it, how warm the store is (pooled == fresh is the store's
// own guarantee), or what else is being served concurrently.
//
// Admission control: Submit() rejects with Status::Unavailable the moment
// the queue is full (overload shedding); SubmitWait()/SubmitSweep() apply
// backpressure instead. A request may carry a deadline (timeout_ms); it is
// checked when a worker dequeues the request, and an expired request is
// answered with DeadlineExceeded without running. Errors (unknown
// allocator, invalid config/query, engine failures) are returned in-band
// in AllocationResponse::status — the future always resolves.
//
//   AllocationService service(
//       [] { return BuildFigure1Instance(); },
//       {.num_workers = 4, .engine = {.eval_sims = 1000, .seed = 2015}});
//   auto pending = service.Submit({.id = "q1", .config = {...},
//                                  .query = {.lambda = 0.1}});
//   if (!pending.ok()) { /* queue full */ }
//   AllocationResponse r = pending->get();

#ifndef TIRM_SERVE_ALLOCATION_SERVICE_H_
#define TIRM_SERVE_ALLOCATION_SERVICE_H_

#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/ad_alloc_engine.h"
#include "api/allocator_config.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "datasets/dataset.h"
#include "obs/metrics_registry.h"
#include "serve/request_queue.h"
#include "serve/service_metrics.h"

namespace tirm {
namespace serve {

/// One allocation query on the wire. The response is a pure function of
/// this struct (given the service's engine options): the service never
/// consults ambient state, and `config.sample_store` is overridden by the
/// serving engine's own seed policy.
struct AllocationRequest {
  /// Client correlation tag, echoed in the response. Not interpreted.
  std::string id;
  /// Allocator name + knobs (api/allocator_config.h).
  AllocatorConfig config;
  /// The Problem-1 sweep point (kappa / lambda / beta / budget_scale).
  EngineQuery query;
  /// Deadline in milliseconds from submission, checked when a worker
  /// dequeues the request; 0 = no deadline.
  double timeout_ms = 0.0;
  /// Opt-in per-request profiling: the serving worker runs the engine
  /// under an obs::ProfileScope and attaches the stage-timing breakdown
  /// to the response. Purely observational — the allocation is unchanged.
  bool profile = false;
  /// Admin request: answered directly by the front-end (tirm_server) with
  /// the service/registry stats instead of entering the queue.
  bool stats = false;
};

/// One aggregated pipeline stage of a profiled request (see
/// AllocationRequest::profile): total wall time across `count` spans.
struct StageTiming {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
};

/// Outcome of one request. `run` is meaningful iff `status.ok()`.
struct AllocationResponse {
  std::string id;
  Status status;
  EngineRun run;  ///< allocation + diagnostics + MC report (+ run.result.cache)
  double queue_ms = 0.0;  ///< admission -> dequeue
  double serve_ms = 0.0;  ///< dequeue -> response
  int worker = -1;        ///< which worker served it (-1: never dequeued)
  /// Stage-timing breakdown; non-empty iff the request set `profile`.
  std::vector<StageTiming> profile;
};

/// A lambda/kappa/beta/budget grid to fan into the queue. Expansion order
/// (Grid(), and therefore the order of SubmitSweep results) is
/// deterministic: allocator-major, then kappa, lambda, beta, budget_scale.
struct SweepRequest {
  /// Base config; `allocators` (when non-empty) overrides its allocator
  /// name per grid axis.
  AllocatorConfig config;
  std::vector<std::string> allocators;  ///< empty = {config.allocator}
  std::vector<int> kappas = {1};
  std::vector<double> lambdas = {0.0};
  std::vector<double> betas = {0.0};
  std::vector<double> budget_scales = {1.0};
  double timeout_ms = 0.0;  ///< applied to every grid point
  std::string id_prefix = "sweep";

  /// The expanded request list; ids are "<id_prefix>/<index>/<allocator>".
  std::vector<AllocationRequest> Grid() const;
};

/// See file comment.
class AllocationService {
 public:
  /// Produces the problem instance the service's engine is built from.
  /// Called once, from Start(). Responses equal direct engine.Run() answers
  /// on an engine built from the same instance.
  using InstanceFactory = std::function<BuiltInstance()>;

  struct Options {
    /// Worker threads, all running on the one engine (common/threading.h
    /// semantics: <= 0 selects hardware concurrency; clamped to
    /// kMaxSamplingThreads).
    int num_workers = 0;
    /// Bounded request-queue capacity (admission control beyond it).
    std::size_t queue_capacity = 256;
    /// Knobs of the service's engine (seed policy, eval_sims,
    /// reuse_samples).
    EngineOptions engine;
    /// Start() from the constructor. Tests defer (autostart = false) to
    /// exercise admission control and deadline expiry deterministically.
    bool autostart = true;
  };

  AllocationService(InstanceFactory factory, Options options);
  ~AllocationService();  ///< Stop()s: drains admitted work, joins workers

  AllocationService(const AllocationService&) = delete;
  AllocationService& operator=(const AllocationService&) = delete;

  /// Builds the engine (the one factory call) and launches the workers.
  /// Idempotent.
  void Start() TIRM_EXCLUDES(lifecycle_mutex_);

  /// Graceful shutdown: closes admission, serves everything already
  /// queued, joins the workers. Requests never dequeued (service stopped
  /// without Start()) are answered Unavailable in-band. Idempotent.
  void Stop() TIRM_EXCLUDES(lifecycle_mutex_);

  /// Non-blocking admission: Unavailable when the queue is full or the
  /// service is stopping — the typed reject IS the admission control.
  /// On success the future always resolves (errors arrive in-band).
  Result<std::future<AllocationResponse>> Submit(AllocationRequest request);

  /// Blocking admission: waits for queue space (backpressure);
  /// Unavailable only when the service is stopping.
  Result<std::future<AllocationResponse>> SubmitWait(AllocationRequest request);

  /// Fans `sweep.Grid()` into the queue with backpressure and gathers the
  /// responses in grid order. Requires a started service (workers must be
  /// draining, or a grid larger than the queue would deadlock).
  std::vector<AllocationResponse> SubmitSweep(const SweepRequest& sweep);

  MetricsSnapshot Metrics() const { return metrics_.Snapshot(); }

  /// Zeroes the service metrics (counters + latency histograms). For
  /// measurement harnesses that warm the service up first and must not
  /// count warm-up traffic in the reported percentiles; call only while
  /// no requests are in flight.
  void ResetMetrics() { metrics_.Reset(); }

  /// Resolved worker count.
  int num_workers() const { return num_workers_; }
  bool started() const TIRM_EXCLUDES(lifecycle_mutex_);

  /// Lifetime sample-cache stats of the engine's stores, sharded ones
  /// included (AdAllocEngine::StoreStats); all zero before Start().
  SampleCacheStats StoreStats() const TIRM_EXCLUDES(lifecycle_mutex_);

  /// This service's stats section — worker count, the ServiceMetrics
  /// snapshot (serve::ToJson shape), and the aggregated store stats. The
  /// same payload the service publishes to obs::MetricsRegistry::Global()
  /// as its "serve.service" provider, and the protocol's `stats` admin
  /// request returns.
  JsonValue StatsJson() const TIRM_EXCLUDES(lifecycle_mutex_);

  /// The engine worker `w` runs on — the same one for every w in
  /// [0, num_workers()) (for goldens and stats; valid after Start()).
  const AdAllocEngine& engine(int w) const TIRM_EXCLUDES(lifecycle_mutex_);

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    AllocationRequest request;
    std::promise<AllocationResponse> promise;
    Clock::time_point admitted_at;
  };

  Job MakeJob(AllocationRequest request,
              std::future<AllocationResponse>* future);
  void WorkerLoop(int worker_index) TIRM_EXCLUDES(lifecycle_mutex_);

  InstanceFactory factory_;
  Options options_;
  int num_workers_;
  BoundedQueue<Job> queue_;
  ServiceMetrics metrics_;

  mutable Mutex lifecycle_mutex_;
  bool started_ TIRM_GUARDED_BY(lifecycle_mutex_) = false;
  bool stopped_ TIRM_GUARDED_BY(lifecycle_mutex_) = false;
  std::unique_ptr<AdAllocEngine> engine_ TIRM_GUARDED_BY(lifecycle_mutex_);
  std::vector<std::thread> threads_ TIRM_GUARDED_BY(lifecycle_mutex_);

  // Last member: destroyed first, so the registry provider (which reads
  // metrics_ and the engine) unregisters before anything it captures dies.
  obs::MetricsRegistry::ProviderHandle registry_handle_;
};

}  // namespace serve
}  // namespace tirm

#endif  // TIRM_SERVE_ALLOCATION_SERVICE_H_
