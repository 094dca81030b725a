#include "serve/allocation_service.h"

#include <utility>

#include "common/threading.h"
#include "common/timer.h"
#include "obs/trace.h"

namespace tirm {
namespace serve {

std::vector<AllocationRequest> SweepRequest::Grid() const {
  std::vector<std::string> names = allocators;
  if (names.empty()) names.push_back(config.allocator);
  std::vector<AllocationRequest> grid;
  grid.reserve(names.size() * kappas.size() * lambdas.size() * betas.size() *
               budget_scales.size());
  for (const std::string& name : names) {
    for (const int kappa : kappas) {
      for (const double lambda : lambdas) {
        for (const double beta : betas) {
          for (const double budget_scale : budget_scales) {
            AllocationRequest r;
            r.config = config;
            r.config.allocator = name;
            r.query = {.kappa = kappa,
                       .lambda = lambda,
                       .beta = beta,
                       .budget_scale = budget_scale};
            r.timeout_ms = timeout_ms;
            r.id = id_prefix + "/" + std::to_string(grid.size()) + "/" + name;
            grid.push_back(std::move(r));
          }
        }
      }
    }
  }
  return grid;
}

AllocationService::AllocationService(InstanceFactory factory, Options options)
    : factory_(std::move(factory)),
      options_(options),
      num_workers_(ResolveThreadCount(options.num_workers)),
      queue_(options.queue_capacity) {
  TIRM_CHECK(factory_ != nullptr) << "AllocationService: null factory";
  registry_handle_ = obs::MetricsRegistry::Global().RegisterProvider(
      "serve.service", [this] { return StatsJson(); });
  if (options_.autostart) Start();
}

AllocationService::~AllocationService() { Stop(); }

void AllocationService::Start() {
  MutexLock lock(lifecycle_mutex_);
  if (started_ || stopped_) return;
  started_ = true;
  // Engine construction is the service's warm-up cost; queries never pay
  // it.
  engine_ = std::make_unique<AdAllocEngine>(factory_(), options_.engine);
  threads_.reserve(static_cast<std::size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

void AllocationService::Stop() {
  // Claim the worker threads under the lock, then close and join without
  // it: joining must not hold lifecycle_mutex_ (workers briefly take it to
  // resolve the engine), and handing the vector out of the guarded state
  // keeps the capability analysis exact about who may touch threads_.
  std::vector<std::thread> workers;
  {
    MutexLock lock(lifecycle_mutex_);
    if (stopped_) return;
    stopped_ = true;
    workers.swap(threads_);
  }
  queue_.Close();
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
  // Anything still queued was admitted but never dequeued (the service was
  // stopped without ever starting): answer in-band so no future is left
  // broken.
  while (std::optional<Job> job = queue_.Pop()) {
    const double waited =
        std::chrono::duration<double>(Clock::now() - job->admitted_at).count();
    AllocationResponse response;
    response.id = job->request.id;
    response.status =
        Status::Unavailable("service stopped before the request was served");
    response.queue_ms = waited * 1e3;
    metrics_.RecordDropped(waited);  // never ran: no serve-histogram sample
    job->promise.set_value(std::move(response));
  }
}

bool AllocationService::started() const {
  MutexLock lock(lifecycle_mutex_);
  return started_;
}

AllocationService::Job AllocationService::MakeJob(
    AllocationRequest request, std::future<AllocationResponse>* future) {
  Job job;
  job.request = std::move(request);
  job.admitted_at = Clock::now();
  *future = job.promise.get_future();
  return job;
}

Result<std::future<AllocationResponse>> AllocationService::Submit(
    AllocationRequest request) {
  std::future<AllocationResponse> future;
  Job job = MakeJob(std::move(request), &future);
  const Status admitted = queue_.TryPush(std::move(job));
  if (!admitted.ok()) {
    metrics_.RecordRejected();
    return admitted;
  }
  metrics_.RecordAdmitted();
  return future;
}

Result<std::future<AllocationResponse>> AllocationService::SubmitWait(
    AllocationRequest request) {
  std::future<AllocationResponse> future;
  Job job = MakeJob(std::move(request), &future);
  const Status admitted = queue_.PushWait(std::move(job));
  if (!admitted.ok()) {
    metrics_.RecordRejected();
    return admitted;
  }
  metrics_.RecordAdmitted();
  return future;
}

std::vector<AllocationResponse> AllocationService::SubmitSweep(
    const SweepRequest& sweep) {
  const std::vector<AllocationRequest> grid = sweep.Grid();
  std::vector<AllocationResponse> responses(grid.size());
  std::vector<std::pair<std::size_t, std::future<AllocationResponse>>> pending;
  pending.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    Result<std::future<AllocationResponse>> submitted = SubmitWait(grid[i]);
    if (!submitted.ok()) {
      responses[i].id = grid[i].id;
      responses[i].status = submitted.status();
      continue;
    }
    pending.emplace_back(i, submitted.MoveValue());
  }
  for (auto& [index, future] : pending) {
    responses[index] = future.get();
  }
  return responses;
}

SampleCacheStats AllocationService::StoreStats() const {
  MutexLock lock(lifecycle_mutex_);
  return engine_ == nullptr ? SampleCacheStats{} : engine_->StoreStats();
}

JsonValue AllocationService::StatsJson() const {
  JsonValue root = JsonValue::Object();
  root.Set("workers", JsonValue::Number(num_workers_));
  root.Set("service", ToJson(Metrics()));
  const SampleCacheStats s = StoreStats();
  JsonValue store = JsonValue::Object();
  store.Set("reused_sets",
            JsonValue::Number(static_cast<double>(s.reused_sets)));
  store.Set("sampled_sets",
            JsonValue::Number(static_cast<double>(s.sampled_sets)));
  store.Set("top_ups", JsonValue::Number(static_cast<double>(s.top_ups)));
  store.Set("kpt_cache_hits",
            JsonValue::Number(static_cast<double>(s.kpt_cache_hits)));
  store.Set("kpt_estimations",
            JsonValue::Number(static_cast<double>(s.kpt_estimations)));
  store.Set("arena_bytes",
            JsonValue::Number(static_cast<double>(s.arena_bytes)));
  store.Set("view_bytes",
            JsonValue::Number(static_cast<double>(s.view_bytes)));
  store.Set("max_traversal",
            JsonValue::Number(static_cast<double>(s.max_traversal)));
  root.Set("store", std::move(store));
  return root;
}

const AdAllocEngine& AllocationService::engine(int w) const {
  MutexLock lock(lifecycle_mutex_);
  TIRM_CHECK(engine_ != nullptr && w >= 0 && w < num_workers_)
      << "engine(" << w << "): service not started or index out of range";
  return *engine_;
}

void AllocationService::WorkerLoop(int worker_index) {
  // Resolve the engine under the lifecycle lock; it is set once in Start()
  // and lives as long as the service, so the loop below runs lock-free on
  // it, concurrently with the other workers.
  AdAllocEngine* engine_ptr = nullptr;
  {
    MutexLock lock(lifecycle_mutex_);
    engine_ptr = engine_.get();
  }
  AdAllocEngine& engine = *engine_ptr;
  while (std::optional<Job> job = queue_.Pop()) {
    const Clock::time_point dequeued_at = Clock::now();
    const double waited =
        std::chrono::duration<double>(dequeued_at - job->admitted_at).count();
    // The queue wait is a cross-thread phase (admitted on the client
    // thread, dequeued here), so it is emitted as an explicit event
    // rather than an RAII span.
    obs::EmitEvent("serve_queue", job->admitted_at, dequeued_at,
                   {{"worker", static_cast<double>(worker_index)}});
    AllocationResponse response;
    response.id = job->request.id;
    response.queue_ms = waited * 1e3;
    response.worker = worker_index;

    // Deadline admission at dequeue: an expired request is cheaper to
    // answer than to run, and the client has already given up on it.
    const double timeout_ms = job->request.timeout_ms;
    if (timeout_ms > 0.0 && waited * 1e3 > timeout_ms) {
      response.status = Status::DeadlineExceeded(
          "deadline of " + std::to_string(timeout_ms) + " ms passed after " +
          std::to_string(waited * 1e3) + " ms in queue");
      metrics_.RecordExpired(waited);
      static obs::Counter& miss_counter =
          obs::MetricsRegistry::Global().GetCounter("serve.deadline_misses");
      miss_counter.Increment();
      job->promise.set_value(std::move(response));
      continue;
    }

    double serve_seconds = 0.0;
    std::optional<Result<EngineRun>> run;
    obs::StageProfile stage_profile;
    {
      ScopedTimer serve_timer(serve_seconds);
      obs::TraceSpan span("serve_run");
      span.Counter("worker", worker_index);
      // Opt-in stage breakdown: the ProfileScope routes this thread's
      // spans into stage_profile for the duration of the engine run.
      std::optional<obs::ProfileScope> profile_scope;
      if (job->request.profile) profile_scope.emplace(&stage_profile);
      run.emplace(engine.Run(job->request.config, job->request.query));
    }
    response.serve_ms = serve_seconds * 1e3;
    if (run->ok()) {
      response.run = run->MoveValue();
      response.status = Status::OK();
    } else {
      response.status = run->status();
    }
    for (const obs::StageProfile::Stage& stage : stage_profile.stages()) {
      response.profile.push_back(
          StageTiming{stage.name, stage.count,
                      static_cast<double>(stage.total_ns) * 1e-6});
    }
    metrics_.RecordServed(waited, serve_seconds, response.status.ok());
    job->promise.set_value(std::move(response));
  }
}

}  // namespace serve
}  // namespace tirm
