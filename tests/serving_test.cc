// Tests for the serving subsystem (src/serve/): bounded queue admission,
// sweep-grid expansion, the NDJSON protocol codecs, service metrics
// identities, and — the core contract — bit-identical responses under
// concurrent mixed load, every worker on one shared engine, vs direct
// single-threaded engine runs.
//
// Runs under ThreadSanitizer in CI alongside sample_store_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "datasets/dataset.h"
#include "serve/allocation_service.h"
#include "serve/protocol.h"
#include "serve/request_queue.h"
#include "serve/shard_protocol.h"

namespace tirm {
namespace serve {
namespace {

// Small but non-trivial evaluation so reports are worth comparing.
EngineOptions TestEngineOptions() {
  EngineOptions o;
  o.eval_sims = 200;
  o.seed = 2015;
  return o;
}

AllocationService::InstanceFactory Fig1Factory() {
  return [] { return BuildFigure1Instance(); };
}

// The mixed workload: every registered allocator (the Fig. 1 gadget is
// small enough for greedy-mc) across a kappa x lambda grid.
SweepRequest TestWorkload() {
  SweepRequest sweep;
  sweep.config.allocator = "tirm";
  sweep.config.mc_sims = 100;
  sweep.allocators = {"myopic", "myopic+", "greedy-irie", "greedy-mc", "tirm"};
  sweep.kappas = {1, 2};
  sweep.lambdas = {0.0, 0.5};
  sweep.id_prefix = "t";
  return sweep;
}

// ------------------------------------------------------------ BoundedQueue

TEST(BoundedQueueTest, FifoAndCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1).ok());
  EXPECT_TRUE(q.TryPush(2).ok());
  const Status full = q.TryPush(3);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.code(), StatusCode::kUnavailable);  // typed admission reject
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_TRUE(q.TryPush(3).ok());
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_EQ(q.Pop().value(), 3);
}

TEST(BoundedQueueTest, CloseDrainsThenSignalsExit) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.TryPush(7).ok());
  q.Close();
  EXPECT_EQ(q.TryPush(8).code(), StatusCode::kUnavailable);
  EXPECT_EQ(q.PushWait(9).code(), StatusCode::kUnavailable);
  EXPECT_EQ(q.Pop().value(), 7);  // admitted items still drain
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueueTest, PushWaitBlocksUntilSpace) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.TryPush(1).ok());
  std::thread producer([&q] { EXPECT_TRUE(q.PushWait(2).ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(q.Pop().value(), 1);  // frees the producer
  producer.join();
  EXPECT_EQ(q.Pop().value(), 2);
}

// ------------------------------------------------------------ SweepRequest

TEST(SweepRequestTest, GridOrderIsDeterministicAndComplete) {
  const SweepRequest sweep = TestWorkload();
  const std::vector<AllocationRequest> grid = sweep.Grid();
  ASSERT_EQ(grid.size(), 5u * 2u * 2u);
  EXPECT_EQ(grid[0].id, "t/0/myopic");
  EXPECT_EQ(grid[0].query.kappa, 1);
  EXPECT_EQ(grid[0].query.lambda, 0.0);
  EXPECT_EQ(grid[1].query.lambda, 0.5);  // budget/beta innermost-but-one
  EXPECT_EQ(grid[2].query.kappa, 2);
  EXPECT_EQ(grid.back().id, "t/19/tirm");
  EXPECT_EQ(grid.back().config.allocator, "tirm");
  // Non-allocator config fields are shared across the grid.
  for (const AllocationRequest& r : grid) {
    EXPECT_EQ(r.config.mc_sims, 100u);
  }
}

// ----------------------------------------------------------------- Codec

TEST(ProtocolTest, RequestRoundTripsExactly) {
  AllocationRequest request;
  request.id = "round\ntrip\"id";
  request.config.allocator = "greedy-irie";
  request.config.eps = 0.2;
  request.config.theta_cap = 1 << 20;
  request.config.num_threads = 3;
  request.config.weight_by_ctp = true;
  request.config.irie_alpha = 0.75;
  request.config.mc_sims = 42;
  request.query = {.kappa = 5, .lambda = 0.1, .beta = 0.25,
                   .budget_scale = 2.0};
  request.timeout_ms = 1234.5;

  // Defaults deliberately different everywhere: every field must come
  // from the serialized request, none from the defaults.
  AllocationRequest defaults;
  defaults.config.eps = 0.4;
  defaults.query.kappa = 9;
  defaults.timeout_ms = 1.0;

  Result<AllocationRequest> parsed =
      ParseRequest(FormatRequest(request), defaults);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->id, request.id);
  EXPECT_EQ(parsed->config.allocator, "greedy-irie");
  EXPECT_EQ(parsed->config.eps, 0.2);
  EXPECT_EQ(parsed->config.theta_cap, request.config.theta_cap);
  EXPECT_EQ(parsed->config.num_threads, 3);
  EXPECT_TRUE(parsed->config.weight_by_ctp);
  EXPECT_EQ(parsed->config.irie_alpha, 0.75);
  EXPECT_EQ(parsed->config.mc_sims, 42u);
  EXPECT_EQ(parsed->query.kappa, 5);
  EXPECT_EQ(parsed->query.lambda, 0.1);
  EXPECT_EQ(parsed->query.beta, 0.25);
  EXPECT_EQ(parsed->query.budget_scale, 2.0);
  EXPECT_EQ(parsed->timeout_ms, 1234.5);
}

TEST(ProtocolTest, UnsetFieldsTakeServerDefaults) {
  AllocationRequest defaults;
  defaults.config.allocator = "myopic";
  defaults.config.eps = 0.33;
  defaults.query.lambda = 0.7;
  defaults.timeout_ms = 99.0;
  Result<AllocationRequest> parsed =
      ParseRequest(R"({"id":"q","query":{"kappa":2}})", defaults);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->config.allocator, "myopic");
  EXPECT_EQ(parsed->config.eps, 0.33);
  EXPECT_EQ(parsed->query.kappa, 2);       // overridden
  EXPECT_EQ(parsed->query.lambda, 0.7);    // inherited
  EXPECT_EQ(parsed->timeout_ms, 99.0);
}

TEST(ProtocolTest, RequestParsingIgnoresEnvironment) {
  // The CLI flag layer falls back to TIRM_* env vars; the wire codec must
  // not — a request means the same thing under any server environment.
  setenv("TIRM_LAMBDA", "0.9", 1);
  setenv("TIRM_EPS", "0.9", 1);
  Result<AllocationRequest> parsed =
      ParseRequest(R"({"allocator":"tirm"})", AllocationRequest());
  unsetenv("TIRM_LAMBDA");
  unsetenv("TIRM_EPS");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->query.lambda, 0.0);
  EXPECT_EQ(parsed->config.eps, 0.1);  // AllocatorConfig default
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  const AllocationRequest defaults;
  for (const char* bad : {
           "not json at all",
           "[1,2,3]",                                  // not an object
           R"({"allocatr":"tirm"})",                   // unknown top key
           R"({"config":{"epss":0.1}})",               // unknown config key
           R"({"query":{"kapa":1}})",                  // unknown query key
           R"({"query":{"kappa":0}})",                 // out of range
           R"({"query":{"lambda":"x"}})",              // malformed numeric
           R"({"config":{"eps":1.5}})",                // fails validation
           R"({"config":[1]})",                        // wrong type
           R"({"timeout_ms":-5})",                     // negative deadline
           R"({"id":7})",                              // id must be a string
       }) {
    Result<AllocationRequest> parsed = ParseRequest(bad, defaults);
    EXPECT_FALSE(parsed.ok()) << bad;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
    }
  }
}

TEST(ProtocolTest, RecoversIdFromRejectedLines) {
  // Valid JSON with an id but a failing body: the id is recoverable so
  // the error response stays correlatable.
  EXPECT_EQ(RecoverRequestId(R"({"id":"q7","config":{"eps":1.5}})"), "q7");
  // Nothing recoverable: not JSON, not an object, or id not a string.
  EXPECT_EQ(RecoverRequestId("garbage"), "");
  EXPECT_EQ(RecoverRequestId("[1,2]"), "");
  EXPECT_EQ(RecoverRequestId(R"({"id":7})"), "");
}

TEST(ProtocolTest, OkResponseRoundTripsSerializedSubset) {
  AllocationResponse response;
  response.id = "q7";
  response.status = Status::OK();
  response.worker = 2;
  response.queue_ms = 0.25;
  response.serve_ms = 12.5;
  response.run.result.allocator = "tirm";
  response.run.result.allocation.seeds = {{4, 2}, {}, {5}};
  response.run.result.seconds = 0.125;
  response.run.result.iterations = 6;
  response.run.result.total_rr_sets = 9000;
  response.run.result.rr_memory_bytes = 4096;
  response.run.result.cache.sampled_sets = 8192;
  response.run.result.cache.reused_sets = 1024;
  response.run.result.cache.arena_bytes = 2048;
  response.run.result.cache.shared_store = true;
  response.run.report.ads.resize(3);  // marks "evaluation ran"
  response.run.report.total_regret = 1.5;
  response.run.report.total_revenue = 7.5;
  response.run.report.total_budget = 9.0;
  response.run.report.total_seeds = 3;
  response.run.report.distinct_targeted = 3;

  const std::string line = FormatResponse(response);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one line on the wire
  Result<AllocationResponse> parsed = ParseResponse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->id, "q7");
  EXPECT_TRUE(parsed->status.ok());
  EXPECT_EQ(parsed->worker, 2);
  EXPECT_EQ(parsed->queue_ms, 0.25);
  EXPECT_EQ(parsed->serve_ms, 12.5);
  EXPECT_EQ(parsed->run.result.allocator, "tirm");
  EXPECT_EQ(parsed->run.result.allocation.seeds,
            response.run.result.allocation.seeds);
  EXPECT_EQ(parsed->run.result.seconds, 0.125);
  EXPECT_EQ(parsed->run.result.iterations, 6u);
  EXPECT_EQ(parsed->run.result.total_rr_sets, 9000u);
  EXPECT_EQ(parsed->run.result.rr_memory_bytes, 4096u);
  EXPECT_EQ(parsed->run.result.cache.sampled_sets, 8192u);
  EXPECT_EQ(parsed->run.result.cache.reused_sets, 1024u);
  EXPECT_TRUE(parsed->run.result.cache.shared_store);
  EXPECT_EQ(parsed->run.report.total_regret, 1.5);
  EXPECT_EQ(parsed->run.report.total_revenue, 7.5);
  EXPECT_EQ(parsed->run.report.total_budget, 9.0);
  EXPECT_EQ(parsed->run.report.total_seeds, 3u);
  EXPECT_EQ(parsed->run.report.distinct_targeted, 3u);
}

TEST(ProtocolTest, ErrorResponsesRoundTripTyped) {
  const std::string line = FormatErrorResponse(
      "bad1", Status::NotFound("unknown allocator \"nope\""));
  Result<AllocationResponse> parsed = ParseResponse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->id, "bad1");
  EXPECT_FALSE(parsed->status.ok());
  EXPECT_EQ(parsed->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(parsed->status.message(), "unknown allocator \"nope\"");

  // A deadline expiry response survives the wire with its code intact.
  AllocationResponse expired;
  expired.id = "late";
  expired.status = Status::DeadlineExceeded("5 ms deadline");
  Result<AllocationResponse> reparsed =
      ParseResponse(FormatResponse(expired));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->status.code(), StatusCode::kDeadlineExceeded);
}

// A removed key is an unknown key at both wire boundaries: the client
// request codec and the shard plane's begin op answer it with a typed error
// naming the key, never by ignoring it. `num_threads` left the begin op
// when the thread count stopped being part of a shard store's identity.
TEST(ProtocolTest, RemovedKeysAreTypedErrorsAtBothBoundaries) {
  for (const std::string key :
       {"coverage_kernel", "sampler_kernel", "num_threads"}) {
    SCOPED_TRACE(key);
    Result<AllocationRequest> request = ParseRequest(
        R"({"id":"k1","allocator":"tirm","config":{")" + key +
            R"(":"auto"}})",
        AllocationRequest());
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(request.status().message(),
              "unknown key \"" + key + R"(" in "config")");

    ShardRunConfig run;
    run.num_ads = 1;
    std::string begin = FormatBeginRequest(run, 0, 2);
    ASSERT_TRUE(ParseShardRequest(begin).ok()) << begin;
    ASSERT_EQ(begin.back(), '}');
    begin.insert(begin.size() - 1, ",\"" + key + R"(":"auto")");
    Result<ShardOpRequest> shard = ParseShardRequest(begin);
    ASSERT_FALSE(shard.ok()) << begin;
    EXPECT_EQ(shard.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(shard.status().message(),
              "unknown key \"" + key + R"(" in shard op "begin")");
  }
}

// ---------------------------------------------------------------- Service

// The tentpole contract: N threads submitting interleaved mixed sweeps get
// responses bit-identical to serial engine.Run goldens for each request.
TEST(AllocationServiceTest, ConcurrentMixedLoadMatchesSerialGoldens) {
  const std::vector<AllocationRequest> grid = TestWorkload().Grid();

  // Serial goldens from one engine — the direct, unserved path.
  std::map<std::string, EngineRun> goldens;
  {
    AdAllocEngine engine(BuildFigure1Instance(), TestEngineOptions());
    for (const AllocationRequest& r : grid) {
      Result<EngineRun> run = engine.Run(r.config, r.query);
      ASSERT_TRUE(run.ok()) << r.id << ": " << run.status().ToString();
      goldens.emplace(r.id, run.MoveValue());
    }
  }

  AllocationService service(Fig1Factory(),
                            {.num_workers = 3,
                             .queue_capacity = 128,
                             .engine = TestEngineOptions()});

  // 4 submitter threads, each pushing the whole grid rotated differently
  // so requests interleave across workers; plus a metrics poller hammering
  // the cross-thread read paths (engine store stats) during load.
  constexpr int kSubmitters = 4;
  std::vector<std::vector<std::future<AllocationResponse>>> futures(
      kSubmitters);
  std::atomic<bool> polling{true};
  std::thread poller([&service, &polling] {
    while (polling.load()) {
      (void)service.Metrics();
      (void)service.StoreStats();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&service, &grid, &futures, s] {
      for (std::size_t i = 0; i < grid.size(); ++i) {
        const AllocationRequest& r =
            grid[(i + static_cast<std::size_t>(s) * 7) % grid.size()];
        Result<std::future<AllocationResponse>> submitted =
            service.SubmitWait(r);
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        futures[static_cast<std::size_t>(s)].push_back(submitted.MoveValue());
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  std::size_t compared = 0;
  for (auto& lane : futures) {
    for (auto& future : lane) {
      const AllocationResponse response = future.get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      const EngineRun& golden = goldens.at(response.id);
      // Bit-identical allocation...
      EXPECT_EQ(response.run.result.allocation.seeds,
                golden.result.allocation.seeds)
          << response.id;
      // ...and evaluation (same seed policy -> same MC draws).
      EXPECT_EQ(response.run.report.total_regret, golden.report.total_regret)
          << response.id;
      EXPECT_EQ(response.run.report.total_revenue,
                golden.report.total_revenue)
          << response.id;
      EXPECT_EQ(response.run.result.allocator, golden.result.allocator);
      EXPECT_GE(response.worker, 0);
      EXPECT_LT(response.worker, service.num_workers());
      ++compared;
    }
  }
  EXPECT_EQ(compared, grid.size() * kSubmitters);
  polling.store(false);
  poller.join();

  const MetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.received, grid.size() * kSubmitters);
  EXPECT_EQ(m.admitted, m.received);
  EXPECT_EQ(m.served_ok, m.received);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(m.expired, 0u);
  EXPECT_EQ(m.queue_count, m.admitted);
  EXPECT_EQ(m.serve_count, m.served_ok);
}

TEST(AllocationServiceTest, SubmitSweepReturnsOrderedResults) {
  AllocationService service(Fig1Factory(),
                            {.num_workers = 2,
                             .engine = TestEngineOptions()});
  const SweepRequest sweep = TestWorkload();
  const std::vector<AllocationRequest> grid = sweep.Grid();
  const std::vector<AllocationResponse> responses = service.SubmitSweep(sweep);
  ASSERT_EQ(responses.size(), grid.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_TRUE(responses[i].status.ok()) << responses[i].status.ToString();
    EXPECT_EQ(responses[i].id, grid[i].id);  // grid order, not finish order
    EXPECT_EQ(responses[i].run.result.allocator, grid[i].config.allocator);
  }
}

TEST(AllocationServiceTest, QueueFullRejectionIsTypedAndCounted) {
  // Workers deliberately not started: the queue fills deterministically.
  AllocationService service(Fig1Factory(),
                            {.num_workers = 1,
                             .queue_capacity = 2,
                             .engine = TestEngineOptions(),
                             .autostart = false});
  AllocationRequest request;
  request.config.allocator = "myopic";
  request.id = "a";
  Result<std::future<AllocationResponse>> a = service.Submit(request);
  request.id = "b";
  Result<std::future<AllocationResponse>> b = service.Submit(request);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  request.id = "c";
  Result<std::future<AllocationResponse>> c = service.Submit(request);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kUnavailable);

  service.Start();  // drain the two admitted requests
  EXPECT_EQ(a->get().id, "a");
  EXPECT_EQ(b->get().id, "b");

  const MetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.received, 3u);
  EXPECT_EQ(m.admitted, 2u);
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.served_ok, 2u);
}

TEST(AllocationServiceTest, DeadlineExpiryAtDequeue) {
  AllocationService service(Fig1Factory(),
                            {.num_workers = 1,
                             .engine = TestEngineOptions(),
                             .autostart = false});
  AllocationRequest request;
  request.config.allocator = "myopic";
  request.id = "expires";
  request.timeout_ms = 5.0;
  Result<std::future<AllocationResponse>> doomed = service.Submit(request);
  request.id = "survives";
  request.timeout_ms = 0.0;  // no deadline
  Result<std::future<AllocationResponse>> fine = service.Submit(request);
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE(fine.ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service.Start();

  const AllocationResponse expired = doomed->get();
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(expired.queue_ms, 5.0);
  EXPECT_GE(expired.worker, 0);  // it was dequeued, then dropped
  const AllocationResponse served = fine->get();
  EXPECT_TRUE(served.status.ok());

  const MetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.expired, 1u);
  EXPECT_EQ(m.served_ok, 1u);
  EXPECT_EQ(m.received, 2u);
  EXPECT_EQ(m.queue_count, 2u);  // expiries feed the queue histogram
  EXPECT_EQ(m.serve_count, 1u);  // but not the serve histogram
}

TEST(AllocationServiceTest, InBandErrorsKeepTheFutureAlive) {
  AllocationService service(Fig1Factory(),
                            {.num_workers = 1,
                             .engine = TestEngineOptions()});
  AllocationRequest request;
  request.id = "oops";
  request.config.allocator = "no-such-allocator";
  Result<std::future<AllocationResponse>> submitted = service.Submit(request);
  ASSERT_TRUE(submitted.ok());  // admission is not validation
  const AllocationResponse response = submitted->get();
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(response.id, "oops");

  const MetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.served_ok, 0u);
}

TEST(AllocationServiceTest, StopWithoutStartAnswersUnavailable) {
  AllocationService service(Fig1Factory(),
                            {.num_workers = 1,
                             .engine = TestEngineOptions(),
                             .autostart = false});
  AllocationRequest request;
  request.id = "orphan";
  request.config.allocator = "myopic";
  Result<std::future<AllocationResponse>> submitted = service.Submit(request);
  ASSERT_TRUE(submitted.ok());
  service.Stop();  // never started: the admitted request is dropped
  const AllocationResponse response =
      submitted->get();  // resolved in-band, not a broken promise
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(response.id, "orphan");

  // Drops count as failed but never ran: no serve-histogram sample.
  const MetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.served_ok, 0u);
  EXPECT_EQ(m.queue_count, 1u);
  EXPECT_EQ(m.serve_count, 0u);
}

// Warm stores accumulate across requests, and repeat sweeps reuse instead
// of resampling — the serving-side restatement of the store contract. The
// workers share one store, so a repeat samples nothing whichever worker
// serves it.
TEST(AllocationServiceTest, RepeatSweepsReuseWarmStores) {
  AllocationService service(Fig1Factory(),
                            {.num_workers = 3,
                             .engine = TestEngineOptions()});
  SweepRequest sweep;
  sweep.config.allocator = "tirm";
  sweep.lambdas = {0.0, 0.5};
  const std::vector<AllocationResponse> cold = service.SubmitSweep(sweep);
  const SampleCacheStats after_cold = service.StoreStats();
  const std::vector<AllocationResponse> warm = service.SubmitSweep(sweep);
  const SampleCacheStats after_warm = service.StoreStats();

  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].run.result.allocation.seeds,
              warm[i].run.result.allocation.seeds);
  }
  EXPECT_GT(after_cold.sampled_sets, 0u);
  // A repeat of an already-served sweep samples nothing new anywhere...
  EXPECT_EQ(after_warm.sampled_sets, after_cold.sampled_sets);
  // ...and serves strictly more pooled sets.
  EXPECT_GT(after_warm.reused_sets, after_cold.reused_sets);
}

// The service builds one engine and every worker runs on it: after a
// 3-worker sweep the store has sampled exactly what a direct engine samples
// for the same grid, not one copy per worker.
TEST(AllocationServiceTest, WorkersShareOneEngineAndItsStore) {
  AllocationService service(Fig1Factory(),
                            {.num_workers = 3,
                             .engine = TestEngineOptions()});
  for (const AllocationResponse& response :
       service.SubmitSweep(TestWorkload())) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  EXPECT_EQ(&service.engine(0), &service.engine(2));

  AdAllocEngine direct(BuildFigure1Instance(), TestEngineOptions());
  for (const AllocationRequest& r : TestWorkload().Grid()) {
    ASSERT_TRUE(direct.Run(r.config, r.query).ok()) << r.id;
  }
  EXPECT_GT(direct.StoreStats().sampled_sets, 0u);
  EXPECT_EQ(service.StoreStats().sampled_sets,
            direct.StoreStats().sampled_sets);
}

// A sharded request samples into the service engine's sharded store, and the
// store stats count that store too: after one K=2 TIRM request they equal a
// K=1 service's, sampled sets and max traversal included (the K shard pools
// partition the same global pool).
TEST(AllocationServiceTest, StoreStatsCountShardedStores) {
  const auto stats_after_one_request = [](int num_shards) {
    AllocationService service(Fig1Factory(),
                              {.num_workers = 1,
                               .engine = TestEngineOptions()});
    AllocationRequest request;
    request.id = "k" + std::to_string(num_shards);
    request.config.allocator = "tirm";
    request.config.num_shards = num_shards;
    Result<std::future<AllocationResponse>> submitted =
        service.Submit(request);
    EXPECT_TRUE(submitted.ok());
    const AllocationResponse response = submitted->get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    return service.StoreStats();
  };
  const SampleCacheStats single = stats_after_one_request(1);
  const SampleCacheStats sharded = stats_after_one_request(2);
  EXPECT_GT(single.sampled_sets, 0u);
  EXPECT_GT(single.max_traversal, 0u);
  EXPECT_EQ(sharded.sampled_sets, single.sampled_sets);
  EXPECT_EQ(sharded.max_traversal, single.max_traversal);
}

}  // namespace
}  // namespace serve
}  // namespace tirm
