// Serving throughput and latency of the AllocationService (beyond the
// paper: the serving layer over AdAllocEngine).
//
// Workload: a mixed allocator x lambda x kappa request grid on the
// FLIXSTER-shaped instance, repeated for several passes. Three sections:
//   1. Cold vs warm store: the first pass pays RR sampling, repeat passes
//      serve from the warm pools every worker shares — same allocations,
//      less time.
//   2. Worker scaling: sustained QPS and p50/p95/p99 queue/serve latency
//      at 1..N workers (fresh service per point). On a single-core
//      container the sweep plateaus at ~1x by construction.
//   3. Determinism spot-check: every response of a concurrent pass equals
//      the direct single-threaded engine.Run golden for that request
//      (aborts on mismatch — the bench doubles as a correctness gate).
//      The direct runs execute under the obs::TraceRecorder; their
//      per-stage aggregate lands in the report's "profile" section.
//
// --deadline_ms=<ms> (default 0 = none) attaches a per-request deadline
// to the worker-scaling section; expired responses are then tolerated and
// each worker-count row records its deadline-miss rate (misses are
// load-dependent, so CI keeps the default of no deadline).
//
// Evaluation (MC regret) is off by default here — it costs the same cold
// or warm and would dilute the serving signal; --serve_eval=true turns it
// on. Results land in BENCH_serving.json (--json_out to move/disable).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/threading.h"
#include "common/timer.h"
#include "obs/trace.h"
#include "serve/allocation_service.h"

namespace {

using namespace tirm;
using namespace tirm::bench;

serve::SweepRequest MakeWorkload(const BenchConfig& config) {
  serve::SweepRequest sweep;
  sweep.config = config.MakeAllocatorConfig("tirm");
  sweep.allocators = {"tirm", "myopic+", "greedy-irie"};
  sweep.kappas = {1, 2};
  sweep.lambdas = {0.0, 0.1, 0.5};
  sweep.id_prefix = "load";
  return sweep;
}

int BadFlag(const std::string& message) {
  std::fprintf(stderr, "bench_serving_throughput: %s\n", message.c_str());
  return 1;
}

JsonValue LatencyJson(const serve::MetricsSnapshot& m) {
  JsonValue lat = JsonValue::Object();
  lat.Set("queue_p50_ms", JsonValue::Number(m.queue_p50 * 1e3));
  lat.Set("queue_p95_ms", JsonValue::Number(m.queue_p95 * 1e3));
  lat.Set("queue_p99_ms", JsonValue::Number(m.queue_p99 * 1e3));
  lat.Set("serve_p50_ms", JsonValue::Number(m.serve_p50 * 1e3));
  lat.Set("serve_p95_ms", JsonValue::Number(m.serve_p95 * 1e3));
  lat.Set("serve_p99_ms", JsonValue::Number(m.serve_p99 * 1e3));
  lat.Set("serve_mean_ms", JsonValue::Number(m.serve_mean * 1e3));
  return lat;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  BenchConfig config = BenchConfig::FromFlags(flags, /*default_scale=*/0.004,
                                              /*default_eps=*/0.3,
                                              /*default_json_out=*/
                                              "BENCH_serving.json");
  // This bench's own knobs; a malformed or out-of-range value exits 1.
  // --threads doubles as the worker count here, where it defaults to 4.
  const Result<bool> serve_eval_flag = flags.GetBoolStrict("serve_eval", false);
  const Result<std::int64_t> threads = flags.GetIntStrict("threads", 4);
  const Result<std::int64_t> passes_flag = flags.GetIntStrict("passes", 3);
  const Result<double> deadline_flag =
      flags.GetDoubleStrict("deadline_ms", 0.0);
  for (const Status& s : {serve_eval_flag.status(), threads.status(),
                          passes_flag.status(), deadline_flag.status()}) {
    if (!s.ok()) return BadFlag(s.message());
  }
  if (*threads < 0 || *threads > kMaxSamplingThreads) {
    return BadFlag("flag --threads must be in [0, " +
                   std::to_string(kMaxSamplingThreads) + "]");
  }
  if (*passes_flag < 1 || *passes_flag > std::numeric_limits<int>::max()) {
    return BadFlag("flag --passes must be a positive int");
  }
  if (!(*deadline_flag >= 0.0) || !std::isfinite(*deadline_flag)) {
    return BadFlag("flag --deadline_ms must be finite and >= 0");
  }
  const bool serve_eval = *serve_eval_flag;
  const int max_workers = ResolveThreadCount(static_cast<int>(*threads));
  const int passes = static_cast<int>(*passes_flag);
  const double deadline_ms = *deadline_flag;

  config.Print("bench_serving_throughput: AllocationService QPS + latency");
  JsonReport report("bench_serving_throughput", config);

  serve::AllocationService::Options service_options;
  service_options.engine.seed = config.seed;
  service_options.engine.eval_sims = config.eval_sims;
  service_options.engine.evaluate = serve_eval;
  service_options.queue_capacity = 1024;

  const DatasetSpec spec = FlixsterLike(config.scale);
  const std::uint64_t build_seed = config.seed;
  const auto factory = [&spec, build_seed] {
    Rng rng(build_seed);
    return BuildDataset(spec, rng);
  };

  const serve::SweepRequest workload = MakeWorkload(config);
  const std::size_t grid_size = workload.Grid().size();
  std::printf("workload: %zu requests/pass (tirm + myopic+ + greedy-irie, "
              "kappa x lambda grid), %d passes, evaluation %s\n\n",
              grid_size, passes, serve_eval ? "on" : "off");
  report.Set("requests_per_pass",
             JsonValue::Number(static_cast<double>(grid_size)));
  report.Set("passes", JsonValue::Number(passes));
  report.Set("serve_eval", JsonValue::Bool(serve_eval));

  // ---- 1. Cold vs warm store (fixed worker count).
  std::vector<serve::AllocationResponse> golden_pass;
  {
    serve::AllocationService::Options options = service_options;
    options.num_workers = max_workers;
    serve::AllocationService service(factory, options);
    std::printf("--- cold vs warm store (%d workers, flixster-like) ---\n",
                service.num_workers());
    TablePrinter t({"pass", "seconds", "qps", "sampled sets", "reused sets"});
    JsonValue rows = JsonValue::Array();
    double cold_seconds = 0.0;
    double warm_seconds = 0.0;
    for (int pass = 0; pass < std::max(2, passes); ++pass) {
      const SampleCacheStats before = service.StoreStats();
      double seconds = 0.0;
      std::vector<serve::AllocationResponse> responses;
      {
        ScopedTimer timer(seconds);
        responses = service.SubmitSweep(workload);
      }
      const SampleCacheStats after = service.StoreStats();
      for (const serve::AllocationResponse& r : responses) {
        TIRM_CHECK(r.status.ok()) << r.id << ": " << r.status.ToString();
      }
      if (pass == 0) {
        cold_seconds = seconds;
        golden_pass = std::move(responses);
      } else {
        warm_seconds = seconds;  // keep the last warm pass
        // Warm passes must reproduce the cold pass bit-for-bit.
        TIRM_CHECK(responses.size() == golden_pass.size());
        for (std::size_t i = 0; i < responses.size(); ++i) {
          TIRM_CHECK(responses[i].run.result.allocation.seeds ==
                     golden_pass[i].run.result.allocation.seeds)
              << "warm pass diverged from cold pass at " << responses[i].id;
        }
      }
      t.AddRow({pass == 0 ? "cold" : ("warm " + std::to_string(pass)),
                TablePrinter::Num(seconds, 3),
                TablePrinter::Num(static_cast<double>(grid_size) / seconds, 1),
                TablePrinter::Int(static_cast<long long>(
                    after.sampled_sets - before.sampled_sets)),
                TablePrinter::Int(static_cast<long long>(
                    after.reused_sets - before.reused_sets))});
      JsonValue row = JsonValue::Object();
      row.Set("pass", JsonValue::String(pass == 0 ? "cold" : "warm"));
      row.Set("seconds", JsonValue::Number(seconds));
      row.Set("qps",
              JsonValue::Number(static_cast<double>(grid_size) / seconds));
      row.Set("sampled_sets",
              JsonValue::Number(static_cast<double>(after.sampled_sets -
                                                    before.sampled_sets)));
      row.Set("reused_sets",
              JsonValue::Number(static_cast<double>(after.reused_sets -
                                                    before.reused_sets)));
      rows.Append(std::move(row));
    }
    t.Print();
    std::printf("warm-store speedup: %.2fx (identical allocations)\n\n",
                cold_seconds / warm_seconds);
    JsonValue section = JsonValue::Object();
    section.Set("workers", JsonValue::Number(service.num_workers()));
    section.Set("rows", std::move(rows));
    section.Set("cold_seconds", JsonValue::Number(cold_seconds));
    section.Set("warm_seconds", JsonValue::Number(warm_seconds));
    section.Set("warm_speedup",
                JsonValue::Number(cold_seconds / warm_seconds));
    report.Set("cold_vs_warm", std::move(section));
  }

  // ---- 2. Sustained QPS and latency percentiles vs worker count.
  {
    std::vector<int> worker_counts = {1, 2, 4};
    if (std::find(worker_counts.begin(), worker_counts.end(), max_workers) ==
        worker_counts.end()) {
      worker_counts.push_back(max_workers);
    }
    std::sort(worker_counts.begin(), worker_counts.end());
    worker_counts.erase(
        std::unique(worker_counts.begin(), worker_counts.end()),
        worker_counts.end());

    std::printf("--- sustained QPS vs workers (%d passes each, warm) ---\n",
                passes);
    // With --deadline_ms set the sweep carries a per-request deadline:
    // expired responses are tolerated (that is the point — measure the
    // miss rate under load) instead of aborting the bench.
    serve::SweepRequest scaling_workload = workload;
    scaling_workload.timeout_ms = deadline_ms;
    TablePrinter t({"workers", "startup (s)", "seconds", "qps", "speedup",
                    "serve p50 (ms)", "serve p95 (ms)", "serve p99 (ms)",
                    "queue p95 (ms)", "miss %"});
    JsonValue rows = JsonValue::Array();
    double base_qps = 0.0;
    for (const int workers : worker_counts) {
      serve::AllocationService::Options options = service_options;
      options.num_workers = workers;
      options.autostart = false;
      serve::AllocationService service(factory, options);
      double startup_seconds = 0.0;
      {
        ScopedTimer startup_timer(startup_seconds);
        service.Start();  // builds the one engine all workers share
      }
      service.SubmitSweep(workload);  // warm-up pass, not measured
      service.ResetMetrics();  // keep warm-up out of the latency quantiles
      double seconds = 0.0;
      {
        ScopedTimer timer(seconds);
        for (int pass = 0; pass < passes; ++pass) {
          std::vector<serve::AllocationResponse> responses =
              service.SubmitSweep(scaling_workload);
          for (const serve::AllocationResponse& r : responses) {
            TIRM_CHECK(r.status.ok() ||
                       (deadline_ms > 0.0 &&
                        r.status.code() == StatusCode::kDeadlineExceeded))
                << r.id << ": " << r.status.ToString();
          }
        }
      }
      const double qps =
          static_cast<double>(grid_size) * passes / seconds;
      if (workers == worker_counts.front()) base_qps = qps;
      const serve::MetricsSnapshot m = service.Metrics();
      // Miss rate over the measured passes only (metrics were reset after
      // warm-up); always recorded — it is identically 0 without a deadline.
      const double miss_rate =
          m.received > 0
              ? static_cast<double>(m.expired) / static_cast<double>(m.received)
              : 0.0;
      t.AddRow({TablePrinter::Int(workers),
                TablePrinter::Num(startup_seconds, 2),
                TablePrinter::Num(seconds, 3), TablePrinter::Num(qps, 1),
                TablePrinter::Num(qps / base_qps, 2),
                TablePrinter::Num(m.serve_p50 * 1e3, 2),
                TablePrinter::Num(m.serve_p95 * 1e3, 2),
                TablePrinter::Num(m.serve_p99 * 1e3, 2),
                TablePrinter::Num(m.queue_p95 * 1e3, 2),
                TablePrinter::Num(100.0 * miss_rate, 1)});
      JsonValue row = JsonValue::Object();
      row.Set("workers", JsonValue::Number(workers));
      row.Set("startup_seconds", JsonValue::Number(startup_seconds));
      row.Set("seconds", JsonValue::Number(seconds));
      row.Set("qps", JsonValue::Number(qps));
      row.Set("speedup_vs_1", JsonValue::Number(qps / base_qps));
      row.Set("deadline_ms", JsonValue::Number(deadline_ms));
      row.Set("deadline_misses",
              JsonValue::Number(static_cast<double>(m.expired)));
      row.Set("deadline_miss_rate", JsonValue::Number(miss_rate));
      row.Set("latency", LatencyJson(m));
      rows.Append(std::move(row));
    }
    t.Print();
    std::printf(
        "(single-core containers plateau at ~1x; QPS scaling needs cores)\n\n");
    report.Set("worker_scaling", std::move(rows));
  }

  // ---- 3. Concurrent responses == direct engine.Run goldens.
  {
    std::printf("--- determinism: concurrent responses vs direct engine runs "
                "---\n");
    AdAllocEngine engine(factory(), service_options.engine);
    std::size_t checked = 0;
    const std::vector<serve::AllocationRequest> grid = workload.Grid();
    // The direct runs double as the trace sample: record them with the
    // flight recorder and report the per-stage aggregate below. (Tracing
    // never perturbs allocations, so the determinism check still holds.)
    obs::TraceRecorder::Global().Enable();
    // Every 5th request keeps this section cheap; passes 1..N already
    // cross-checked warm==cold above.
    for (std::size_t i = 0; i < grid.size(); i += 5) {
      Result<EngineRun> direct = engine.Run(grid[i].config, grid[i].query);
      TIRM_CHECK(direct.ok()) << direct.status().ToString();
      TIRM_CHECK(direct->result.allocation.seeds ==
                 golden_pass[i].run.result.allocation.seeds)
          << "served response diverged from direct engine.Run at "
          << grid[i].id;
      ++checked;
    }
    obs::TraceRecorder::Global().Disable();
    std::printf("checked %zu served responses against direct engine runs: "
                "all identical\n\n",
                checked);
    report.Set("determinism_checked",
               JsonValue::Number(static_cast<double>(checked)));

    std::printf("--- pipeline profile (direct runs, by total wall time) ---\n");
    TablePrinter pt({"stage", "count", "total (ms)"});
    JsonValue profile = JsonValue::Array();
    for (const obs::StageStats& stage :
         obs::TraceRecorder::Global().Summary()) {
      pt.AddRow({stage.name,
                 TablePrinter::Int(static_cast<long long>(stage.count)),
                 TablePrinter::Num(stage.total_ms, 2)});
      JsonValue p = JsonValue::Object();
      p.Set("name", JsonValue::String(stage.name));
      p.Set("count", JsonValue::Number(static_cast<double>(stage.count)));
      p.Set("total_ms", JsonValue::Number(stage.total_ms));
      profile.Append(std::move(p));
    }
    pt.Print();
    report.Set("profile", std::move(profile));
    obs::TraceRecorder::Global().Clear();
  }

  report.Write();
  return 0;
}
