// bench_suite — the repository's end-to-end benchmark. README.md in this
// directory lists the workloads, the metric -> layer map, and how to read
// the trace.
//
//   bench_suite --workload=<flixster_cold|dblp_wc_cold|serve_warm> --seed=<n>
//               [--seconds=<s>] [--smoke] [--json_out=<file>]
//               [--trace_out=<file>]
//
// Each workload has a few fixed instances, as the paper has fixed datasets;
// --seed draws every engine seed, and with it the RR-sampling, KPT and
// greedy streams and the MC evaluation stream. So the spread between seeds
// is the program's own randomness and the machine's noise, not the luck of
// which instances were drawn. A run writes the instances as .tirm bundles
// into a private temporary directory (untimed; $TMPDIR decides where), then
// drives the library only through public entry points:
//   1. set-up, for each served instance: an AllocationService with T-1
//      workers, T = min(4, nproc). Set-up is Start() plus warm-up until
//      every worker's store holds the pools of the whole request grid. The
//      services stay up for the whole run.
//   2. measured loop, for --seconds: rounds cycling over the instances,
//      each allocating one cold (fresh engine, evaluation off) by TIRM at T
//      sampling threads and at 1 thread, and each followed by a closed-loop
//      slice (two requests per worker in flight) on the next service. The
//      allocations of the first rounds are evaluated with RegretEvaluator
//      (10 000 MC simulations, untimed).
// Every metric is printed as `metric <workload> <name> <value> <unit>`;
// --json_out writes them with the run's stamps. A failed correctness check
// exits 1.
//
// --trace_out records the run with obs::TraceRecorder, wraps each layer
// call in a bench-owned `bench.<layer>.<op>` span, runs the layer
// decomposition pass (Decompose below) at threads=T and at 1 thread, and
// writes a Chrome trace. Multi-threaded sampling starts one thread per
// sampling chunk, and every thread that records a span keeps a trace buffer
// of about 190 KB for the life of the process, so library spans are
// recorded only for single-threaded calls; threads=T calls get the
// bench-owned span alone.

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocation.h"
#include "alloc/regret_evaluator.h"
#include "api/ad_alloc_engine.h"
#include "api/allocator_config.h"
#include "api/allocator_registry.h"
#include "common/flags.h"
#include "common/hashing.h"
#include "common/json.h"
#include "common/memory_info.h"
#include "common/rng.h"
#include "common/stats.h"
#include "datasets/dataset.h"
#include "io/bundle_reader.h"
#include "io/bundle_writer.h"
#include "obs/trace.h"
#include "rrset/coverage_bitmap.h"
#include "rrset/sample_store.h"
#include "serve/allocation_service.h"

extern char** environ;

namespace {

using namespace tirm;
using Clock = std::chrono::steady_clock;

// The paper's scalability setting (§6): eps = 0.2, 10 000 MC evaluations.
constexpr double kEps = 0.2;
constexpr std::size_t kEvalSims = 10000;
/// Generates every workload's fixed instances, whatever --seed is.
constexpr std::uint64_t kDatasetSeed = 2015;

// ------------------------------------------------------------------ basics

/// The temporary input directory; removed by Die() too, since std::_Exit
/// skips destructors.
std::string g_tmp_dir;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "bench_suite: %s\n", message.c_str());
  std::fflush(stdout);
  if (!g_tmp_dir.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(g_tmp_dir, ignored);
  }
  // Service workers may still be running; skip static destructors.
  std::_Exit(1);
}

void Check(bool ok, const std::string& what) {
  if (!ok) Die("check failed: " + what);
}

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time summed over every thread of the process.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Sampling threads of a cold round: min(4, CPUs this process may use).
int BenchThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) cpus = CPU_COUNT(&set);
  return std::clamp(cpus, 1, 4);
}

// ------------------------------------------------------------------ tracing

bool g_tracing = false;

/// A bench-owned span around one layer call. With `library_spans` false
/// the library's own spans are paused for the call (see the file comment);
/// the bench span itself is still recorded, because a span's recording
/// decision is taken when it opens.
class LayerSpan {
 public:
  LayerSpan(const char* name, bool library_spans) : span_(name) {
    paused_ = g_tracing && !library_spans;
    if (paused_) obs::TraceRecorder::Global().Disable();
  }
  ~LayerSpan() {
    if (paused_) obs::TraceRecorder::Global().Enable();
  }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  obs::TraceSpan span_;
  bool paused_ = false;
};

// ------------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Count(std::uint64_t n) { attempted_ += n; }
  std::uint64_t attempted() const { return attempted_; }

  void Print(const char* workload) const {
    for (const Metric& m : metrics_) {
      std::printf("metric %s %s %s %s\n", workload, m.name.c_str(),
                  JsonNumber(m.value).c_str(), m.unit.c_str());
    }
  }

  void WriteMetrics(JsonWriter& w) const {
    w.Key("metrics");
    w.BeginObject();
    for (const Metric& m : metrics_) {
      w.Key(m.name);
      w.BeginObject();
      w.Field("value", m.value);
      w.Field("unit", m.unit);
      w.EndObject();
    }
    w.EndObject();
  }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
};

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  DatasetSpec (*recipe)(double scale);
  double scale;
  int num_ads;    ///< 0: the recipe's own count
  int kappa;      ///< attention bound of the batch query
  int instances;  ///< the workload's fixed instances
  /// Rounds that always run; their allocations are the quality panel.
  /// Enough for a steady panel, and they fit inside --seconds 30 on a
  /// 4-vCPU machine.
  int quality_rounds;
  int serve_instances;  ///< the first ones are served, all kept running
  /// The served request grid (TIRM only).
  std::vector<int> kappas;
  std::vector<double> lambdas;
  std::vector<double> budget_scales;
};

/// Share of the measured loop spent on cold rounds; the closed-loop slices
/// get the rest. Cold rounds get the larger share: a run holds a thousand
/// served requests but only tens of rounds.
constexpr double kColdShare = 0.6;

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const Workload kWorkloads[] = {
    {"flixster_cold", FlixsterLike, 0.006, 3, 2, 4, 12, 2, {2},
     {0.0, 0.1, 0.5}, {0.5, 1.0}},
    {"dblp_wc_cold", DblpLike, 0.0005, 0, 1, 4, 12, 3, {1}, {0.0, 0.1, 0.5},
     {0.5, 1.0}},
    {"serve_warm", FlixsterLike, 0.004, 5, 2, 3, 12, 2, {1, 2, 3},
     {0.0, 0.1, 0.5}, {0.5, 1.0, 2.0}},
};

/// --smoke: the same phases on inputs small enough for a test run.
Workload Smoke(Workload w) {
  w.scale /= 5;  // the generators' 64-node floor
  w.instances = 1;
  w.quality_rounds = 1;
  w.serve_instances = 1;
  w.kappas = {w.kappa};
  w.lambdas = {0.0, 0.1};
  w.budget_scales = {1.0};
  return w;
}

// ------------------------------------------------------------------- inputs

/// Owns the private input directory; removes it on destruction.
class TempDir {
 public:
  TempDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "bench_suite.XXXXXX").string();
    if (mkdtemp(pattern.data()) == nullptr) {
      Die("cannot create a temporary directory from " + pattern);
    }
    g_tmp_dir = pattern;
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(g_tmp_dir, ignored);
    g_tmp_dir.clear();
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string File(const std::string& name) const {
    return (std::filesystem::path(g_tmp_dir) / name).string();
  }
};

/// One use of an instance: its bundle, and the engine seed of every engine
/// built over it for that use.
struct Instance {
  std::string bundle;
  std::uint64_t seed = 0;
};

/// Engine seed of use `index` of `phase`; phases draw disjoint streams.
std::uint64_t EngineSeed(std::uint64_t run_seed, std::uint64_t phase,
                         std::uint64_t index) {
  return MixHash(MixHash(run_seed, phase), index);
}
constexpr std::uint64_t kBatchPhase = 0;
constexpr std::uint64_t kServePhase = 1;
constexpr std::uint64_t kWarmupPhase = 2;

/// Input-generation times (reported, never part of a gated metric).
struct InputTimes {
  std::vector<double> build_s;
  std::vector<double> write_s;
};

/// Writes the workload's fixed instances as bundles; returns their paths.
std::vector<std::string> MakeInstances(const Workload& w, const TempDir& dir,
                                       InputTimes& times) {
  std::vector<std::string> bundles;
  for (int k = 0; k < w.instances; ++k) {
    bundles.push_back(dir.File("instance" + std::to_string(k) + ".tirm"));
    Clock::time_point t0 = Clock::now();
    BuiltInstance built;
    {
      LayerSpan span("bench.datasets.build", true);
      Rng rng(MixHash(kDatasetSeed, static_cast<std::uint64_t>(k)));
      built = BuildDataset(w.recipe(w.scale), rng, w.num_ads);
    }
    times.build_s.push_back(Since(t0));
    t0 = Clock::now();
    {
      LayerSpan span("bench.io.bundle_write", true);
      const Status written = WriteBundle(built, bundles.back());
      if (!written.ok()) Die(written.ToString());
    }
    times.write_s.push_back(Since(t0));
  }
  return bundles;
}

BuiltInstance Load(const std::string& bundle) {
  LayerSpan span("bench.io.bundle_load", true);
  Result<BuiltInstance> loaded = LoadBundleInstance(bundle);
  if (!loaded.ok()) Die(loaded.status().ToString());
  return loaded.MoveValue();
}

AllocatorConfig TirmConfig(int threads) {
  AllocatorConfig config;
  config.allocator = "tirm";
  config.eps = kEps;
  config.num_threads = threads;
  return config;
}

EngineOptions EngineOptionsFor(std::uint64_t seed) {
  EngineOptions options;
  options.seed = seed;
  options.evaluate = false;  // evaluation is timed separately, not in alloc_s
  return options;
}

EngineRun RunChecked(AdAllocEngine& engine, const AllocatorConfig& config,
                     const EngineQuery& query) {
  Result<EngineRun> run = engine.Run(config, query);
  if (!run.ok()) Die("engine.Run: " + run.status().ToString());
  const Status valid =
      ValidateAllocation(engine.MakeInstance(query), run->result.allocation);
  Check(valid.ok(), "ValidateAllocation: " + valid.ToString());
  return run.MoveValue();
}

// -------------------------------------------------------------- cold rounds

struct BatchResult {
  std::vector<double> setup_s;  ///< load + engine construction
  std::vector<double> load_s;
  std::vector<double> alloc_s;
  std::vector<double> alloc_1t_s;
  std::vector<double> eval_s;
  double total_regret = 0.0;
  double total_budget = 0.0;
  std::uint64_t rounds = 0;
};

/// One round: cold allocations of `input` at threads=T and at 1 thread,
/// T first when `t_first`. Every Run gets a fresh engine, so it samples
/// from scratch. With `evaluate`, both allocations' quality is added to the
/// panel's totals: the thread count changes how each chunk's sets are
/// split between sampling streams, so the two are different samples.
void RunRound(const Workload& w, const Instance& input, int threads,
              bool evaluate, bool t_first, BatchResult& out, Report& report) {
  const EngineQuery query{.kappa = w.kappa};
  for (const bool at_t : {t_first, !t_first}) {
    const int t = at_t ? threads : 1;
    Clock::time_point t0 = Clock::now();
    BuiltInstance built = Load(input.bundle);
    out.load_s.push_back(Since(t0));
    std::optional<AdAllocEngine> engine;
    {
      LayerSpan span("bench.api.engine_construct", true);
      engine.emplace(std::move(built), EngineOptionsFor(input.seed));
    }
    out.setup_s.push_back(Since(t0));

    t0 = Clock::now();
    EngineRun run;
    {
      LayerSpan span("bench.api.engine_run", t == 1);
      run = RunChecked(*engine, TirmConfig(t), query);
    }
    (at_t ? out.alloc_s : out.alloc_1t_s).push_back(Since(t0));
    report.Count(1);
    if (!evaluate) continue;

    // Quality, evaluated the way the engine would with evaluation on (same
    // instance view, same eval stream).
    t0 = Clock::now();
    LayerSpan span("bench.alloc.evaluate", true);
    const ProblemInstance instance = engine->MakeInstance(query);
    RegretEvaluator evaluator(&instance, {.num_sims = kEvalSims});
    Rng eval_rng(engine->EvalSeed(query));
    const RegretReport regret =
        evaluator.Evaluate(run.result.allocation, eval_rng);
    out.eval_s.push_back(Since(t0));
    out.total_regret += regret.total_regret;
    out.total_budget += regret.total_budget;
    report.Count(1);
  }
  ++out.rounds;
}

/// Mean of the middle half of `values` (all of them when fewer than four).
/// On a shared host a cold allocation runs at one of a few speeds, switching
/// every few seconds; a median over a run then jumps between those speeds,
/// where this estimate moves smoothly with the share of time spent in each,
/// and still drops the stalls at either end.
double MiddleHalfMean(std::vector<double> values) {
  Check(!values.empty(), "no samples to average");
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

// -------------------------------------------------------------- serve phase

/// Pooled over the served instances.
struct ServeResult {
  std::vector<double> setup_s;  ///< per instance: Start() + warm-up
  std::vector<double> start_s;
  std::vector<double> warmup_s;
  int warmup_passes = 0;
  std::uint64_t warm_sampled_sets = 0;
  double closed_s = 0.0;
  std::uint64_t closed_requests = 0;
  std::vector<double> latency_ms;  ///< admission to response: queue + run
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
};

/// The workload's request grid, in SweepRequest expansion order.
std::vector<serve::AllocationRequest> ServeGrid(const Workload& w) {
  serve::SweepRequest sweep;
  sweep.config = TirmConfig(1);  // workers run side by side, one thread each
  sweep.kappas = w.kappas;
  sweep.lambdas = w.lambdas;
  sweep.budget_scales = w.budget_scales;
  sweep.id_prefix = w.name;
  return sweep.Grid();
}

/// A served response must be OK, equal the direct engine.Run golden, and
/// (after warm-up) sample nothing.
void CheckServed(const serve::AllocationResponse& response,
                 const Allocation& golden, bool steady) {
  if (!response.status.ok()) {
    Die("served request " + response.id + ": " + response.status.ToString());
  }
  Check(response.run.result.allocation.seeds == golden.seeds,
        "served response " + response.id + " differs from engine.Run");
  Check(!steady || response.run.result.cache.sampled_sets == 0,
        "steady-state request " + response.id + " sampled RR sets");
}

/// One served instance: its request grid, the direct engine.Run golden of
/// every grid point, and a warm AllocationService with T-1 workers.
struct Served {
  std::vector<serve::AllocationRequest> grid;
  std::vector<Allocation> golden;
  std::unique_ptr<serve::AllocationService> service;
  std::uint64_t warm_sets = 0;  ///< the workers' sampled sets after warm-up
  std::size_t next = 0;         ///< grid point of the next request
};

/// Computes the goldens of `input`, then starts and warms its service.
std::unique_ptr<Served> SetUpServed(const Workload& w, const Instance& input,
                                    int threads, ServeResult& out,
                                    Report& report) {
  auto served = std::make_unique<Served>();
  served->grid = ServeGrid(w);
  const std::vector<serve::AllocationRequest>& grid = served->grid;
  const EngineOptions engine_options = EngineOptionsFor(input.seed);

  // Goldens (untimed): a direct engine.Run per grid point. The golden
  // engine's store ends holding every pool at the grid's largest θ — the
  // state every worker's store must reach before steady state.
  std::uint64_t full_store_sets = 0;
  {
    LayerSpan span("bench.serve.goldens", true);
    AdAllocEngine engine(Load(input.bundle), engine_options);
    for (const serve::AllocationRequest& request : grid) {
      served->golden.push_back(
          RunChecked(engine, request.config, request.query).result.allocation);
      report.Count(1);
    }
    full_store_sets = engine.sample_store()->LifetimeStats().sampled_sets;
  }

  serve::AllocationService::Options options;
  options.num_workers = std::max(1, threads - 1);
  options.queue_capacity = 4096;
  options.engine = engine_options;
  options.autostart = false;
  served->service = std::make_unique<serve::AllocationService>(
      [bundle = input.bundle] { return Load(bundle); }, options);
  serve::AllocationService& service = *served->service;
  const int workers = service.num_workers();

  Clock::time_point t0 = Clock::now();
  {
    LayerSpan span("bench.serve.start", true);
    service.Start();
  }
  const double start_s = Since(t0);

  // Warm-up: passes that submit every grid point once per worker, until
  // each worker's store holds the full pools. Routing is first-come, so a
  // pass may miss a worker; the next pass then runs warm except there.
  auto warm = [&] {
    for (int k = 0; k < workers; ++k) {
      const RrSampleStore* store = service.engine(k).sample_store();
      if (store == nullptr ||
          store->LifetimeStats().sampled_sets != full_store_sets) {
        return false;
      }
    }
    return true;
  };
  t0 = Clock::now();
  {
    LayerSpan span("bench.serve.warmup", true);
    for (int pass = 1; !warm(); ++pass) {
      Check(pass <= 20, "serve warm-up did not converge");
      ++out.warmup_passes;
      std::vector<std::pair<std::size_t, std::future<serve::AllocationResponse>>>
          pending;
      for (std::size_t g = 0; g < grid.size(); ++g) {
        for (int k = 0; k < workers; ++k) {
          Result<std::future<serve::AllocationResponse>> submitted =
              service.SubmitWait(grid[g]);
          if (!submitted.ok()) Die(submitted.status().ToString());
          pending.emplace_back(g, submitted.MoveValue());
        }
      }
      for (auto& [g, future] : pending) {
        CheckServed(future.get(), served->golden[g], /*steady=*/false);
        report.Count(1);
      }
    }
  }
  const double warmup_s = Since(t0);
  out.start_s.push_back(start_s);
  out.warmup_s.push_back(warmup_s);
  out.setup_s.push_back(start_s + warmup_s);
  served->warm_sets = service.StoreStats().sampled_sets;
  out.warm_sampled_sets += served->warm_sets;
  return served;
}

/// One closed-loop slice of about `slice_s`: two requests per worker in
/// flight, each completion admitting the next (cycling the grid), so no
/// worker idles behind a sweep barrier; then the window drains. The
/// service's callers wait for their answers, so the loop is closed; each
/// request waits in the queue for about one service time.
void ServeSlice(Served& served, double slice_s, ServeResult& out,
                Report& report) {
  serve::AllocationService& service = *served.service;
  const Clock::time_point t0 = Clock::now();
  std::uint64_t requests = 0;
  {
    LayerSpan span("bench.serve.closed_loop", true);
    std::deque<std::pair<std::size_t, std::future<serve::AllocationResponse>>>
        window;
    const auto submit = [&] {
      const std::size_t g = served.next++ % served.grid.size();
      Result<std::future<serve::AllocationResponse>> submitted =
          service.Submit(served.grid[g]);
      if (!submitted.ok()) Die(submitted.status().ToString());
      window.emplace_back(g, submitted.MoveValue());
    };
    for (int k = 0; k < 2 * service.num_workers(); ++k) submit();
    while (!window.empty()) {
      auto [g, future] = std::move(window.front());
      window.pop_front();
      const serve::AllocationResponse response = future.get();
      CheckServed(response, served.golden[g], /*steady=*/true);
      out.queue_ms.push_back(response.queue_ms);
      out.run_ms.push_back(response.serve_ms);
      out.latency_ms.push_back(response.queue_ms + response.serve_ms);
      ++requests;
      if (Since(t0) < slice_s) submit();
    }
  }
  out.closed_s += Since(t0);
  out.closed_requests += requests;
  report.Count(requests);
}

// ------------------------------------------------------------ measured loop

/// The measured part of a run: rounds cycling over the workload's
/// instances, each with its own engine seed; which thread count goes first
/// alternates between neighbouring rounds and between passes over the
/// instances. After every round comes a closed-loop slice on the next
/// served instance, long enough to keep serving at its share of the time.
/// So cold allocations and served requests are both sampled across the
/// whole run, and a slow stretch of the shared machine weighs on every
/// metric alike instead of on whichever phase it fell in.
///
/// The first w.quality_rounds rounds always run, and their allocations are
/// the quality panel, so budget_fit_pct depends on the seed alone, not on
/// how fast the program is. Further rounds run while the last one's
/// duration still fits `seconds`.
BatchResult RunMeasured(const Workload& w, std::uint64_t run_seed,
                        const std::vector<std::string>& bundles,
                        std::vector<std::unique_ptr<Served>>& served,
                        int threads, double seconds, ServeResult& serve_out,
                        Report& report) {
  BatchResult out;
  const double serve_per_cold = (1.0 - kColdShare) / kColdShare;
  const Clock::time_point start = Clock::now();
  double cold_s = 0.0, serve_s = 0.0, last_round_s = 0.0;
  for (std::size_t r = 0; r < static_cast<std::size_t>(w.quality_rounds) ||
                          Since(start) + last_round_s <= seconds;
       ++r) {
    const Clock::time_point round_start = Clock::now();
    const std::size_t pass = r / bundles.size(), i = r % bundles.size();
    RunRound(w, {bundles[i], EngineSeed(run_seed, kBatchPhase, r)}, threads,
             /*evaluate=*/r < static_cast<std::size_t>(w.quality_rounds),
             /*t_first=*/(pass + i) % 2 == 0, out, report);
    cold_s += Since(round_start);
    const Clock::time_point slice_start = Clock::now();
    ServeSlice(*served[r % served.size()], cold_s * serve_per_cold - serve_s,
               serve_out, report);
    serve_s += Since(slice_start);
    last_round_s = Since(round_start);
  }
  for (const std::unique_ptr<Served>& s : served) {
    Check(s->service->StoreStats().sampled_sets == s->warm_sets,
          "steady-state serving sampled RR sets");
  }
  return out;
}

// ------------------------------------------------------ layer decomposition

/// Per-layer wall (and CPU) seconds of one cold engine.Run, replayed
/// through the same public calls. Unattributed() closes the table against
/// the measured engine_run.
struct Decomposition {
  double engine_run = 0.0;
  double edge_probs = 0.0;
  double kpt = 0.0;
  double ensure_sets = 0.0, ensure_sets_cpu = 0.0;
  double sample = 0.0, adopt = 0.0;  ///< the split of ensure_sets
  double transpose = 0.0, transpose_cpu = 0.0;
  double tirm_warm = 0.0;
  std::uint64_t sets = 0, nodes = 0, max_traversal = 0;
  std::uint64_t pool_bytes = 0, transpose_bytes = 0;
  std::uint64_t rounds = 0, seeds = 0, expansions = 0;

  double Unattributed() const {
    return engine_run - (edge_probs + kpt + ensure_sets + transpose + tirm_warm);
  }
};

/// Total seconds of the spans named `name` in `profile`.
double StageSeconds(const obs::StageProfile& profile, const char* name) {
  for (const obs::StageProfile::Stage& stage : profile.stages()) {
    if (std::strcmp(stage.name, name) == 0) {
      return static_cast<double>(stage.total_ns) * 1e-9;
    }
  }
  return 0.0;
}

/// 1. A cold engine.Run (evaluation off) gives engine_run, the reference
///    allocation, and each ad's final θ.
/// 2. On a fresh engine's instance view: materialize every ad's edge
///    probabilities; then per ad, EnsureKpt, EnsureSets(θ) and
///    EnsureTranspose(θ) on an RrSampleStore seeded like the engine's.
///    EnsureSets is split by the library's own spans on the calling thread:
///    adoption is the `adopt_chunk` spans (adoption runs there), sampling
///    is the rest of `store_top_up`, worker start and join included.
/// 3. A registry TIRM run over the filled store: view attach plus greedy
///    selection. Its allocation must equal the reference bit for bit, and
///    it must sample nothing.
Decomposition Decompose(const Instance& input, int kappa, int threads) {
  Decomposition d;
  const EngineQuery query{.kappa = kappa};
  const AllocatorConfig config = TirmConfig(threads);
  const bool library_spans = threads == 1;

  Allocation reference;
  std::vector<AdAllocStats> ad_stats;
  {
    AdAllocEngine engine(Load(input.bundle), EngineOptionsFor(input.seed));
    const Clock::time_point t0 = Clock::now();
    EngineRun run;
    {
      LayerSpan span("bench.api.engine_run", library_spans);
      run = RunChecked(engine, config, query);
    }
    d.engine_run = Since(t0);
    reference = run.result.allocation;
    ad_stats = run.result.ad_stats;
  }

  AdAllocEngine engine(Load(input.bundle), EngineOptionsFor(input.seed));
  const ProblemInstance instance = engine.MakeInstance(query);
  const int num_ads = instance.num_ads();
  Clock::time_point t0 = Clock::now();
  {
    LayerSpan span("bench.topic.edge_probs", true);
    for (AdId j = 0; j < num_ads; ++j) (void)instance.EdgeProbsForAd(j);
  }
  d.edge_probs = Since(t0);

  RrSampleStore store(
      &instance.graph(),
      {.seed = engine.StoreSeed(),
       .num_threads = threads,
       .sampler_kernel = ResolveSamplerKernel(SamplerKernel::kAuto)});
  const KptEstimator::Options kpt_options{.ell = config.ell,
                                          .max_samples = config.kpt_max_samples};
  for (AdId j = 0; j < num_ads; ++j) {
    const std::uint64_t theta = ad_stats[static_cast<std::size_t>(j)].theta;
    RrSampleStore::AdPool* entry = store.Acquire(
        store.SignatureForAd(instance, j), instance.EdgeProbsForAd(j));

    t0 = Clock::now();
    {
      LayerSpan span("bench.rrset.kpt", library_spans);
      (void)store.EnsureKpt(entry, kpt_options, /*s=*/1);
    }
    d.kpt += Since(t0);

    obs::StageProfile top_up;
    t0 = Clock::now();
    double cpu0 = CpuSeconds();
    {
      LayerSpan span("bench.rrset.ensure_sets", library_spans);
      obs::ProfileScope scope(&top_up);
      const RrSampleStore::EnsureResult ensured = store.EnsureSets(entry, theta);
      Check(ensured.sampled > 0, "decomposition top-up sampled nothing");
      d.max_traversal = std::max(d.max_traversal, ensured.max_traversal);
    }
    d.ensure_sets += Since(t0);
    d.ensure_sets_cpu += CpuSeconds() - cpu0;
    const double adopt = StageSeconds(top_up, "adopt_chunk");
    d.adopt += adopt;
    d.sample += StageSeconds(top_up, "store_top_up") - adopt;

    const RrSetPool& pool = entry->sets();
    for (std::uint32_t id = 0; id < pool.NumSets(); ++id) {
      d.nodes += pool.SetMembers(id).size();
    }
    d.sets += pool.NumSets();

    t0 = Clock::now();
    cpu0 = CpuSeconds();
    {
      LayerSpan span("bench.rrset.transpose", library_spans);
      (void)entry->sets().EnsureTranspose(static_cast<std::uint32_t>(theta));
    }
    d.transpose += Since(t0);
    d.transpose_cpu += CpuSeconds() - cpu0;
    const std::size_t transpose_bytes = entry->sets().TransposeBytes();
    d.transpose_bytes += transpose_bytes;
    d.pool_bytes += entry->sets().MemoryBytes() - transpose_bytes;
  }

  AllocatorConfig warm_config = config;
  warm_config.sample_store = &store;
  warm_config.sample_store_seed = engine.StoreSeed();
  Result<std::unique_ptr<Allocator>> allocator =
      AllocatorRegistry::Global().Create(warm_config);
  if (!allocator.ok()) Die(allocator.status().ToString());
  Rng algo_rng(engine.AlgoSeed(config.allocator, query));
  t0 = Clock::now();
  AllocationResult warm;
  {
    LayerSpan span("bench.alloc.tirm_warm", library_spans);
    warm = allocator.value()->Allocate(instance, algo_rng);
  }
  d.tirm_warm = Since(t0);
  Check(ValidateAllocation(instance, warm.allocation).ok(),
        "decomposition allocation is invalid");
  Check(warm.allocation.seeds == reference.seeds,
        "decomposition allocation differs from engine.Run at threads=" +
            std::to_string(threads));
  Check(warm.cache.sampled_sets == 0, "warm TIRM run over a full store sampled");
  d.rounds = warm.iterations;
  d.seeds = warm.allocation.TotalSeeds();
  for (const AdAllocStats& s : warm.ad_stats) d.expansions += s.expansions;
  return d;
}

void AddDecomposition(const Decomposition& d, const std::string& suffix,
                      Report& report) {
  const auto add = [&](const char* name, double value, const char* unit) {
    report.Add(name + suffix, value, unit);
  };
  add("api.engine_run_s", d.engine_run, "s");
  add("topic.edge_probs_s", d.edge_probs, "s");
  add("rrset.kpt_s", d.kpt, "s");
  add("rrset.ensure_sets_s", d.ensure_sets, "s");
  add("rrset.ensure_sets_cpu_s", d.ensure_sets_cpu, "s");
  add("rrset.sample_s", d.sample, "s");
  add("rrset.adopt_s", d.adopt, "s");
  add("rrset.transpose_s", d.transpose, "s");
  add("rrset.transpose_cpu_s", d.transpose_cpu, "s");
  add("alloc.tirm_warm_s", d.tirm_warm, "s");
  add("api.unattributed_s", d.Unattributed(), "s");
}

// -------------------------------------------------------------------- main

bool IsKnownFlag(const std::string& key) {
  static const std::set<std::string> kKnown = {
      "workload", "seed", "seconds", "smoke", "json_out", "trace_out"};
  return kKnown.count(key) > 0;
}

/// The Flags parser falls back to TIRM_* environment variables for every
/// key, and the library reads TIRM_COVERAGE_SIMD; either would silently
/// change the workload or the program under test.
void RefuseTirmEnvironment() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TIRM_", 5) == 0) {
      Die("refusing to run with " + std::string(*e, std::strcspn(*e, "=")) +
          " set: TIRM_* variables change the workload or the program; "
          "unset them");
    }
  }
}

std::string LowerBuildType() {
  std::string type = TIRM_BENCH_BUILD_TYPE;
  for (char& c : type) c = static_cast<char>(std::tolower(c));
  return type;
}

}  // namespace

int main(int argc, char** argv) {
  RefuseTirmEnvironment();
#ifndef NDEBUG
  Die("built with assertions on; configure with -DCMAKE_BUILD_TYPE=Release");
#endif
  if (LowerBuildType() != "release") {
    Die(std::string("built as \"") + TIRM_BENCH_BUILD_TYPE +
        "\"; configure with -DCMAKE_BUILD_TYPE=Release");
  }

  Flags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) Die(s.ToString());
  for (const std::string& key : flags.Keys()) {
    if (!IsKnownFlag(key)) Die("unknown flag --" + key);
  }
  const std::string workload_name = flags.GetString("workload", "");
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) found = &w;
  }
  if (found == nullptr) {
    Die("--workload must be one of flixster_cold, dblp_wc_cold, serve_warm");
  }
  const Result<std::int64_t> seed_flag = flags.GetIntStrict("seed", 2015);
  if (!seed_flag.ok()) Die(seed_flag.status().ToString());
  if (*seed_flag < 0) Die("--seed must be non-negative");
  const auto seed = static_cast<std::uint64_t>(*seed_flag);
  const Result<double> seconds_flag = flags.GetDoubleStrict("seconds", 30.0);
  if (!seconds_flag.ok()) Die(seconds_flag.status().ToString());
  if (!(*seconds_flag > 0.0 && *seconds_flag <= 600.0)) {
    Die("--seconds must be in (0, 600]");
  }
  const Result<bool> smoke = flags.GetBoolStrict("smoke", false);
  if (!smoke.ok()) Die(smoke.status().ToString());
  const double seconds = *smoke ? 1.0 : *seconds_flag;
  const std::string json_out = flags.GetString("json_out", "");
  const std::string trace_out = flags.GetString("trace_out", "");
  const Workload workload = *smoke ? Smoke(*found) : *found;

  const int threads = BenchThreads();
  const char* simd = ActiveCoverageOps().name;
  std::printf("bench_suite: workload=%s seed=%llu seconds=%g threads=%d "
              "build=%s coverage_simd=%s%s%s\n",
              workload.name, static_cast<unsigned long long>(seed), seconds,
              threads, LowerBuildType().c_str(), simd,
              *smoke ? " smoke" : "", trace_out.empty() ? "" : " traced");
  g_tracing = !trace_out.empty();
  if (g_tracing) obs::TraceRecorder::Global().Enable();

  Report report;
  Decomposition decomposed, decomposed_1t;
  {
    TempDir dir;
    InputTimes input_times;
    const std::vector<std::string> bundles =
        MakeInstances(workload, dir, input_times);
    ServeResult served;
    std::vector<std::unique_ptr<Served>> services;
    for (int k = 0; k < workload.serve_instances; ++k) {
      services.push_back(SetUpServed(
          workload,
          {bundles[static_cast<std::size_t>(k)],
           EngineSeed(seed, kServePhase, static_cast<std::uint64_t>(k))},
          threads, served, report));
    }
    {
      // An untimed cold round first: the process's first multi-threaded
      // run pays for thread and allocator start-up.
      BatchResult warmup;
      RunRound(workload, {bundles.front(), EngineSeed(seed, kWarmupPhase, 0)},
               threads, /*evaluate=*/false, /*t_first=*/true, warmup, report);
    }
    const BatchResult batch = RunMeasured(workload, seed, bundles, services,
                                          threads, seconds, served, report);
    services.clear();  // stops the workers before the decomposition

    report.Add("setup_s", Quantile(served.setup_s, 0.5), "s");
    report.Add("alloc_s", MiddleHalfMean(batch.alloc_s), "s");
    report.Add("alloc_1t_s", MiddleHalfMean(batch.alloc_1t_s), "s");
    report.Add("budget_fit_pct",
               100.0 * (1.0 - batch.total_regret / batch.total_budget), "%");
    report.Add("serve_qps",
               static_cast<double>(served.closed_requests) / served.closed_s,
               "1/s");
    report.Add("p50_ms", Quantile(served.latency_ms, 0.50), "ms");
    report.Add("p90_ms", Quantile(served.latency_ms, 0.90), "ms");

    report.Add("io.bundle_load_s", Quantile(batch.load_s, 0.5), "s");
    report.Add("api.engine_setup_s", Quantile(batch.setup_s, 0.5), "s");
    report.Add("datasets.build_s", Quantile(input_times.build_s, 0.5), "s");
    report.Add("io.bundle_write_s", Quantile(input_times.write_s, 0.5), "s");
    report.Add("alloc.eval_s", Quantile(batch.eval_s, 0.5), "s");
    report.Add("alloc.regret_pct",
               100.0 * batch.total_regret / batch.total_budget, "%");
    report.Add("batch.rounds", static_cast<double>(batch.rounds), "count");
    report.Add("serve.start_s", Quantile(served.start_s, 0.5), "s");
    report.Add("serve.warmup_s", Quantile(served.warmup_s, 0.5), "s");
    report.Add("serve.warmup_passes", served.warmup_passes, "count");
    report.Add("serve.warm_sampled_sets",
               static_cast<double>(served.warm_sampled_sets), "count");
    report.Add("serve.requests", static_cast<double>(served.closed_requests),
               "count");
    report.Add("serve.queue_p50_ms", Quantile(served.queue_ms, 0.50), "ms");
    report.Add("serve.queue_p90_ms", Quantile(served.queue_ms, 0.90), "ms");
    report.Add("serve.run_p50_ms", Quantile(served.run_ms, 0.50), "ms");
    report.Add("serve.run_p90_ms", Quantile(served.run_ms, 0.90), "ms");

    if (g_tracing) {
      // Instance 0 with the measured loop's first engine seed.
      const Instance first{bundles.front(), EngineSeed(seed, kBatchPhase, 0)};
      decomposed = Decompose(first, workload.kappa, threads);
      decomposed_1t = Decompose(first, workload.kappa, 1);
      report.Count(4);  // per pass: one engine.Run, one warm TIRM run
      BuiltInstance built = Load(first.bundle);
      report.Add("graph.nodes", built.graph->num_nodes(), "count");
      report.Add("graph.arcs", static_cast<double>(built.graph->num_edges()),
                 "count");
    }
  }
  if (g_tracing) {
    AddDecomposition(decomposed, "", report);
    AddDecomposition(decomposed_1t, "_1t", report);
    const Decomposition& d = decomposed;
    report.Add("rrset.sets", static_cast<double>(d.sets), "count");
    report.Add("rrset.mean_set_size",
               static_cast<double>(d.nodes) / static_cast<double>(d.sets),
               "count");
    report.Add("rrset.max_traversal", static_cast<double>(d.max_traversal),
               "count");
    report.Add("rrset.sets_per_cpu_s",
               static_cast<double>(d.sets) / d.ensure_sets_cpu, "1/s");
    report.Add("rrset.pool_bytes", static_cast<double>(d.pool_bytes), "B");
    report.Add("rrset.transpose_bytes", static_cast<double>(d.transpose_bytes),
               "B");
    report.Add("alloc.rounds", static_cast<double>(d.rounds), "count");
    report.Add("alloc.seeds", static_cast<double>(d.seeds), "count");
    report.Add("alloc.theta_expansions", static_cast<double>(d.expansions),
               "count");
    obs::TraceRecorder::Global().Disable();
    report.Add("obs.dropped_events",
               static_cast<double>(obs::TraceRecorder::Global().dropped()),
               "count");
    const Status written = obs::TraceRecorder::Global().WriteChromeTrace(trace_out);
    if (!written.ok()) Die(written.ToString());
  }
  report.Add("peak_rss_mb", static_cast<double>(PeakRssBytes()) / (1 << 20),
             "MB");

  report.Print(workload.name);
  if (!json_out.empty()) {
    JsonWriter w;
    w.BeginObject();
    w.Field("bench", "bench_suite");
    w.Field("workload", workload.name);
    w.Field("seed", seed);
    w.Field("seconds", seconds);
    w.Field("smoke", *smoke);
    w.Field("traced", g_tracing);
    w.Field("threads", threads);
    w.Field("serve_workers", std::max(1, threads - 1));
    w.Field("build_type", LowerBuildType());
    w.Field("coverage_simd", simd);
    w.Field("correct", true);
    w.Field("attempted", report.attempted());
    w.Field("failed", 0);  // any failed operation aborts the run
    report.WriteMetrics(w);
    w.EndObject();
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr || std::fprintf(f, "%s\n", w.str().c_str()) < 0 ||
        std::fclose(f) != 0) {
      Die("cannot write " + json_out);
    }
  }
  return 0;
}
