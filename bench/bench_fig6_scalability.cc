// Figure 6 (a-d): running time of TIRM and GREEDY-IRIE on the DBLP- and
// LIVEJOURNAL-shaped instances.
//   (a) DBLP: vary h (number of ads), budgets fixed;
//   (b) DBLP: vary per-ad budget, h = 5;
//   (c) LIVEJOURNAL: vary h (TIRM only — the paper excludes IRIE here
//       because it did not finish within 48 hours for h >= 5);
//   (d) LIVEJOURNAL: vary budget, h = 5 (TIRM only).
//
// Setup mirrors §6.2: Weighted Cascade, CPE = CTP = 1, lambda = 0,
// kappa = 1, every ad shares the same topic distribution (full competition
// for the same influencers). Expected shape: TIRM scales ~linearly in h and
// stays flat in budget; GREEDY-IRIE grows super-linearly and is orders of
// magnitude slower.

#include <stdlib.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/hashing.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "rrset/sample_store.h"
#include "rrset/sharded_store.h"

namespace {

using namespace tirm;
using namespace tirm::bench;

// ---- Parallel RR-set engine: store top-up time vs sampling threads.
//
// Grows a fresh RrSampleStore pool for one ad of the DBLP-shaped instance
// to a fixed set count in one EnsureSets call, with the default 4096-set
// chunks, at 1/2/4/8 threads. That is the shape of every production top-up
// (one sampling fan-out over all of the call's chunks, then adoption into
// the pool), so a row times what TIRM's θ growth pays: the median of 5
// top-ups, sets/s, and the speedup over the first row. The thread count
// must not change a pool: every row's pool hash must equal the first
// row's, and full TIRM at 1 thread and at the largest count must return
// the same allocation (the bench aborts otherwise).
std::uint64_t PoolHash(const RrSetPool& pool) {
  std::uint64_t h = kFnvOffsetBasis;
  for (std::uint32_t id = 0; id < pool.NumSets(); ++id) {
    const std::span<const NodeId> members = pool.SetMembers(id);
    const auto size = static_cast<std::uint64_t>(members.size());
    h = HashBytes(h, &size, sizeof(size));
    h = HashBytes(h, members.data(), members.size() * sizeof(NodeId));
  }
  return FinalizeHash(h);
}

void RunThreadSweep(const BenchConfig& config,
                    const std::vector<int>& thread_counts, JsonValue* out) {
  Rng build_rng(config.seed + 101);
  const BuiltInstance built = BuildDataset(DblpLike(config.scale), build_rng,
                                           /*num_ads_override=*/1,
                                           /*budget_override=*/-1.0);
  const ProblemInstance inst = built.MakeInstance(/*kappa=*/1, /*lambda=*/0.0);
  const std::uint64_t target = 20000;
  const std::uint64_t chunk_sets = RrSampleStore::Options{}.chunk_sets;

  std::printf("\n--- parallel RR-set engine: store top-up vs threads (%llu "
              "sets in %llu-set chunks, dblp-like) ---\n",
              static_cast<unsigned long long>(target),
              static_cast<unsigned long long>(chunk_sets));
  TablePrinter t({"threads", "seconds", "sets/s", "speedup", "avg |R|"});
  JsonValue rows = JsonValue::Array();
  double base_seconds = 0.0;
  std::uint64_t base_hash = 0;
  constexpr std::size_t kRepeats = 5;
  for (const int threads : thread_counts) {
    // Median of kRepeats top-ups, each on a fresh store with the same seed:
    // only the thread count differs between rows.
    std::vector<double> times;
    std::uint64_t sets = 0;
    std::size_t nodes = 0;
    std::uint64_t hash = 0;
    for (std::size_t r = 0; r < kRepeats; ++r) {
      RrSampleStore store(&inst.graph(), {.seed = config.seed + 202});
      RrSampleStore::AdPool* entry = store.Acquire(
          store.SignatureForAd(inst, 0), inst.EdgeProbsForAd(0));
      WallTimer timer;
      sets = store.EnsureSets(entry, target, 0, threads).sampled;
      times.push_back(timer.Seconds());
      const RrSetPool& pool = entry->sets();
      nodes = 0;
      for (std::uint32_t id = 0; id < pool.NumSets(); ++id) {
        nodes += pool.SetMembers(id).size();
      }
      hash = PoolHash(pool);
    }
    std::sort(times.begin(), times.end());
    const double seconds = times[kRepeats / 2];
    if (threads == thread_counts.front()) {
      base_seconds = seconds;
      base_hash = hash;
    }
    TIRM_CHECK_EQ(hash, base_hash)
        << "the pool sampled at " << threads << " threads differs from the "
        << thread_counts.front() << "-thread pool";
    const double avg_size =
        static_cast<double>(nodes) / static_cast<double>(sets);
    t.AddRow({TablePrinter::Int(threads), TablePrinter::Num(seconds, 3),
              TablePrinter::Num(static_cast<double>(sets) / seconds, 0),
              TablePrinter::Num(base_seconds / seconds, 2),
              TablePrinter::Num(avg_size, 1)});
    JsonValue row = JsonValue::Object();
    row.Set("threads", JsonValue::Number(threads));
    row.Set("sets", JsonValue::Number(static_cast<double>(sets)));
    row.Set("seconds", JsonValue::Number(seconds));
    row.Set("sets_per_second",
            JsonValue::Number(static_cast<double>(sets) / seconds));
    row.Set("speedup", JsonValue::Number(base_seconds / seconds));
    rows.Append(std::move(row));
  }
  t.Print();
  out->Set("thread_sweep", std::move(rows));

  std::vector<std::vector<NodeId>> serial_seeds;
  for (const int threads : {1, thread_counts.back()}) {
    AllocatorConfig algo_config = config.MakeAllocatorConfig("tirm");
    algo_config.num_threads = threads;
    const AllocationResult result =
        RunConfigured(algo_config, inst, config.seed + 17);
    if (threads == 1) serial_seeds = result.allocation.seeds;
    TIRM_CHECK(result.allocation.seeds == serial_seeds)
        << "the TIRM allocation at " << threads
        << " threads differs from the 1-thread allocation";
  }
  std::printf("(every row's pool hash is the first row's; TIRM at 1 and %d "
              "threads returned the same allocation)\n",
              thread_counts.back());
}

// ---- Sharded sampling plane: K = 1/2/4 shards on a `file:` SNAP-style
// graph (an RMAT instance round-tripped through the SNAP edge-list ingest
// path, so the sweep exercises exactly what a real snap.stanford.edu dump
// would).
//
// Two measurements per K:
//   * Sampling phase: each shard grows its pool to the same GLOBAL θ
//     watermark, sampling only the global chunks it owns. Shards share no
//     mutable state — in the router topology each one is a separate
//     process — so the phase latency is the slowest shard
//     (critical path), not the sum. Per-shard times here are measured
//     sequentially on one host; "sampling_phase_speedup" is the
//     single-store time over the critical path, and the sequential sum is
//     recorded alongside so nothing is hidden.
//   * End to end: full TIRM through the sharded coordinator, asserting the
//     allocation stays bit-identical to the single-store run (the bench
//     aborts on any divergence).
void RunShardSweep(const BenchConfig& config, JsonValue* out) {
  // Generate a SNAP-style edge list and ingest it via the "file:" path. The
  // file lives in a private mkdtemp directory, so concurrent runs never
  // share it; ingestion reads it whole, so the directory is removed as soon
  // as the instance is built.
  std::string dir =
      (std::filesystem::temp_directory_path() / "bench_fig6_XXXXXX").string();
  TIRM_CHECK(mkdtemp(dir.data()) != nullptr) << "mkdtemp failed for " << dir;
  const std::string edge_path = dir + "/snap.edges";
  {
    Rng gen_rng(config.seed + 909);
    const Graph generated = RMatGraph(14, 150000, gen_rng);  // 16384 nodes
    const Status saved = SaveEdgeList(generated, edge_path);
    TIRM_CHECK(saved.ok()) << saved.ToString();
  }
  Rng build_rng(config.seed + 910);
  Result<BuiltInstance> built =
      BuildNamedDataset("file:" + edge_path, config.scale, build_rng);
  std::error_code cleanup_error;  // a leftover temp dir is not fatal
  std::filesystem::remove_all(dir, cleanup_error);
  TIRM_CHECK(built.ok()) << built.status().ToString();
  const ProblemInstance inst =
      built->MakeInstance(/*kappa=*/1, /*lambda=*/0.0);
  std::printf(
      "\n--- sharded sampling plane: K = 1/2/4 shards (file: SNAP-style "
      "graph, %u nodes, %zu arcs) ---\n",
      built->graph->num_nodes(), built->graph->num_edges());

  const std::uint64_t theta = 1u << 17;  // global watermark every K grows to
  const std::vector<int> shard_counts = {1, 2, 4};
  TablePrinter t({"K", "crit path (s)", "sum (s)", "sampling speedup",
                  "tirm (s)", "wall speedup", "identical"});
  JsonValue rows = JsonValue::Array();
  double single_sampling_seconds = 0.0;
  double single_tirm_seconds = 0.0;
  std::vector<std::vector<NodeId>> baseline_seeds;
  for (const int num_shards : shard_counts) {
    // Sampling phase: same seed for every K, so the global chunk streams
    // are identical and only the partition changes.
    ShardedRrSampleStore store(built->graph.get(),
                               {.seed = config.seed ^ 0xF1665EEDULL},
                               num_shards);
    double critical_path = 0.0;
    double sum_seconds = 0.0;
    JsonValue shard_seconds = JsonValue::Array();
    for (int k = 0; k < num_shards; ++k) {
      RrSampleStore& shard = store.shard(k);
      RrSampleStore::AdPool* pool = shard.Acquire(
          shard.SignatureForAd(inst, 0), inst.EdgeProbsForAd(0));
      WallTimer timer;
      shard.EnsureSets(pool, theta, 0, config.threads);
      const double seconds = timer.Seconds();
      critical_path = std::max(critical_path, seconds);
      sum_seconds += seconds;
      shard_seconds.Append(JsonValue::Number(seconds));
    }
    if (num_shards == 1) single_sampling_seconds = critical_path;
    const double sampling_speedup = single_sampling_seconds / critical_path;

    // End to end through the sharded coordinator.
    AllocatorConfig algo_config = config.MakeAllocatorConfig("tirm");
    algo_config.num_shards = num_shards;
    const AllocationResult run =
        RunConfigured(algo_config, inst, config.seed + 17);
    if (num_shards == 1) {
      single_tirm_seconds = run.seconds;
      baseline_seeds = run.allocation.seeds;
    }
    const bool identical = run.allocation.seeds == baseline_seeds;
    TIRM_CHECK(identical)
        << "sharded allocation diverged from the single-store path at K="
        << num_shards;
    const double wall_speedup = single_tirm_seconds / run.seconds;

    t.AddRow({TablePrinter::Int(num_shards),
              TablePrinter::Num(critical_path, 3),
              TablePrinter::Num(sum_seconds, 3),
              TablePrinter::Num(sampling_speedup, 2),
              TablePrinter::Num(run.seconds, 2),
              TablePrinter::Num(wall_speedup, 2), identical ? "yes" : "NO"});
    JsonValue row = JsonValue::Object();
    row.Set("num_shards", JsonValue::Number(num_shards));
    row.Set("shard_sampling_seconds", std::move(shard_seconds));
    row.Set("sampling_critical_path_seconds",
            JsonValue::Number(critical_path));
    row.Set("sampling_sum_seconds", JsonValue::Number(sum_seconds));
    row.Set("sampling_phase_speedup", JsonValue::Number(sampling_speedup));
    row.Set("tirm_seconds", JsonValue::Number(run.seconds));
    row.Set("tirm_wall_speedup", JsonValue::Number(wall_speedup));
    row.Set("allocation_identical", JsonValue::Bool(identical));
    rows.Append(std::move(row));
  }
  t.Print();
  std::printf(
      "(sampling speedup = single-store time / slowest shard; shards are\n"
      " separate processes in the router topology, so the slowest shard is\n"
      " the phase latency)\n");

  JsonValue section = JsonValue::Object();
  section.Set("graph", JsonValue::String("file: rmat 16384-node SNAP-style"));
  section.Set("theta", JsonValue::Number(static_cast<double>(theta)));
  section.Set("rows", std::move(rows));
  out->Set("shard_sweep", std::move(section));
}

void RunSweep(const char* title, const DatasetSpec& spec,
              const std::vector<int>& h_values,
              const std::vector<double>& budget_values, double fixed_budget,
              int fixed_h, bool include_irie, const BenchConfig& config,
              JsonValue* out) {
  Rng rng(config.seed);
  JsonValue panel = JsonValue::Object();
  panel.Set("dataset", JsonValue::String(spec.name));
  panel.Set("title", JsonValue::String(title));

  // ---- (a/c): vary h at fixed budget.
  {
    std::printf("\n--- %s: runtime vs #advertisers (budget %.0f) ---\n", title,
                fixed_budget);
    TablePrinter t({"h", "tirm (s)", "tirm seeds", "irie (s)", "irie seeds"});
    JsonValue rows = JsonValue::Array();
    for (const int h : h_values) {
      Rng build_rng = rng.Fork(static_cast<std::uint64_t>(h));
      BuiltInstance built =
          BuildDataset(spec, build_rng, /*num_ads_override=*/h, fixed_budget);
      ProblemInstance inst = built.MakeInstance(/*kappa=*/1, /*lambda=*/0.0);
      AllocationResult tirm_run = RunAlgorithm("tirm", inst, config);
      std::vector<std::string> row = {
          TablePrinter::Int(h), TablePrinter::Num(tirm_run.seconds, 2),
          TablePrinter::Int(
              static_cast<long long>(tirm_run.allocation.TotalSeeds()))};
      JsonValue json_row = JsonValue::Object();
      json_row.Set("h", JsonValue::Number(h));
      json_row.Set("tirm_seconds", JsonValue::Number(tirm_run.seconds));
      json_row.Set("tirm_seeds",
                   JsonValue::Number(static_cast<double>(
                       tirm_run.allocation.TotalSeeds())));
      if (include_irie) {
        AllocationResult irie_run = RunAlgorithm("greedy-irie", inst, config);
        row.push_back(TablePrinter::Num(irie_run.seconds, 2));
        row.push_back(TablePrinter::Int(
            static_cast<long long>(irie_run.allocation.TotalSeeds())));
        json_row.Set("irie_seconds", JsonValue::Number(irie_run.seconds));
        json_row.Set("irie_seeds",
                     JsonValue::Number(static_cast<double>(
                         irie_run.allocation.TotalSeeds())));
      } else {
        row.push_back("(excluded)");
        row.push_back("-");
      }
      t.AddRow(row);
      rows.Append(std::move(json_row));
    }
    t.Print();
    panel.Set("h_sweep", std::move(rows));
  }

  // ---- (b/d): vary budget at fixed h. One dataset, budgets scaled per
  // query through AdAllocEngine — every budget point reuses the engine's
  // pooled RR samples (a budget change never invalidates a pool; only θ
  // growth tops it up).
  {
    std::printf("\n--- %s: runtime vs per-ad budget (h = %d) ---\n", title,
                fixed_h);
    TablePrinter t({"budget", "tirm (s)", "tirm seeds", "tirm sampled",
                    "tirm reused", "irie (s)", "irie seeds"});
    JsonValue rows = JsonValue::Array();
    Rng build_rng = rng.Fork(7777);
    const double base_budget = budget_values.front();
    AdAllocEngine engine(
        BuildDataset(spec, build_rng, fixed_h, base_budget),
        config.MakeEngineOptions());
    for (const double budget : budget_values) {
      const EngineQuery query{.budget_scale = budget / base_budget};
      EngineRun tirm_run = RunOnEngine(engine, "tirm", query, config);
      std::vector<std::string> row = {
          TablePrinter::Num(budget, 0),
          TablePrinter::Num(tirm_run.result.seconds, 2),
          TablePrinter::Int(static_cast<long long>(
              tirm_run.result.allocation.TotalSeeds())),
          TablePrinter::Int(
              static_cast<long long>(tirm_run.result.cache.sampled_sets)),
          TablePrinter::Int(
              static_cast<long long>(tirm_run.result.cache.reused_sets))};
      JsonValue json_row = JsonValue::Object();
      json_row.Set("budget", JsonValue::Number(budget));
      json_row.Set("tirm_seconds", JsonValue::Number(tirm_run.result.seconds));
      json_row.Set("sampled_sets",
                   JsonValue::Number(static_cast<double>(
                       tirm_run.result.cache.sampled_sets)));
      json_row.Set("reused_sets",
                   JsonValue::Number(static_cast<double>(
                       tirm_run.result.cache.reused_sets)));
      if (include_irie) {
        EngineRun irie_run = RunOnEngine(engine, "greedy-irie", query, config);
        row.push_back(TablePrinter::Num(irie_run.result.seconds, 2));
        row.push_back(TablePrinter::Int(
            static_cast<long long>(irie_run.result.allocation.TotalSeeds())));
        json_row.Set("irie_seconds",
                     JsonValue::Number(irie_run.result.seconds));
      } else {
        row.push_back("(excluded)");
        row.push_back("-");
      }
      t.AddRow(row);
      rows.Append(std::move(json_row));
    }
    t.Print();
    PrintStoreStats(engine);
    panel.Set("budget_sweep", std::move(rows));
  }
  out->Append(std::move(panel));
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  // Scalability benches use the paper's eps = 0.2.
  BenchConfig config = BenchConfig::FromFlags(flags, /*default_scale=*/0.02,
                                              /*default_eps=*/0.2,
                                              /*default_json_out=*/
                                              "BENCH_fig6.json");
  config.Print("bench_fig6_scalability: Fig. 6 running time (DBLP / LJ shaped)");
  JsonReport report("bench_fig6_scalability", config);
  JsonValue panels = JsonValue::Array();
  WallTimer bench_timer;
  // Record the whole bench with the flight recorder; the per-stage
  // aggregate lands in the report's "profile" section. Span cost is tens
  // of nanoseconds at batch granularity — invisible next to the seconds-
  // scale rows measured here.
  obs::TraceRecorder::Global().Enable();

  // Thread-count sweep of the parallel RR-set engine (beyond the paper,
  // which is single-threaded). Override the sweep via --threads to add a
  // point at the requested count.
  std::vector<int> thread_counts = {1, 2, 4, 8};
  if (const int t = config.threads;
      t > 1 && std::find(thread_counts.begin(), thread_counts.end(), t) ==
                   thread_counts.end()) {
    thread_counts.push_back(t);
  }
  RunThreadSweep(config, thread_counts, &report.root());

  // Sharded sampling plane (K = 1/2/4) on a `file:`-ingested SNAP-style
  // graph — speedup rows plus a bit-identity assertion against the
  // single-store path.
  RunShardSweep(config, &report.root());

  // DBLP (paper: budgets 5K at 317K nodes; h sweep 1..20; budget sweep to
  // 30K). Scaled: budgets scale with the graph.
  const double dblp_budget = 5000.0 * config.scale;
  RunSweep("dblp-like (Fig. 6a/6b)", DblpLike(config.scale),
           /*h_values=*/{1, 5, 10, 15},
           /*budget_values=*/
           {dblp_budget * 0.4, dblp_budget, dblp_budget * 2, dblp_budget * 4},
           /*fixed_budget=*/dblp_budget, /*fixed_h=*/5,
           /*include_irie=*/true, config, &panels);

  // LIVEJOURNAL (paper: budgets 80K at 4.8M nodes; TIRM only).
  const double lj_scale = config.scale / 10.0;
  const double lj_budget = 80000.0 * lj_scale;
  RunSweep("livejournal-like (Fig. 6c/6d)", LiveJournalLike(lj_scale),
           /*h_values=*/{1, 5, 10, 15, 20},
           /*budget_values=*/
           {lj_budget * 0.5, lj_budget, lj_budget * 2, lj_budget * 3},
           /*fixed_budget=*/lj_budget, /*fixed_h=*/5,
           /*include_irie=*/false, config, &panels);

  std::printf(
      "\nPaper reference (scale 1.0, 2.4GHz Xeon): DBLP h=1 both ~60s, h=15 "
      "TIRM 6x faster than\nGREEDY-IRIE; LJ h=1 TIRM 16 min vs IRIE 6 h; LJ "
      "h=20 TIRM ~5 h, 4649 seeds.\n");
  report.Set("panels", std::move(panels));
  report.Set("wall_seconds", JsonValue::Number(bench_timer.Seconds()));

  obs::TraceRecorder::Global().Disable();
  std::printf("\n--- pipeline profile (whole bench, by total wall time) ---\n");
  TablePrinter pt({"stage", "count", "total (ms)"});
  JsonValue profile = JsonValue::Array();
  for (const obs::StageStats& stage : obs::TraceRecorder::Global().Summary()) {
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

  report.Write();
  return 0;
}
