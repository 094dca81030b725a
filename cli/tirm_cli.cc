// tirm_cli — run any registered allocator on any dataset stand-in, with
// optional parameter sweeps, through the AdAllocEngine facade.
//
//   tirm_cli --list
//   tirm_cli --allocator=myopic                      # Fig. 1 gadget
//   tirm_cli --allocator=tirm --dataset=flixster --scale=0.01 --eps=0.2
//   tirm_cli --allocator=all --kappa=2 --lambda=0.1
//   tirm_cli --allocator=tirm --sweep_lambda=0,0.1,0.5,1
//
// Flags: --dataset={fig1,flixster,epinions,dblp,livejournal,
//        file:<edge-list>,bundle:<path.tirm>} --bundle=<path.tirm>
//        (shorthand for --dataset=bundle:<path>; mmap'ed zero-copy load)
//        --scale= --kappa= --lambda= --beta= --budget_scale= --eval_sims=
//        --seed= --sweep_lambda=a,b,c --reuse_samples={true,false} plus
//        every AllocatorConfig flag
//        (--eps, --theta_cap, --threads, --num_shards, --irie_alpha,
//        --mc_sims, ...).
// Observability: --trace_out=<path> records the whole run with the
// obs::TraceRecorder and writes a Chrome trace-event JSON file (load it
// in Perfetto or chrome://tracing); --print_profile prints the per-stage
// aggregate (count / total ms per span name) to stdout.
// All knobs also read TIRM_* environment variables. Malformed numeric
// values are rejected with an error (strict parsing), not defaulted.

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "api/ad_alloc_engine.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "datasets/dataset.h"
#include "graph/graph_stats.h"
#include "obs/trace.h"
#include "serve/protocol.h"

namespace {

using namespace tirm;

std::vector<std::string> SplitCommaList(const std::string& s) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : s) {
    if (c == ',') {
      if (!current.empty()) parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) parts.push_back(current);
  return parts;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "tirm_cli: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

// Every flag this binary reads; anything else on the command line is a
// typo the user must hear about, not a silently ignored key. The
// AllocatorConfig / EngineQuery flags come from the serving protocol's key
// sets, as in tirm_server, so the CLI and the request format cannot drift
// apart.
bool IsKnownFlag(const std::string& key) {
  static const std::set<std::string> kCli = {
      "list", "allocator", "dataset", "bundle", "scale", "seed", "eval_sims",
      "sweep_lambda", "reuse_samples", "trace_out", "print_profile"};
  return kCli.count(key) > 0 || serve::RequestConfigKeys().count(key) > 0 ||
         serve::RequestQueryKeys().count(key) > 0;
}

int main(int argc, char** argv) {
  Flags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);
  for (const std::string& key : flags.Keys()) {
    if (!IsKnownFlag(key)) {
      return Fail(Status::InvalidArgument(
          "unknown flag --" + key + " (see the header of cli/tirm_cli.cc)"));
    }
  }

  Result<bool> list = flags.GetBoolStrict("list", false);
  if (!list.ok()) return Fail(list.status());
  if (*list) {
    std::printf("registered allocators:\n");
    for (const std::string& name : AllocatorRegistry::Global().Names()) {
      std::printf("  %s\n", name.c_str());
    }
    return 0;
  }

  Result<AllocatorConfig> config = AllocatorConfig::FromFlags(flags);
  if (!config.ok()) return Fail(config.status());

  // --bundle=<path> is shorthand for --dataset=bundle:<path>.
  std::string dataset = flags.GetString("dataset", "fig1");
  const std::string bundle_path = flags.GetString("bundle", "");
  if (!bundle_path.empty()) {
    if (flags.Has("dataset")) {
      return Fail(Status::InvalidArgument(
          "--bundle and --dataset are mutually exclusive"));
    }
    dataset = "bundle:" + bundle_path;
  }
  Result<double> scale = flags.GetDoubleStrict("scale", 0.01);
  if (!scale.ok()) return Fail(scale.status());
  if (!(*scale > 0.0) || !std::isfinite(*scale)) {  // also rejects NaN
    return Fail(Status::InvalidArgument("--scale must be positive and finite"));
  }
  Result<std::int64_t> seed_flag = flags.GetIntStrict("seed", 2015);
  if (!seed_flag.ok()) return Fail(seed_flag.status());
  Result<std::int64_t> eval_sims = flags.GetIntStrict("eval_sims", 2000);
  if (!eval_sims.ok()) return Fail(eval_sims.status());
  if (*eval_sims < 1) {
    return Fail(Status::InvalidArgument("eval_sims must be >= 1"));
  }
  // Pooled RR-sample reuse across sweep points / allocators (default on;
  // --reuse_samples=false resamples per run — identical results, slower
  // sweeps).
  Result<bool> reuse_samples = flags.GetBoolStrict("reuse_samples", true);
  if (!reuse_samples.ok()) return Fail(reuse_samples.status());

  const std::string trace_out = flags.GetString("trace_out", "");
  Result<bool> print_profile = flags.GetBoolStrict("print_profile", false);
  if (!print_profile.ok()) return Fail(print_profile.status());
  if (!trace_out.empty() || *print_profile) {
    obs::TraceRecorder::Global().Enable();
  }

  Result<EngineQuery> parsed_query = EngineQuery::FromFlags(flags);
  if (!parsed_query.ok()) return Fail(parsed_query.status());
  const EngineQuery query = *parsed_query;

  // Allocator list: a name, a comma list, or "all" (every registered one).
  std::vector<std::string> allocators;
  if (config->allocator == "all") {
    allocators = AllocatorRegistry::Global().Names();
    if (dataset != "fig1") {
      // GREEDY-MC is the small-graph reference oracle (O(n * sims) per
      // seed); on the large stand-ins it appears to hang. Require an
      // explicit request there.
      std::erase(allocators, std::string("greedy-mc"));
      std::printf(
          "note: greedy-mc excluded from --allocator=all on dataset \"%s\" "
          "(small-graph reference only); request it explicitly to run it.\n",
          dataset.c_str());
    }
  } else {
    allocators = SplitCommaList(config->allocator);
  }
  if (allocators.empty()) {
    return Fail(Status::InvalidArgument("no allocator selected"));
  }
  // Fail fast on typos before any (possibly expensive) run starts.
  for (const std::string& name : allocators) {
    if (!AllocatorRegistry::Global().Contains(name)) {
      return Fail(Status::NotFound("unknown allocator \"" + name +
                                   "\" (see --list)"));
    }
  }

  // Lambda sweep points ("" = just the --lambda value).
  std::vector<double> lambdas = {query.lambda};
  const std::string sweep = flags.GetString("sweep_lambda", "");
  if (!sweep.empty()) {
    lambdas.clear();
    for (const std::string& part : SplitCommaList(sweep)) {
      Result<double> v = Flags::ParseDouble(part);
      if (!v.ok() || !(*v >= 0.0)) {
        return Fail(Status::InvalidArgument(
            "--sweep_lambda: bad value \"" + part + "\""));
      }
      lambdas.push_back(*v);
    }
    if (lambdas.empty()) {
      return Fail(Status::InvalidArgument(
          "--sweep_lambda: no sweep points in \"" + sweep + "\""));
    }
  }

  const auto seed = static_cast<std::uint64_t>(*seed_flag);
  Rng build_rng(seed);
  Result<BuiltInstance> built = BuildNamedDataset(dataset, *scale, build_rng);
  if (!built.ok()) return Fail(built.status());

  AdAllocEngine engine(
      built.MoveValue(),
      {.eval_sims = static_cast<std::size_t>(*eval_sims), .seed = seed,
       .reuse_samples = *reuse_samples});
  std::printf(
      "dataset: %s  %s\nkappa=%d beta=%.2f budget_scale=%.2f "
      "eval_sims=%lld seed=%llu\n\n",
      engine.built().name.c_str(),
      FormatGraphStats(ComputeGraphStats(*engine.built().graph)).c_str(),
      query.kappa, query.beta, query.budget_scale,
      static_cast<long long>(*eval_sims),
      static_cast<unsigned long long>(seed));

  TablePrinter t({"allocator", "lambda", "total regret", "% of budget",
                  "revenue", "seeds", "distinct users", "time (s)"});
  for (const std::string& name : allocators) {
    AllocatorConfig run_config = *config;
    run_config.allocator = name;
    for (const double l : lambdas) {
      EngineQuery q = query;
      q.lambda = l;
      Result<EngineRun> run = engine.Run(run_config, q);
      if (!run.ok()) return Fail(run.status());
      const RegretReport& r = run->report;
      t.AddRow({name, TablePrinter::Num(l, 2),
                TablePrinter::Num(r.total_regret, 2),
                TablePrinter::Num(100.0 * r.RegretFractionOfBudget(), 1),
                TablePrinter::Num(r.total_revenue, 2),
                TablePrinter::Int(static_cast<long long>(r.total_seeds)),
                TablePrinter::Int(static_cast<long long>(r.distinct_targeted)),
                TablePrinter::Num(run->result.seconds, 2)});
    }
  }
  t.Print();
  const auto print_store = [](std::size_t pooled_ads,
                               const SampleCacheStats& stats) {
    std::printf(
        "\nsample store: %zu pooled ads, sampled %llu sets, reused %llu, "
        "arena %zu bytes (--reuse_samples=false to resample per run)\n",
        pooled_ads, static_cast<unsigned long long>(stats.sampled_sets),
        static_cast<unsigned long long>(stats.reused_sets), stats.arena_bytes);
  };
  // --num_shards > 1 samples into the engine's sharded store, not its
  // single one. Every shard pools every ad, so shard 0 counts the ads; the
  // counters are the engine's total over both.
  if (const RrSampleStore* store = engine.sample_store(); store != nullptr) {
    const ShardedRrSampleStore* sharded =
        engine.sharded_sample_store(config->num_shards);
    print_store(sharded != nullptr ? sharded->shard(0).NumEntries()
                                   : store->NumEntries(),
                engine.StoreStats());
  }
  if (*print_profile) {
    std::printf("\npipeline profile (by total wall time):\n");
    TablePrinter profile({"stage", "count", "total (ms)"});
    for (const obs::StageStats& stage :
         obs::TraceRecorder::Global().Summary()) {
      profile.AddRow({stage.name,
                      TablePrinter::Int(static_cast<long long>(stage.count)),
                      TablePrinter::Num(stage.total_ms, 2)});
    }
    profile.Print();
  }
  if (!trace_out.empty()) {
    obs::TraceRecorder::Global().Disable();
    if (Status s = obs::TraceRecorder::Global().WriteChromeTrace(trace_out);
        !s.ok()) {
      return Fail(s);
    }
    std::printf("\ntrace written to %s (load in Perfetto)\n",
                trace_out.c_str());
  }
  return 0;
}
