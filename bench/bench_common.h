// Shared harness for the paper-table/figure benchmarks.
//
// Every bench binary runs with no arguments and prints (a) the experimental
// configuration, (b) an aligned table mirroring the paper's rows/series,
// and (c) a machine-readable CSV block. Knobs come from --flags or TIRM_*
// environment variables (see common/flags.h):
//
//   TIRM_SCALE        dataset scale multiplier (default varies per bench)
//   TIRM_EVAL_SIMS    Monte-Carlo evaluation runs (paper: 10000)
//   TIRM_EPS          TIM/TIRM epsilon (paper: 0.1 quality / 0.2 scale)
//   TIRM_THETA_CAP    per-ad RR-set cap (0 = uncapped)
//   TIRM_SEED         master RNG seed
//
// Algorithms are dispatched exclusively through the AllocatorRegistry
// (api/allocator_registry.h); benches never call per-algorithm entry
// points directly.

#ifndef TIRM_BENCH_BENCH_COMMON_H_
#define TIRM_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>

#include "alloc/allocation.h"
#include "alloc/allocator.h"
#include "alloc/regret_evaluator.h"
#include "api/ad_alloc_engine.h"
#include "api/allocator_config.h"
#include "api/allocator_registry.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/memory_info.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "datasets/dataset.h"
#include "graph/graph_stats.h"
#include "io/bundle_reader.h"

namespace tirm {
namespace bench {

/// Knobs shared by every bench, resolved from flags/env with per-bench
/// defaults.
struct BenchConfig {
  double scale = 0.01;
  std::size_t eval_sims = 2000;
  double eps = 0.25;
  std::uint64_t theta_cap = 1 << 18;
  std::uint64_t seed = 2015;
  double irie_alpha = 0.8;
  int threads = 1;  ///< RR-sampling worker threads (--threads, 0 = hardware)
  /// Prebuilt ".tirm" bundle path (--bundle / TIRM_BUNDLE; empty = build
  /// the bench's own dataset). Benches that resolve their instance through
  /// BuildBenchInstance run on the mmap'ed bundle instead of generating.
  std::string bundle;
  /// Machine-readable report path (--json_out; empty = don't write). The
  /// perf-trajectory benches default to BENCH_<figure>.json so runs are
  /// comparable across PRs without extra flags.
  std::string json_out;

  static BenchConfig FromFlags(const Flags& flags, double default_scale,
                               double default_eps = 0.25,
                               const char* default_json_out = "");

  /// Registry configuration carrying this bench's knobs; `name` fills
  /// AllocatorConfig::allocator.
  AllocatorConfig MakeAllocatorConfig(const std::string& name) const {
    AllocatorConfig c;
    c.allocator = name;
    c.eps = eps;
    c.theta_cap = theta_cap;
    c.num_threads = threads;
    c.irie_alpha = irie_alpha;
    return c;
  }

  /// Engine options carrying this bench's evaluation knobs. Sweep benches
  /// run through AdAllocEngine so every sweep point reuses the engine's
  /// pooled RR samples (RrSampleStore) instead of resampling.
  EngineOptions MakeEngineOptions(bool reuse_samples = true) const {
    EngineOptions o;
    o.eval_sims = eval_sims;
    o.seed = seed;
    o.reuse_samples = reuse_samples;
    return o;
  }

  /// Prints the config banner. Benches that resolve their instance
  /// through BuildBenchInstance pass supports_bundle=true; everywhere
  /// else a given --bundle would be silently ignored — results would be
  /// attributed to the wrong instance — so Print aborts instead.
  void Print(const char* bench_name, bool supports_bundle = false) const;
};

/// Resolves a bench's instance: the mmap'ed --bundle when one was given,
/// otherwise BuildDataset(spec). Aborts on a bad bundle — a bench must
/// fail loudly.
BuiltInstance BuildBenchInstance(const BenchConfig& config,
                                 const DatasetSpec& spec, Rng& rng);

/// Runs allocator `name` on `engine` at `query` and returns the full
/// EngineRun (allocation + MC report), aborting on error — a bench must
/// fail loudly.
EngineRun RunOnEngine(AdAllocEngine& engine, const std::string& name,
                      const EngineQuery& query, const BenchConfig& config);

/// One-line summary of an engine's pooled samples ("store: ..."): the
/// store's pooled ads and the engine's StoreStats() totals; prints nothing
/// when the engine keeps no store (reuse off).
void PrintStoreStats(const AdAllocEngine& engine);

/// Runs any registered allocator by name with this bench's shared config
/// (aborts on unknown names — a bench must fail loudly).
AllocationResult RunAlgorithm(const std::string& name,
                              const ProblemInstance& instance,
                              const BenchConfig& config);

/// Runs a fully custom AllocatorConfig (ablation variants) with an
/// explicit algorithm seed.
AllocationResult RunConfigured(const AllocatorConfig& config,
                               const ProblemInstance& instance,
                               std::uint64_t seed);

/// The four paper algorithms in presentation order ("greedy-mc" is bench
/// -specific and only appears in ablations).
extern const char* const kAllAlgorithms[4];

/// Convenience: evaluates with MC and asserts validity (aborts on invalid —
/// a bench must never report numbers for an invalid allocation).
RegretReport EvaluateChecked(const ProblemInstance& instance,
                             const Allocation& allocation,
                             const BenchConfig& config, std::uint64_t salt);

/// The build type the tirm library was compiled as ("release", "debug",
/// ...): CMake's CMAKE_BUILD_TYPE lowercased, or an NDEBUG-derived
/// "release-like"/"debug" when configured without one. Stamped into every
/// BENCH_*.json so a report can never silently come from a Debug build.
const char* LibraryBuildType();

/// True when the library was built with optimizations (NDEBUG defined);
/// benches warn loudly before recording timings otherwise.
bool IsReleaseLikeBuild();

/// Machine-readable run report. The root object is pre-stamped with the
/// bench name and the shared config ("bench", "config": {scale, eval_sims,
/// eps, theta_cap, seed, threads}); benches attach their own sections
/// (workload params, wall times, cache stats) and call Write() at the end
/// — a no-op when --json_out is empty, a loud failure on IO errors.
class JsonReport {
 public:
  JsonReport(const char* bench_name, const BenchConfig& config);

  JsonValue& root() { return root_; }
  /// Shorthand: root().Set(key, value).
  void Set(const char* key, JsonValue value) {
    root_.Set(key, std::move(value));
  }

  void Write() const;

 private:
  std::string path_;
  JsonValue root_;
};

}  // namespace bench
}  // namespace tirm

#endif  // TIRM_BENCH_BENCH_COMMON_H_
