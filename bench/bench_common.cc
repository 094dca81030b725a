#include "bench/bench_common.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>

#include "common/threading.h"

namespace tirm {
namespace bench {

// CMake stamps the real CMAKE_BUILD_TYPE (lowercased); without it, fall
// back to the NDEBUG probe — "release-like" vs "debug" is the distinction
// that matters for whether a number is comparable across runs.
const char* LibraryBuildType() {
#if defined(TIRM_LIBRARY_BUILD_TYPE)
  return TIRM_LIBRARY_BUILD_TYPE;
#elif defined(NDEBUG)
  return "release-like";
#else
  return "debug";
#endif
}

bool IsReleaseLikeBuild() {
#if defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

const char* const kAllAlgorithms[4] = {"myopic", "myopic+", "greedy-irie",
                                       "tirm"};

namespace {

// Strict flag readers: a malformed or out-of-range value exits 1 with a
// typed error naming the flag, instead of silently running the bench with
// a default (or, for unsigned fields, with a negative value wrapped
// around).
constexpr std::int64_t kNoMax = std::numeric_limits<std::int64_t>::max();

[[noreturn]] void ExitBadFlag(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  std::exit(1);
}

std::int64_t IntFlag(const Flags& flags, const char* key, std::int64_t def,
                     std::int64_t lo, std::int64_t hi = kNoMax) {
  const Result<std::int64_t> v = flags.GetIntStrict(key, def);
  if (!v.ok()) ExitBadFlag(v.status());
  if (v.value() < lo || v.value() > hi) {
    const std::string range =
        hi == kNoMax ? ">= " + std::to_string(lo)
                     : "in [" + std::to_string(lo) + ", " +
                           std::to_string(hi) + "]";
    ExitBadFlag(Status::InvalidArgument("flag --" + std::string(key) +
                                        " must be " + range + ", got " +
                                        std::to_string(v.value())));
  }
  return v.value();
}

// Open interval (lo, hi); also rejects NaN and infinities.
double DoubleFlag(const Flags& flags, const char* key, double def, double lo,
                  double hi) {
  const Result<double> v = flags.GetDoubleStrict(key, def);
  if (!v.ok()) ExitBadFlag(v.status());
  if (!(v.value() > lo && v.value() < hi && std::isfinite(v.value()))) {
    std::ostringstream message;
    message << "flag --" << key << " must be in (" << lo << ", " << hi
            << "), got " << v.value();
    ExitBadFlag(Status::InvalidArgument(message.str()));
  }
  return v.value();
}

}  // namespace

BenchConfig BenchConfig::FromFlags(const Flags& flags, double default_scale,
                                   double default_eps,
                                   const char* default_json_out) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  BenchConfig c;
  c.scale = DoubleFlag(flags, "scale", default_scale, 0.0, kInf);
  c.eval_sims = static_cast<std::size_t>(IntFlag(flags, "eval_sims", 2000, 1));
  c.eps = DoubleFlag(flags, "eps", default_eps, 0.0, 1.0);
  c.theta_cap =
      static_cast<std::uint64_t>(IntFlag(flags, "theta_cap", 1 << 18, 0));
  c.seed = static_cast<std::uint64_t>(IntFlag(flags, "seed", 2015, 0));
  c.irie_alpha = DoubleFlag(flags, "irie_alpha", 0.8, 0.0, 1.0);
  c.threads = ResolveThreadCount(static_cast<int>(
      IntFlag(flags, "threads", 1, 0, kMaxSamplingThreads)));
  c.bundle = flags.GetString("bundle", "");
  c.json_out = flags.GetString("json_out", default_json_out);
  return c;
}

BuiltInstance BuildBenchInstance(const BenchConfig& config,
                                 const DatasetSpec& spec, Rng& rng) {
  if (config.bundle.empty()) return BuildDataset(spec, rng);
  Result<BuiltInstance> loaded = LoadBundleInstance(config.bundle);
  TIRM_CHECK(loaded.ok()) << loaded.status().ToString();
  return loaded.MoveValue();
}

JsonReport::JsonReport(const char* bench_name, const BenchConfig& config)
    : path_(config.json_out), root_(JsonValue::Object()) {
  root_.Set("bench", JsonValue::String(bench_name));
  JsonValue cfg = JsonValue::Object();
  cfg.Set("scale", JsonValue::Number(config.scale));
  cfg.Set("eval_sims",
          JsonValue::Number(static_cast<double>(config.eval_sims)));
  cfg.Set("eps", JsonValue::Number(config.eps));
  cfg.Set("theta_cap",
          JsonValue::Number(static_cast<double>(config.theta_cap)));
  cfg.Set("seed", JsonValue::Number(static_cast<double>(config.seed)));
  cfg.Set("threads", JsonValue::Number(config.threads));
  cfg.Set("library_build_type", JsonValue::String(LibraryBuildType()));
  root_.Set("config", std::move(cfg));
}

void JsonReport::Write() const {
  if (path_.empty()) return;
  const Status written = WriteJsonFile(path_, root_);
  TIRM_CHECK(written.ok()) << written.ToString();
  std::printf("\nwrote %s\n", path_.c_str());
}

void BenchConfig::Print(const char* bench_name, bool supports_bundle) const {
  TIRM_CHECK(bundle.empty() || supports_bundle)
      << bench_name << " does not support --bundle (it builds its own "
      << "instances); drop the flag";
  if (!bundle.empty()) {
    std::printf("bundle: %s (mmap'ed; replaces the generated dataset)\n",
                bundle.c_str());
  }
  if (!IsReleaseLikeBuild()) {
    std::printf(
        "*** WARNING: the tirm library was built as \"%s\" (assertions on, "
        "optimizations off).\n*** Timings from this binary are NOT "
        "comparable across runs — rebuild with\n*** "
        "-DCMAKE_BUILD_TYPE=Release before recording any BENCH_*.json.\n\n",
        LibraryBuildType());
    std::fprintf(stderr,
                 "bench: WARNING: benchmarking a %s build of the tirm "
                 "library\n",
                 LibraryBuildType());
  }
  std::printf(
      "== %s ==\n"
      "config: scale=%.4g eval_sims=%zu eps=%.2f theta_cap=%llu seed=%llu "
      "threads=%d\n"
      "(paper settings: eval_sims=10000, eps=0.1 quality / 0.2 scalability,\n"
      " no theta cap; raise via TIRM_EVAL_SIMS / TIRM_EPS / TIRM_THETA_CAP /\n"
      " TIRM_SCALE env vars to approach them; TIRM_THREADS / --threads\n"
      " parallelizes RR-set sampling)\n\n",
      bench_name, scale, eval_sims, eps,
      static_cast<unsigned long long>(theta_cap),
      static_cast<unsigned long long>(seed), threads);
}

AllocationResult RunAlgorithm(const std::string& name,
                              const ProblemInstance& instance,
                              const BenchConfig& config) {
  return RunConfigured(config.MakeAllocatorConfig(name), instance,
                       config.seed + 17);
}

AllocationResult RunConfigured(const AllocatorConfig& config,
                               const ProblemInstance& instance,
                               std::uint64_t seed) {
  Result<std::unique_ptr<Allocator>> allocator =
      AllocatorRegistry::Global().Create(config);
  TIRM_CHECK(allocator.ok()) << allocator.status().ToString();
  Rng rng(seed);
  return allocator.value()->Allocate(instance, rng);
}

EngineRun RunOnEngine(AdAllocEngine& engine, const std::string& name,
                      const EngineQuery& query, const BenchConfig& config) {
  Result<EngineRun> run = engine.Run(config.MakeAllocatorConfig(name), query);
  TIRM_CHECK(run.ok()) << run.status().ToString();
  return run.MoveValue();
}

void PrintStoreStats(const AdAllocEngine& engine) {
  const RrSampleStore* store = engine.sample_store();
  if (store == nullptr) return;
  const SampleCacheStats stats = engine.StoreStats();
  std::printf(
      "store: %zu pooled ads, arena %s, sampled %llu sets, reused %llu, "
      "top-ups %llu, kpt hits %llu/%llu\n",
      store->NumEntries(), HumanBytes(stats.arena_bytes).c_str(),
      static_cast<unsigned long long>(stats.sampled_sets),
      static_cast<unsigned long long>(stats.reused_sets),
      static_cast<unsigned long long>(stats.top_ups),
      static_cast<unsigned long long>(stats.kpt_cache_hits),
      static_cast<unsigned long long>(stats.kpt_estimations));
}

RegretReport EvaluateChecked(const ProblemInstance& instance,
                             const Allocation& allocation,
                             const BenchConfig& config, std::uint64_t salt) {
  Status valid = ValidateAllocation(instance, allocation);
  TIRM_CHECK(valid.ok()) << valid.ToString();
  RegretEvaluator evaluator(&instance, {.num_sims = config.eval_sims});
  Rng rng(config.seed + 0x9000 + salt);
  return evaluator.Evaluate(allocation, rng);
}

}  // namespace bench
}  // namespace tirm
