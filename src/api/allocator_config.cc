#include "api/allocator_config.h"

#include <cmath>

#include "common/threading.h"

namespace tirm {
namespace {

// Negated comparisons so NaN fails every check instead of slipping through.
Status CheckNonNegative(const char* name, double v) {
  if (!(v >= 0.0) || !std::isfinite(v)) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be finite and non-negative, got " +
                                   std::to_string(v));
  }
  return Status::OK();
}

}  // namespace

Result<AllocatorConfig> AllocatorConfig::FromFlags(const Flags& flags) {
  return FromFlags(flags, AllocatorConfig());
}

Result<AllocatorConfig> AllocatorConfig::FromFlags(const Flags& flags,
                                                   AllocatorConfig defaults) {
  AllocatorConfig c = defaults;
  c.allocator = flags.GetString("allocator", c.allocator);

  // Small local helpers keep the field/flag pairing table-like below.
  Status error = Status::OK();
  const auto num = [&flags, &error](const char* key, double def) {
    Result<double> r = flags.GetDoubleStrict(key, def);
    if (!r.ok()) {
      if (error.ok()) error = r.status();
      return def;
    }
    return r.value();
  };
  const auto integer = [&flags, &error](const char* key, std::int64_t def) {
    Result<std::int64_t> r = flags.GetIntStrict(key, def);
    if (!r.ok()) {
      if (error.ok()) error = r.status();
      return def;
    }
    return r.value();
  };
  // For fields stored unsigned: a negative flag value must error, not wrap.
  const auto count = [&integer, &error](const char* key, std::int64_t def) {
    const std::int64_t v = integer(key, def);
    if (v < 0) {
      if (error.ok()) {
        error = Status::InvalidArgument(std::string("flag --") + key +
                                        " must be non-negative, got " +
                                        std::to_string(v));
      }
      return def;
    }
    return v;
  };
  // For fields stored as int: range-check BEFORE narrowing, so values like
  // 2^32+2 error instead of silently wrapping into the valid range.
  const auto bounded = [&integer, &error](const char* key, std::int64_t def,
                                          std::int64_t lo, std::int64_t hi) {
    const std::int64_t v = integer(key, def);
    if (v < lo || v > hi) {
      if (error.ok()) {
        error = Status::InvalidArgument(
            std::string("flag --") + key + " must be in [" +
            std::to_string(lo) + ", " + std::to_string(hi) + "], got " +
            std::to_string(v));
      }
      return def;
    }
    return v;
  };
  const auto boolean = [&flags, &error](const char* key, bool def) {
    Result<bool> r = flags.GetBoolStrict(key, def);
    if (!r.ok()) {
      if (error.ok()) error = r.status();
      return def;
    }
    return r.value();
  };

  c.max_total_seeds = static_cast<std::size_t>(
      count("max_total_seeds", static_cast<std::int64_t>(c.max_total_seeds)));
  c.min_drop = num("min_drop", c.min_drop);
  c.eps = num("eps", c.eps);
  c.ell = num("ell", c.ell);
  c.theta_cap = static_cast<std::uint64_t>(
      count("theta_cap", static_cast<std::int64_t>(c.theta_cap)));
  c.theta_min = static_cast<std::uint64_t>(
      count("theta_min", static_cast<std::int64_t>(c.theta_min)));
  c.kpt_max_samples = static_cast<std::uint64_t>(count(
      "kpt_max_samples", static_cast<std::int64_t>(c.kpt_max_samples)));
  c.num_threads = static_cast<int>(
      bounded("threads", c.num_threads, 0, kMaxSamplingThreads));
  c.weight_by_ctp = boolean("weight_by_ctp", c.weight_by_ctp);
  c.exact_selection_fallback =
      boolean("exact_selection_fallback", c.exact_selection_fallback);
  c.ctp_aware_coverage = boolean("ctp_aware_coverage", c.ctp_aware_coverage);
  c.num_shards = static_cast<int>(bounded("num_shards", c.num_shards, 1, 64));
  c.irie_alpha = num("irie_alpha", c.irie_alpha);
  c.irie_rank_iterations = static_cast<int>(
      bounded("irie_rank_iterations", c.irie_rank_iterations, 1, 1000000));
  c.irie_ap_truncation = num("irie_ap_truncation", c.irie_ap_truncation);
  c.irie_max_push_hops = static_cast<int>(
      bounded("irie_max_push_hops", c.irie_max_push_hops, 1, 1000000));
  c.mc_sims = static_cast<std::size_t>(
      count("mc_sims", static_cast<std::int64_t>(c.mc_sims)));

  if (!error.ok()) return error;
  TIRM_RETURN_NOT_OK(c.Validate());
  return c;
}

Status AllocatorConfig::Validate() const {
  if (allocator.empty()) {
    return Status::InvalidArgument("allocator name must not be empty");
  }
  if (!(eps > 0.0 && eps < 1.0)) {  // also rejects NaN
    return Status::InvalidArgument("eps must be in (0, 1), got " +
                                   std::to_string(eps));
  }
  if (!(ell > 0.0) || !std::isfinite(ell)) {
    return Status::InvalidArgument("ell must be positive and finite, got " +
                                   std::to_string(ell));
  }
  TIRM_RETURN_NOT_OK(CheckNonNegative("min_drop", min_drop));
  if (theta_cap != 0 && theta_cap < theta_min) {
    return Status::InvalidArgument("theta_cap below theta_min");
  }
  if (num_threads < 0 || num_threads > kMaxSamplingThreads) {
    return Status::InvalidArgument("threads must be in [0, " +
                                   std::to_string(kMaxSamplingThreads) +
                                   "], got " + std::to_string(num_threads));
  }
  if (!(irie_alpha > 0.0 && irie_alpha < 1.0)) {  // also rejects NaN
    return Status::InvalidArgument("irie_alpha must be in (0, 1), got " +
                                   std::to_string(irie_alpha));
  }
  if (irie_rank_iterations < 1) {
    return Status::InvalidArgument("irie_rank_iterations must be >= 1");
  }
  TIRM_RETURN_NOT_OK(
      CheckNonNegative("irie_ap_truncation", irie_ap_truncation));
  if (irie_max_push_hops < 1) {
    return Status::InvalidArgument("irie_max_push_hops must be >= 1");
  }
  if (mc_sims == 0) {
    return Status::InvalidArgument("mc_sims must be >= 1");
  }
  if (num_shards < 1 || num_shards > 64) {
    return Status::InvalidArgument("num_shards must be in [1, 64], got " +
                                   std::to_string(num_shards));
  }
  if (num_shards > 1 && (weight_by_ctp || ctp_aware_coverage)) {
    return Status::InvalidArgument(
        "num_shards > 1 requires the paper-faithful unweighted path "
        "(weight_by_ctp and ctp_aware_coverage must be off)");
  }
  return Status::OK();
}

TirmOptions AllocatorConfig::MakeTirmOptions() const {
  TirmOptions o;
  o.theta.epsilon = eps;
  o.theta.ell = ell;
  o.theta.theta_cap = theta_cap;
  o.theta.theta_min = theta_min;
  o.max_total_seeds = max_total_seeds;
  o.min_drop = min_drop;
  o.kpt_max_samples = kpt_max_samples;
  o.num_threads = num_threads;
  o.weight_by_ctp = weight_by_ctp;
  o.exact_selection_fallback = exact_selection_fallback;
  o.ctp_aware_coverage = ctp_aware_coverage;
  o.sample_store = sample_store;
  o.sample_store_seed = sample_store_seed;
  o.num_shards = num_shards;
  o.sharded_sample_store = sharded_sample_store;
  o.shard_clients = shard_clients;
  return o;
}

IrieEstimator::Options AllocatorConfig::MakeIrieOptions() const {
  IrieEstimator::Options o;
  o.alpha = irie_alpha;
  o.rank_iterations = irie_rank_iterations;
  o.ap_truncation = irie_ap_truncation;
  o.max_push_hops = irie_max_push_hops;
  return o;
}

GreedyAllocator::Options AllocatorConfig::MakeGreedyOptions() const {
  GreedyAllocator::Options o;
  o.max_total_seeds = max_total_seeds;
  o.min_drop = min_drop;
  return o;
}

McMarginalOracle::Options AllocatorConfig::MakeMcOptions() const {
  McMarginalOracle::Options o;
  o.num_sims = mc_sims;
  return o;
}

}  // namespace tirm
