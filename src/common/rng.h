// Deterministic, fast pseudo-random number generation.
//
// The library's randomized algorithms (Monte-Carlo simulation, RR-set
// sampling, synthetic generators) all consume an explicit Rng so that every
// experiment is reproducible from a single seed. The generator is
// xoshiro256++ (Blackman & Vigna) seeded through splitmix64; `Fork` derives
// statistically independent substreams for per-ad / per-worker use.

#ifndef TIRM_COMMON_RNG_H_
#define TIRM_COMMON_RNG_H_

#include <cmath>
#include <cstdint>

#include "common/check.h"

namespace tirm {

/// xoshiro256++ generator with convenience distributions.
class Rng {
 public:
  /// Seeds the stream deterministically from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  /// Re-seeds the generator.
  void Seed(std::uint64_t seed);

  /// Next raw 64 random bits.
  std::uint64_t NextUInt64();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() {
    return static_cast<double>(NextUInt64() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [0, 1).
  float NextFloat() {
    return static_cast<float>(NextUInt64() >> 40) * 0x1.0p-24f;
  }

  /// True with probability `p` (p outside [0,1] clamps naturally).
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t UniformInt(std::uint64_t lo, std::uint64_t hi);

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  std::uint64_t UniformBelow(std::uint64_t n);

  /// Uniform real in [a, b).
  double UniformReal(double a, double b) { return a + (b - a) * NextDouble(); }

  /// Exponential with rate `lambda` (mean 1/lambda) via inverse transform,
  /// the recipe the paper uses for EPINIONS edge probabilities (§6).
  double Exponential(double lambda) {
    TIRM_CHECK_GT(lambda, 0.0);
    double u = NextDouble();
    // 1-u in (0,1]; log is finite.
    return -std::log1p(-u) / lambda;
  }

  /// Standard normal via Box-Muller (one value per call; simple over fast).
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Derives an independent child stream; deterministic in (state, salt).
  Rng Fork(std::uint64_t salt);

 private:
  std::uint64_t state_[4];
};

}  // namespace tirm

#endif  // TIRM_COMMON_RNG_H_
