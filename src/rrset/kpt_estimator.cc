#include "rrset/kpt_estimator.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/trace.h"
#include "rrset/parallel_rr_builder.h"

namespace tirm {

KptEstimator::KptEstimator(RrSampler* sampler, std::uint64_t num_edges,
                           Options options)
    : sampler_(sampler), num_edges_(num_edges), options_(options) {
  TIRM_CHECK(sampler_ != nullptr);
  num_nodes_ = sampler_->graph().num_nodes();
  TIRM_CHECK_GT(num_nodes_, 0u);
}

KptEstimator::KptEstimator(ParallelRrBuilder* builder, std::uint64_t num_edges,
                           Options options)
    : builder_(builder), num_edges_(num_edges), options_(options) {
  TIRM_CHECK(builder_ != nullptr);
  num_nodes_ = builder_->graph().num_nodes();
  TIRM_CHECK_GT(num_nodes_, 0u);
}

void KptEstimator::SampleWidths(std::uint64_t target, Rng& rng,
                                int num_threads) {
  if (widths_.size() >= target) return;
  if (builder_ != nullptr) {
    const std::vector<std::uint64_t> widths =
        builder_->SampleWidths(target - widths_.size(), rng, num_threads);
    widths_.insert(widths_.end(), widths.begin(), widths.end());
    return;
  }
  std::vector<NodeId> scratch;
  while (widths_.size() < target) {
    sampler_->SampleInto(rng, scratch);
    widths_.push_back(sampler_->last_width());
  }
}

double KptEstimator::MeanKappa(std::uint64_t s) const {
  if (widths_.empty() || num_edges_ == 0) return 0.0;
  const double m = static_cast<double>(num_edges_);
  const double se = static_cast<double>(s);
  double sum = 0.0;
  for (const std::uint64_t w : widths_) {
    const double frac = std::min(1.0, static_cast<double>(w) / m);
    sum += 1.0 - std::pow(1.0 - frac, se);
  }
  return sum / static_cast<double>(widths_.size());
}

double KptEstimator::Estimate(std::uint64_t s, Rng& rng, int num_threads) {
  TIRM_CHECK_GE(s, 1u);
  obs::TraceSpan span("kpt_estimate");
  span.Counter("s", static_cast<double>(s));
  widths_.clear();
  if (num_edges_ == 0) return 1.0;
  const double n = static_cast<double>(num_nodes_);
  const double log2n = std::log2(n);
  const int max_iter = std::max(1, static_cast<int>(log2n) - 1);
  for (int i = 1; i <= max_iter; ++i) {
    obs::TraceSpan iter_span("kpt_iteration");
    const double ci_d = (6.0 * options_.ell * std::log(n) +
                         6.0 * std::log(std::max(2.0, log2n))) *
                        std::pow(2.0, i);
    const std::uint64_t ci = std::min<std::uint64_t>(
        options_.max_samples, static_cast<std::uint64_t>(ci_d) + 1);
    SampleWidths(ci, rng, num_threads);
    iter_span.Counter("iteration", i);
    iter_span.Counter("samples", static_cast<double>(widths_.size()));
    const double c = MeanKappa(s);
    if (c > 1.0 / std::pow(2.0, i)) {
      span.Counter("iterations", i);
      span.Counter("samples", static_cast<double>(widths_.size()));
      return std::max(1.0, n * c / 2.0);
    }
    if (widths_.size() >= options_.max_samples) break;  // safety valve
  }
  // TIM falls back to KPT* = 1 when the graph is so sparse that even the
  // largest sample keeps the mean below threshold.
  span.Counter("iterations", max_iter);
  span.Counter("samples", static_cast<double>(widths_.size()));
  return std::max(1.0, n * MeanKappa(s) / 2.0);
}

double KptEstimator::ReEstimate(std::uint64_t s) const {
  TIRM_CHECK(!widths_.empty()) << "call Estimate() first";
  return std::max(1.0, static_cast<double>(num_nodes_) * MeanKappa(s) / 2.0);
}

}  // namespace tirm
