#include "topic/topic_distribution.h"

#include <cmath>

namespace tirm {

TopicDistribution::TopicDistribution(std::vector<double> mass) {
  TIRM_CHECK(!mass.empty());
  double sum = 0.0;
  for (double m : mass) {
    TIRM_CHECK_GE(m, 0.0);
    sum += m;
  }
  TIRM_CHECK_GT(sum, 0.0);
  for (double& m : mass) m /= sum;
  mass_ = ArrayRef<double>::Owned(std::move(mass));
}

Result<TopicDistribution> TopicDistribution::BorrowNormalized(
    std::span<const double> mass) {
  if (mass.empty()) {
    return Status::InvalidArgument("topic distribution: empty mass array");
  }
  double sum = 0.0;
  for (const double m : mass) {
    if (!(m >= 0.0)) {  // also rejects NaN
      return Status::InvalidArgument("topic distribution: negative mass");
    }
    sum += m;
  }
  if (std::fabs(sum - 1.0) > 1e-9) {
    return Status::InvalidArgument("topic distribution: mass does not sum to 1");
  }
  TopicDistribution d;
  d.mass_ = ArrayRef<double>::Borrowed(mass);
  return d;
}

TopicDistribution TopicDistribution::Concentrated(int num_topics, TopicId topic,
                                                  double peak) {
  TIRM_CHECK_GT(num_topics, 0);
  TIRM_CHECK(topic >= 0 && topic < num_topics);
  TIRM_CHECK(peak > 0.0 && peak <= 1.0);
  std::vector<double> mass(static_cast<std::size_t>(num_topics),
                           num_topics > 1 ? (1.0 - peak) / (num_topics - 1) : 0.0);
  mass[static_cast<std::size_t>(topic)] = peak;
  return TopicDistribution(std::move(mass));
}

TopicDistribution TopicDistribution::Uniform(int num_topics) {
  TIRM_CHECK_GT(num_topics, 0);
  return TopicDistribution(std::vector<double>(num_topics, 1.0));
}

TopicDistribution TopicDistribution::SampleDirichlet(int num_topics,
                                                     double alpha, Rng& rng) {
  TIRM_CHECK_GT(num_topics, 0);
  TIRM_CHECK_GT(alpha, 0.0);
  // Gamma(alpha) samples via Marsaglia-Tsang (alpha < 1 boost trick).
  auto sample_gamma = [&rng](double a) {
    double boost = 1.0;
    if (a < 1.0) {
      boost = std::pow(rng.NextDouble() + 1e-12, 1.0 / a);
      a += 1.0;
    }
    const double d = a - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
      double x = rng.Normal();
      double v = 1.0 + c * x;
      if (v <= 0.0) continue;
      v = v * v * v;
      double u = rng.NextDouble();
      if (u < 1.0 - 0.0331 * x * x * x * x) return boost * d * v;
      if (std::log(u + 1e-300) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
        return boost * d * v;
      }
    }
  };
  std::vector<double> mass(static_cast<std::size_t>(num_topics));
  for (double& m : mass) m = sample_gamma(alpha) + 1e-12;
  return TopicDistribution(std::move(mass));
}

double TopicDistribution::Mix(std::span<const float> per_topic_values) const {
  TIRM_DCHECK(per_topic_values.size() == mass_.size());
  double acc = 0.0;
  for (std::size_t z = 0; z < mass_.size(); ++z) {
    acc += mass_[z] * per_topic_values[z];
  }
  return acc;
}

double TopicDistribution::L1Distance(const TopicDistribution& other) const {
  TIRM_CHECK_EQ(num_topics(), other.num_topics());
  double d = 0.0;
  for (int z = 0; z < num_topics(); ++z) {
    d += std::fabs(Mass(z) - other.Mass(z));
  }
  return d;
}

}  // namespace tirm
