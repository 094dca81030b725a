// Topic distributions ~γ_i over the K latent topics (§3).
//
// Each ad i has a distribution γ_i with γ_i^z = Pr(Z = z | i), Σ_z γ_i^z = 1.
// The host owns a precomputed topic model (e.g. LDA); here distributions are
// either constructed explicitly or sampled (concentrated / uniform /
// Dirichlet), matching the paper's experimental setup where each ad has mass
// 0.91 on its own topic and 0.01 on the others.

#ifndef TIRM_TOPIC_TOPIC_DISTRIBUTION_H_
#define TIRM_TOPIC_TOPIC_DISTRIBUTION_H_

#include <span>
#include <vector>

#include "common/array_ref.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"

namespace tirm {

/// A normalized distribution over K latent topics. Storage is
/// ArrayRef-backed: explicit/sampled constructions own their mass array;
/// BorrowNormalized views already-normalized masses in place (an mmap'ed
/// bundle section), so loading an instance copies no distribution bytes.
class TopicDistribution {
 public:
  TopicDistribution() = default;

  /// Takes ownership of `mass`; normalizes it to sum 1 (sum must be > 0).
  explicit TopicDistribution(std::vector<double> mass);

  /// Borrows an ALREADY-NORMALIZED mass array in place (no copy, no
  /// re-normalization — bundle round-trips must reproduce the stored
  /// bytes exactly). The backing storage must outlive the object.
  /// InvalidArgument when empty, negative, or not summing to ~1.
  static Result<TopicDistribution> BorrowNormalized(
      std::span<const double> mass);

  /// Point mass `peak` on `topic`, remainder spread evenly over the others.
  /// The paper's quality experiments use peak = 0.91 with K = 10
  /// (0.01 on each other topic).
  static TopicDistribution Concentrated(int num_topics, TopicId topic,
                                        double peak);

  /// Uniform over all topics.
  static TopicDistribution Uniform(int num_topics);

  /// Symmetric Dirichlet(alpha) sample.
  static TopicDistribution SampleDirichlet(int num_topics, double alpha,
                                           Rng& rng);

  int num_topics() const { return static_cast<int>(mass_.size()); }
  double Mass(TopicId z) const {
    TIRM_DCHECK(z >= 0 && z < num_topics());
    return mass_[static_cast<std::size_t>(z)];
  }
  std::span<const double> mass() const { return mass_.span(); }

  /// Dot product with a per-topic value vector (Eq. 1 mixing weight).
  double Mix(std::span<const float> per_topic_values) const;

  /// L1 distance to another distribution (used to model topical closeness /
  /// competition between ads).
  double L1Distance(const TopicDistribution& other) const;

  /// True when the mass array is owned (false for bundle-borrowed storage).
  bool owns_storage() const { return mass_.owned(); }

 private:
  ArrayRef<double> mass_;
};

}  // namespace tirm

#endif  // TIRM_TOPIC_TOPIC_DISTRIBUTION_H_
