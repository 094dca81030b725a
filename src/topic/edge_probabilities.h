// Per-edge, per-topic influence probabilities p^z_{u,v} and Eq. 1 mixing.
//
// Under the TIC model (§3), the probability that a click by u on ad i
// influences follower v is the topic mixture
//     p^i_{u,v} = Σ_z γ_i^z · p^z_{u,v}                      (Eq. 1)
//
// Two storage modes:
//   * kPerTopic — K floats per edge (FLIXSTER/EPINIONS-style instances);
//   * kShared   — one float per edge used for every topic (topic-blind
//     models such as Weighted Cascade used in the scalability experiments);
//     mixing is then the identity and ads can share one probability array.
//
// Storage is ArrayRef-backed: the generator factories own their arrays;
// FromBorrowed views a probability matrix in place (an mmap'ed bundle
// section) with zero copies. Borrowed storage is immutable — SetProb
// requires an owned matrix.

#ifndef TIRM_TOPIC_EDGE_PROBABILITIES_H_
#define TIRM_TOPIC_EDGE_PROBABILITIES_H_

#include <span>
#include <vector>

#include "common/array_ref.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "topic/topic_distribution.h"

namespace tirm {

/// Container of influence probabilities for every edge and topic.
class EdgeProbabilities {
 public:
  enum class Mode { kPerTopic, kShared };

  /// Per-topic storage initialized to zero.
  static EdgeProbabilities ZeroPerTopic(const Graph& graph, int num_topics);

  /// Per-topic probabilities sampled i.i.d. Exponential(rate), clipped to
  /// [0, 1] — the paper's EPINIONS recipe ("exponential distribution with
  /// mean 30" interpreted as rate 30, i.e. mean 1/30; probabilities must lie
  /// in [0,1]).
  static EdgeProbabilities SampleExponential(const Graph& graph, int num_topics,
                                             double rate, Rng& rng);

  /// Weighted Cascade (topic-blind, shared): p_{u,v} = 1 / in-degree(v).
  static EdgeProbabilities WeightedCascade(const Graph& graph);

  /// Trivalency (topic-blind, shared): each edge draws uniformly from
  /// {0.1, 0.01, 0.001} (Chen et al.'s TRIVALENCY benchmark model).
  static EdgeProbabilities Trivalency(const Graph& graph, Rng& rng);

  /// Constant probability p on every edge and topic (shared storage).
  static EdgeProbabilities Constant(const Graph& graph, double p);

  /// Shared storage from an explicit per-edge array (size = num_edges).
  static EdgeProbabilities FromShared(const Graph& graph,
                                      std::vector<float> probs);

  /// Borrows `probs` in place (no copy): kShared expects num_edges floats,
  /// kPerTopic num_edges * num_topics in edge-major order. The backing
  /// storage (e.g. a MappedFile) must outlive the object. Returns
  /// InvalidArgument on a size mismatch instead of aborting — this is the
  /// trust boundary for file-loaded matrices.
  static Result<EdgeProbabilities> FromBorrowed(Mode mode, int num_topics,
                                                std::size_t num_edges,
                                                std::span<const float> probs);

  Mode mode() const { return mode_; }
  int num_topics() const { return num_topics_; }
  std::size_t num_edges() const { return num_edges_; }

  /// Probability of edge `e` under topic `z`.
  float Prob(EdgeId e, TopicId z) const {
    TIRM_DCHECK(e < num_edges_);
    if (mode_ == Mode::kShared) return probs_[e];
    return probs_[static_cast<std::size_t>(e) * num_topics_ + z];
  }

  /// Mutable access (per-topic mode only).
  void SetProb(EdgeId e, TopicId z, float p);

  /// The per-topic block of edge `e` (per-topic mode only).
  std::span<const float> TopicBlock(EdgeId e) const {
    TIRM_DCHECK(mode_ == Mode::kPerTopic);
    return {probs_.data() + static_cast<std::size_t>(e) * num_topics_,
            static_cast<std::size_t>(num_topics_)};
  }

  /// Mixes per Eq. 1 into a dense per-edge array for ad distribution
  /// `gamma`. In kShared mode this returns a copy of the shared array
  /// regardless of `gamma`.
  std::vector<float> MixForAd(const TopicDistribution& gamma) const;

  /// Single-edge mix (Eq. 1) without materializing.
  float MixEdge(EdgeId e, const TopicDistribution& gamma) const;

  /// The whole probability matrix (kPerTopic: edge-major [e*K+z]; kShared:
  /// [e]) — for serialization. Valid while the object (and, if borrowed,
  /// its backing mapping) lives.
  std::span<const float> raw() const { return probs_.span(); }

  /// True when the matrix is owned (false for bundle-borrowed storage).
  bool owns_storage() const { return probs_.owned(); }

  /// Approximate heap footprint in bytes (0 when borrowed — the mapping's
  /// bytes are accounted by its owner).
  std::size_t MemoryBytes() const { return probs_.MemoryBytes(); }

 private:
  EdgeProbabilities(Mode mode, int num_topics, std::size_t num_edges)
      : mode_(mode), num_topics_(num_topics), num_edges_(num_edges) {}

  Mode mode_ = Mode::kShared;
  int num_topics_ = 1;
  std::size_t num_edges_ = 0;
  // kPerTopic: edge-major [e * K + z]; kShared: [e].
  ArrayRef<float> probs_;
};

}  // namespace tirm

#endif  // TIRM_TOPIC_EDGE_PROBABILITIES_H_
