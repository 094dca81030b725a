#include "topic/edge_probabilities.h"

#include <algorithm>

namespace tirm {

EdgeProbabilities EdgeProbabilities::ZeroPerTopic(const Graph& graph,
                                                  int num_topics) {
  TIRM_CHECK_GT(num_topics, 0);
  EdgeProbabilities ep(Mode::kPerTopic, num_topics, graph.num_edges());
  ep.probs_ = ArrayRef<float>::Owned(std::vector<float>(
      graph.num_edges() * static_cast<std::size_t>(num_topics), 0.0f));
  return ep;
}

EdgeProbabilities EdgeProbabilities::SampleExponential(const Graph& graph,
                                                       int num_topics,
                                                       double rate, Rng& rng) {
  EdgeProbabilities ep = ZeroPerTopic(graph, num_topics);
  for (float& p : ep.probs_.MutableVec()) {
    p = static_cast<float>(std::min(1.0, rng.Exponential(rate)));
  }
  return ep;
}

EdgeProbabilities EdgeProbabilities::WeightedCascade(const Graph& graph) {
  EdgeProbabilities ep(Mode::kShared, 1, graph.num_edges());
  std::vector<float> probs(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const std::size_t indeg = graph.InDegree(graph.edge_target(e));
    probs[e] = indeg > 0 ? 1.0f / static_cast<float>(indeg) : 0.0f;
  }
  ep.probs_ = ArrayRef<float>::Owned(std::move(probs));
  return ep;
}

EdgeProbabilities EdgeProbabilities::Trivalency(const Graph& graph, Rng& rng) {
  static constexpr float kLevels[3] = {0.1f, 0.01f, 0.001f};
  EdgeProbabilities ep(Mode::kShared, 1, graph.num_edges());
  std::vector<float> probs(graph.num_edges());
  for (float& p : probs) p = kLevels[rng.UniformBelow(3)];
  ep.probs_ = ArrayRef<float>::Owned(std::move(probs));
  return ep;
}

EdgeProbabilities EdgeProbabilities::Constant(const Graph& graph, double p) {
  TIRM_CHECK(p >= 0.0 && p <= 1.0);
  EdgeProbabilities ep(Mode::kShared, 1, graph.num_edges());
  ep.probs_ = ArrayRef<float>::Owned(
      std::vector<float>(graph.num_edges(), static_cast<float>(p)));
  return ep;
}

EdgeProbabilities EdgeProbabilities::FromShared(const Graph& graph,
                                                std::vector<float> probs) {
  TIRM_CHECK_EQ(probs.size(), graph.num_edges());
  EdgeProbabilities ep(Mode::kShared, 1, graph.num_edges());
  ep.probs_ = ArrayRef<float>::Owned(std::move(probs));
  return ep;
}

Result<EdgeProbabilities> EdgeProbabilities::FromBorrowed(
    Mode mode, int num_topics, std::size_t num_edges,
    std::span<const float> probs) {
  if (num_topics <= 0) {
    return Status::InvalidArgument("edge probabilities: topic count <= 0");
  }
  const std::size_t expected =
      mode == Mode::kShared
          ? num_edges
          : num_edges * static_cast<std::size_t>(num_topics);
  if (probs.size() != expected) {
    return Status::InvalidArgument(
        "edge probabilities: matrix size mismatches edge/topic counts");
  }
  EdgeProbabilities ep(mode, mode == Mode::kShared ? 1 : num_topics,
                       num_edges);
  ep.probs_ = ArrayRef<float>::Borrowed(probs);
  return ep;
}

void EdgeProbabilities::SetProb(EdgeId e, TopicId z, float p) {
  TIRM_CHECK(mode_ == Mode::kPerTopic);
  TIRM_CHECK(e < num_edges_);
  TIRM_CHECK(z >= 0 && z < num_topics_);
  TIRM_CHECK(p >= 0.0f && p <= 1.0f);
  probs_.MutableVec()[static_cast<std::size_t>(e) * num_topics_ + z] = p;
}

std::vector<float> EdgeProbabilities::MixForAd(
    const TopicDistribution& gamma) const {
  std::vector<float> mixed(num_edges_);
  if (mode_ == Mode::kShared) {
    std::copy(probs_.begin(), probs_.end(), mixed.begin());
    return mixed;
  }
  TIRM_CHECK_EQ(gamma.num_topics(), num_topics_);
  for (std::size_t e = 0; e < num_edges_; ++e) {
    double acc = 0.0;
    const float* block = probs_.data() + e * num_topics_;
    for (int z = 0; z < num_topics_; ++z) acc += gamma.Mass(z) * block[z];
    mixed[e] = static_cast<float>(acc);
  }
  return mixed;
}

float EdgeProbabilities::MixEdge(EdgeId e, const TopicDistribution& gamma) const {
  if (mode_ == Mode::kShared) return probs_[e];
  return static_cast<float>(gamma.Mix(TopicBlock(e)));
}

}  // namespace tirm
