#include "rrset/rr_sampler.h"

#include <algorithm>

namespace tirm {

namespace {
constexpr std::size_t kMinReserve = 16;
}  // namespace

RrSampler::RrSampler(const Graph& graph, std::span<const float> edge_probs)
    : graph_(graph), edge_probs_(edge_probs), mode_(Mode::kPlain) {
  TIRM_CHECK_EQ(edge_probs_.size(), graph_.num_edges());
  visited_.assign(graph_.num_nodes(), 0);
}

RrSampler::RrSampler(const Graph& graph, std::span<const float> edge_probs,
                     std::span<const float> node_ctps)
    : graph_(graph),
      edge_probs_(edge_probs),
      mode_(Mode::kWithCtp),
      node_ctps_(node_ctps) {
  TIRM_CHECK_EQ(edge_probs_.size(), graph_.num_edges());
  TIRM_CHECK_EQ(node_ctps_.size(), graph_.num_nodes());
  visited_.assign(graph_.num_nodes(), 0);
}

NodeId RrSampler::SampleInto(Rng& rng, std::vector<NodeId>& out) {
  const NodeId root = static_cast<NodeId>(rng.UniformBelow(graph_.num_nodes()));
  SampleWithRoot(root, rng, out);
  return root;
}

void RrSampler::SampleWithRoot(NodeId root, Rng& rng,
                               std::vector<NodeId>& out) {
  TIRM_CHECK_LT(root, graph_.num_nodes());
  // Size reservations from the previous traversal: RR-set sizes are heavily
  // autocorrelated within one instance, so the last traversal is a better
  // hint than any fixed constant (reserve is a no-op once capacity caught
  // up, and warm scratch vectors keep their capacity across calls anyway).
  const std::size_t hint =
      std::max<std::size_t>(static_cast<std::size_t>(last_traversal_),
                            kMinReserve);
  out.clear();
  if (out.capacity() < hint) out.reserve(hint);
  if (++epoch_ == 0) {
    std::fill(visited_.begin(), visited_.end(), 0);
    epoch_ = 1;
  }
  queue_.clear();
  if (queue_.capacity() < hint) queue_.reserve(hint);
  last_width_ = 0;

  // Visit the root: it always enters the traversal; membership in the RRC
  // set additionally requires the node-level CTP coin (§5.2: "for the root w
  // itself, the node test should also be performed using its CTP").
  visited_[root] = epoch_;
  queue_.push_back(root);
  if (mode_ == Mode::kPlain ||
      rng.Bernoulli(static_cast<double>(node_ctps_[root]))) {
    out.push_back(root);
  }

  std::size_t head = 0;
  while (head < queue_.size()) {
    const NodeId u = queue_[head++];
    last_width_ += graph_.InDegree(u);
    const auto sources = graph_.InNeighbors(u);
    const auto edge_ids = graph_.InEdgeIds(u);
    for (std::size_t j = 0; j < sources.size(); ++j) {
      const NodeId v = sources[j];
      if (visited_[v] == epoch_) continue;
      const float p = edge_probs_[edge_ids[j]];
      if (p <= 0.0f || rng.NextFloat() >= p) continue;  // edge blocked
      visited_[v] = epoch_;
      queue_.push_back(v);
      if (mode_ == Mode::kPlain ||
          rng.Bernoulli(static_cast<double>(node_ctps_[v]))) {
        out.push_back(v);  // node live: valid seed candidate
      }
      // Node blocked in kWithCtp mode: still traversed (enqueued above) so
      // its own in-neighbors can be discovered as valid seeds.
    }
  }
  last_traversal_ = queue_.size();
}

}  // namespace tirm
