// Random reverse-reachable (RR / RRC) set sampling (§5.1–5.2).
//
// A random RR set is generated by (conceptually) sampling a possible world
// and collecting everything that can reach a uniformly random root. The
// efficient implementation performs a reverse BFS from the root, flipping
// each in-edge's coin on first touch.
//
// Two modes (§5.2):
//  * kPlain (RR sets): every reached node joins the set; CTPs are applied
//    later by scaling marginal gains with δ(u,i) (Theorem 5).
//  * kWithCtp (RRC sets): after an edge-coin success, a node-level coin with
//    probability δ(v) decides whether v is "live" (joins the set). Blocked
//    nodes do NOT join but the BFS still continues through them, since their
//    in-neighbors can be valid seeds. The root itself also takes a node coin
//    for membership but is always expanded.
//
// One traversal: one Bernoulli coin per in-edge touched, drawn directly
// from the caller's Rng. Its stream consumption is part of the repo-wide
// bit-identical determinism contract (the PinnedGoldenTest constants in
// tests/sample_store_test.cc) and must not change.

#ifndef TIRM_RRSET_RR_SAMPLER_H_
#define TIRM_RRSET_RR_SAMPLER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"

namespace tirm {

/// Reusable RR-set generator for one graph + edge-probability array.
/// Not thread-safe; create one per thread.
class RrSampler {
 public:
  enum class Mode { kPlain, kWithCtp };

  /// Plain RR-set sampler.
  explicit RrSampler(const Graph& graph, std::span<const float> edge_probs);

  /// RRC-set sampler with node-level CTP coin flips; `node_ctps[v]` = δ(v),
  /// one float per node (ClickProbabilities::Row(ad) has exactly this
  /// shape). A flat array rather than a callback keeps the per-traversed-
  /// node coin flip a single indexed load in the hot reverse-BFS loop.
  /// The array must outlive the sampler.
  RrSampler(const Graph& graph, std::span<const float> edge_probs,
            std::span<const float> node_ctps);

  /// Samples one RR/RRC set rooted at a uniform node into `out`
  /// (cleared first). Returns the root.
  NodeId SampleInto(Rng& rng, std::vector<NodeId>& out);

  /// Samples one set with a fixed root (tests / width estimation).
  void SampleWithRoot(NodeId root, Rng& rng, std::vector<NodeId>& out);

  /// Sum of in-degrees of the nodes of the last sampled *traversal*
  /// (the TIM "width" w(R) used by KPT estimation). For RRC sets the width
  /// counts traversed nodes regardless of node-coin outcomes.
  std::uint64_t last_width() const { return last_width_; }

  /// Nodes visited by the last traversal (>= the emitted set size in
  /// kWithCtp mode). Also used to size the next traversal's reservations.
  std::uint64_t last_traversal() const { return last_traversal_; }

  Mode mode() const { return mode_; }

  const Graph& graph() const { return graph_; }

 private:
  const Graph& graph_;
  std::span<const float> edge_probs_;
  Mode mode_;
  std::span<const float> node_ctps_;  // per-node δ; empty in kPlain mode

  std::vector<std::uint32_t> visited_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> queue_;
  std::uint64_t last_width_ = 0;
  std::uint64_t last_traversal_ = 0;
};

}  // namespace tirm

#endif  // TIRM_RRSET_RR_SAMPLER_H_
