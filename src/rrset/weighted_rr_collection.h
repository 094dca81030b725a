// CTP-aware (survival-weighted) RR-set coverage — an extension over the
// paper's Algorithm 2.
//
// Algorithm 2 removes an RR set once any committed seed covers it, which
// implicitly assumes committed seeds are active with probability 1. With
// realistic CTPs (δ ≈ 1-3%) a committed seed only activates the set's root
// with probability δ, so removal *underestimates* later seeds' marginals
// and the allocation overshoots budgets (visible in the paper's own Fig. 5a
// on FLIXSTER).
//
// Here each set R carries a survival weight
//     survival(R) = Π_{w ∈ S ∩ R} (1 − δ(w)),
// the exact probability that R's root has not been activated by the
// committed seeds S (node-level CTP coins are independent). The weighted
// coverage Σ_{R ∋ u} survival(R) then yields an unbiased estimate of the
// *true* TIC-CTP marginal of u:
//     Π_i(S ∪ {u}) − Π_i(S) = cpe·δ(u)·n·E[1{u ∈ R}·survival(R)].
// Committing with δ = 1 reproduces the paper's removal semantics exactly.
//
// Like RrCollection, this is a mutable coverage *view*: the flattened sets
// and their CSR node -> set index are borrowed from an RrSetPool
// (rrset/sample_store.h) — shared with every other consumer of the same
// samples — while survival weights are per-view state. The view walks its
// own copy of the index's segment list without a lock, so it may run while
// other threads top the pool up or extend its index. Marginal coverage is
// a deterministic *gather* of survival over v's index row, in ascending
// set order (rrset/coverage_bitmap.h) — the order of the scalar reference
// in tests/coverage_oracle.h, so the doubles match it bit for bit. A dead
// set contributes exactly 0.0 to the sum. Commits discount survival in
// place — no per-node scatter — so commit cost is O(sets containing v).

#ifndef TIRM_RRSET_WEIGHTED_RR_COLLECTION_H_
#define TIRM_RRSET_WEIGHTED_RR_COLLECTION_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "rrset/coverage_bitmap.h"
#include "rrset/sample_store.h"

namespace tirm {

/// Survival-weighted coverage view over a borrowed RrSetPool.
class WeightedRrCollection {
 public:
  /// Borrows `pool` (not owned; must outlive the view). Starts with zero
  /// attached sets — call AttachUpTo() to expose a pool prefix.
  explicit WeightedRrCollection(const RrSetPool* pool);

  /// Exposes pool sets [NumSets(), count) with survival 1.
  void AttachUpTo(std::uint32_t count);

  std::size_t NumSets() const { return attached_; }
  NodeId num_nodes() const { return num_nodes_; }

  /// Weighted (marginal) coverage of `v`: Σ survival over attached sets
  /// containing v, gathered fresh in ascending set order (see file
  /// comment).
  double CoverageOf(NodeId v) const;

  /// Survival weight of attached set `id`.
  double Survival(std::uint32_t id) const {
    TIRM_DCHECK(id < attached_);
    return survival_[id];
  }

  /// Commits seed `v` with acceptance probability `accept_prob` = δ(v):
  /// discounts every set containing v by (1 − δ) and returns v's weighted
  /// coverage *before* the discount (its marginal-coverage mass).
  double CommitSeed(NodeId v, double accept_prob);

  /// Same, restricted to sets with id >= `first_set` (UpdateEstimates for
  /// freshly attached sets; attribution in original selection order).
  double CommitSeedOnRange(NodeId v, double accept_prob,
                           std::uint32_t first_set);

  /// Σ (1 − survival) over attached sets — the δ-discounted covered mass;
  /// n times its mean estimates σ_i(S) (a valid, conservative OPT_s lower
  /// bound).
  double CoveredMass() const { return covered_mass_; }

  /// Node with maximum weighted coverage among eligible ones (linear scan
  /// reference; the TIRM hot path uses WeightedCoverageHeap below).
  /// kInvalidNode if every eligible coverage is ~0.
  template <typename Eligible>
  NodeId ArgMaxCoverage(Eligible eligible) const {
    NodeId best = kInvalidNode;
    double best_cov = 1e-12;
    for (NodeId v = 0; v < num_nodes_; ++v) {
      const double cov = CoverageOf(v);
      if (cov > best_cov && eligible(v)) {
        best = v;
        best_cov = cov;
      }
    }
    return best;
  }

  /// Fills `cov[v]` with CoverageOf(v) for every node (one walk over the
  /// whole index). Used by WeightedCoverageHeap::Rebuild.
  void AccumulateCoverage(std::vector<double>& cov) const;

  /// Bytes held by this view's bookkeeping — the survival weights. The
  /// pool (including its shared index) is accounted once via
  /// pool()->MemoryBytes().
  std::size_t MemoryBytes() const;

  const RrSetPool* pool() const { return pool_; }

 private:
  const RrSetPool* pool_;
  NodeId num_nodes_ = 0;
  std::uint32_t attached_ = 0;
  double covered_mass_ = 0.0;
  std::vector<float> survival_;  // per attached set
  // See rr_collection.h: this view's own segment list; walks stop at
  // attached_.
  CoverageTranspose transpose_;
};

/// CELF-style lazy max-heap over weighted coverages, mirroring
/// CoverageHeap: valid while coverages only decrease (commits discount,
/// never raise); call Rebuild() after an AttachUpTo batch. Replaces
/// the per-seed linear scan the weighted TIRM path used to pay.
class WeightedCoverageHeap {
 public:
  explicit WeightedCoverageHeap(const WeightedRrCollection* collection)
      : collection_(collection) {
    Rebuild();
  }

  /// Re-inserts every node with coverage above the zero threshold.
  void Rebuild();

  /// Pops the node with maximum *current* weighted coverage among eligible
  /// ones; stale entries are lazily refreshed (the stored value must match
  /// the live one bit-for-bit to be trusted — any drift re-queues).
  /// Ties break toward the smaller node id, matching ArgMaxCoverage's
  /// first-maximum semantics. Returns kInvalidNode when no eligible node
  /// with positive coverage remains; ineligible nodes are dropped
  /// permanently (attention bounds only tighten).
  template <typename Eligible>
  NodeId PopBest(Eligible eligible) {
    while (!heap_.empty()) {
      const Entry top = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.pop_back();
      const double current = collection_->CoverageOf(top.node);
      if (current <= kZero) continue;
      if (current != top.coverage) {
        Push(top.node, current);  // stale: refresh and retry
        continue;
      }
      if (!eligible(top.node)) continue;  // permanently ineligible
      return top.node;
    }
    return kInvalidNode;
  }

  /// Re-inserts a node (e.g. after PopBest when the caller did not commit).
  void Push(NodeId node, double coverage);

 private:
  // Matches ArgMaxCoverage's "> 1e-12" positivity threshold.
  static constexpr double kZero = 1e-12;

  struct Entry {
    double coverage;
    NodeId node;
    bool operator<(const Entry& o) const {
      if (coverage != o.coverage) return coverage < o.coverage;
      return node > o.node;  // smaller node id wins exact ties
    }
  };

  const WeightedRrCollection* collection_;
  std::vector<Entry> heap_;
};

}  // namespace tirm

#endif  // TIRM_RRSET_WEIGHTED_RR_COLLECTION_H_
