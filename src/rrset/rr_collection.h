// Coverage views over pooled RR sets.
//
// The greedy Max-Cover step of TIM / TIRM repeatedly needs
//   argmax_v |{R in collection : v in R, R not yet covered}|
// and, after committing a seed v, must mark every set containing v as
// covered. RrCollection is the *mutable* half of that split: per-view
// covered state over an immutable set arena living in an RrSetPool
// (rrset/sample_store.h) that the view only borrows, so any number of
// greedy runs, allocators, and sweep points share one physical copy of the
// samples. A view exposes a prefix of its pool: AttachUpTo() advances the
// watermark as TIRM's θ grows (Algorithm 2 lines 14-18), and
// CommitSeedOnRange() lets existing seeds absorb freshly attached sets in
// selection order (UpdateEstimates, Algorithm 4).
//
// The view reads membership from the pool's lazily built CSR node -> set
// index (rrset/coverage_bitmap.h) and keeps covered state as a bitmap, one
// bit per attached set: a recount counts the uncovered ids of a node's
// row, a commit sets their bits. AttachUpTo takes the view's own list of
// the index segments from the pool; every other call walks that list
// without a lock, and may run while other threads top the same pool up or
// extend its index. tests/coverage_oracle.h keeps a counter-decrement
// reference that the tests check it against.

#ifndef TIRM_RRSET_RR_COLLECTION_H_
#define TIRM_RRSET_RR_COLLECTION_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "rrset/coverage_bitmap.h"
#include "rrset/sample_store.h"

namespace tirm {

/// Mutable coverage view over a borrowed RrSetPool.
class RrCollection {
 public:
  /// Borrows `pool` (not owned; must outlive the view). Starts with zero
  /// attached sets — call AttachUpTo() to expose a pool prefix.
  explicit RrCollection(const RrSetPool* pool);

  /// Exposes pool sets [NumSets(), count) to this view, adding their
  /// members' coverage. `count` must not exceed pool()->NumSets() and
  /// never shrinks the view.
  void AttachUpTo(std::uint32_t count);

  /// Number of sets attached to this view (covered ones included).
  std::size_t NumSets() const { return attached_; }

  /// Number of nodes this view indexes.
  NodeId num_nodes() const { return num_nodes_; }

  /// Number of attached sets currently covered by committed seeds.
  std::size_t NumCovered() const { return num_covered_; }

  /// Current (marginal) coverage of `v`: #uncovered attached sets
  /// containing v, counted over v's index row.
  std::uint32_t CoverageOf(NodeId v) const;

  /// Marks every uncovered attached set containing `v` as covered; returns
  /// how many sets were newly covered (v's marginal coverage before).
  std::uint32_t CommitSeed(NodeId v);

  /// Marks attached sets with id >= `first_set` containing `v` as covered,
  /// returning the count — used by UpdateEstimates to attribute freshly
  /// attached sets to already-committed seeds in selection order.
  std::uint32_t CommitSeedOnRange(NodeId v, std::uint32_t first_set);

  bool IsCovered(std::uint32_t id) const {
    TIRM_DCHECK(id < attached_);
    return (covered_bits_[id / kCoverageWordBits] >>
            (id % kCoverageWordBits)) &
           1u;
  }

  /// Node with maximum current coverage among those for which
  /// `eligible(v)` is true; kInvalidNode if none has coverage > 0.
  /// Linear scan fallback (tests / small instances); the greedy algorithms
  /// use CoverageHeap (below) instead.
  template <typename Eligible>
  NodeId ArgMaxCoverage(Eligible eligible) const {
    NodeId best = kInvalidNode;
    std::uint32_t best_cov = 0;
    for (NodeId v = 0; v < num_nodes_; ++v) {
      if (CoverageOf(v) > best_cov && eligible(v)) {
        best = v;
        best_cov = CoverageOf(v);
      }
    }
    return best;
  }

  /// Fills `counts[v]` with CoverageOf(v) for every node — one walk over
  /// the whole index, which reads each id once and, unlike a pass over the
  /// sets, has no per-set loop to mispredict. Used by CoverageHeap::Rebuild.
  void AccumulateCoverage(std::vector<std::uint32_t>& counts) const;

  /// Bytes held by this view's bookkeeping (the covered bitmap words). The
  /// pool (including its shared index) is accounted once via
  /// pool()->MemoryBytes().
  std::size_t MemoryBytes() const;

  /// The pool this view reads.
  const RrSetPool* pool() const { return pool_; }

 private:
  const RrSetPool* pool_;
  NodeId num_nodes_ = 0;
  std::uint32_t attached_ = 0;
  std::size_t num_covered_ = 0;

  // This view's copy of the pool's index segments covering its prefix. A
  // listed segment may run past attached_ (another view extended the
  // index), so every walk stops at attached_.
  CoverageTranspose transpose_;
  std::vector<std::uint64_t> covered_bits_;  // one bit per attached set
};

/// Lazy max-heap over node coverages (CELF-style). Valid while coverage
/// values only decrease; call Rebuild() after an AttachUpTo batch.
class CoverageHeap {
 public:
  explicit CoverageHeap(const RrCollection* collection)
      : collection_(collection) {
    Rebuild();
  }

  /// Re-inserts every node with positive coverage (after attach batches).
  void Rebuild();

  /// Pops the node with maximum *current* coverage among eligible ones;
  /// stale entries are lazily refreshed. Ties break toward the smaller
  /// node id, matching ArgMaxCoverage's first-maximum semantics (and
  /// WeightedCoverageHeap), so equal-coverage pops are deterministic.
  /// Returns kInvalidNode when no eligible node with positive coverage
  /// remains. Nodes rejected by `eligible` are dropped permanently
  /// (correct for attention bounds, which only ever tighten).
  template <typename Eligible>
  NodeId PopBest(Eligible eligible) {
    while (!heap_.empty()) {
      const Entry top = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.pop_back();
      const std::uint32_t current = collection_->CoverageOf(top.node);
      if (current == 0) continue;
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
  void Push(NodeId node, std::uint32_t coverage);

 private:
  struct Entry {
    std::uint32_t coverage;
    NodeId node;
    bool operator<(const Entry& o) const {
      if (coverage != o.coverage) return coverage < o.coverage;
      return node > o.node;  // smaller node id wins exact ties
    }
  };

  const RrCollection* collection_;
  std::vector<Entry> heap_;
};

}  // namespace tirm

#endif  // TIRM_RRSET_RR_COLLECTION_H_
