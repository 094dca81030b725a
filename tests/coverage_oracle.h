// Scalar coverage reference for the tests.
//
// The library's coverage views (RrCollection, WeightedRrCollection) recount
// nodes over the pool's CSR node -> set index and a covered-set bitmap.
// This header keeps the scalar implementation they are checked against.
// The oracles build their own node -> set lists from RrSetPool::SetMembers
// (ascending set ids) and answer the same queries:
//  * CoverageOracle keeps per-node marginal counters, decremented member by
//    member as commits cover sets — the same exact integers as RrCollection;
//  * WeightedCoverageOracle gathers survival weights over each node's list
//    in ascending set order — the same doubles, bit for bit, as
//    WeightedRrCollection (a dead set adds exactly 0.0).
// Also ExpectRowsMatch: each node's index ids against a member scatter of
// explicit sets.

#ifndef TIRM_TESTS_COVERAGE_ORACLE_H_
#define TIRM_TESTS_COVERAGE_ORACLE_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "rrset/coverage_bitmap.h"
#include "rrset/sample_store.h"

namespace tirm {

/// Expects the index ids of every node of `transpose` to equal a member
/// scatter of `sets`, where set s has id s: node v's ids are the ascending
/// s with v in sets[s].
inline void ExpectRowsMatch(const CoverageTranspose& transpose,
                            std::span<const std::vector<NodeId>> sets) {
  ASSERT_EQ(transpose.built_sets(), sets.size());
  std::vector<std::vector<std::uint32_t>> expected(transpose.num_nodes());
  for (std::size_t id = 0; id < sets.size(); ++id) {
    for (const NodeId v : sets[id]) {
      expected[v].push_back(static_cast<std::uint32_t>(id));
    }
  }
  const auto built = static_cast<std::uint32_t>(sets.size());
  for (NodeId v = 0; v < transpose.num_nodes(); ++v) {
    std::vector<std::uint32_t> ids;
    transpose.ForEachRun(v, 0, built, [&](std::span<const std::uint32_t> run) {
      ids.insert(ids.end(), run.begin(), run.end());
    });
    ASSERT_EQ(ids, expected[v]) << "node " << v;
  }
}

/// Unweighted scalar reference of RrCollection over a borrowed pool.
class CoverageOracle {
 public:
  explicit CoverageOracle(const RrSetPool* pool)
      : pool_(pool),
        lists_(pool->num_nodes()),
        coverage_(pool->num_nodes(), 0) {}

  void AttachUpTo(std::uint32_t count) {
    for (std::uint32_t id = attached_; id < count; ++id) {
      for (const NodeId v : pool_->SetMembers(id)) {
        lists_[v].push_back(id);
        ++coverage_[v];
      }
    }
    covered_.resize(count, 0);
    attached_ = count;
  }

  std::size_t NumCovered() const { return num_covered_; }
  std::uint32_t CoverageOf(NodeId v) const { return coverage_[v]; }
  bool IsCovered(std::uint32_t id) const { return covered_[id] != 0; }

  std::uint32_t CommitSeed(NodeId v) { return CommitSeedOnRange(v, 0); }

  std::uint32_t CommitSeedOnRange(NodeId v, std::uint32_t first_set) {
    std::uint32_t newly_covered = 0;
    for (const std::uint32_t id : lists_[v]) {
      if (id < first_set || covered_[id]) continue;
      covered_[id] = 1;
      ++newly_covered;
      ++num_covered_;
      for (const NodeId member : pool_->SetMembers(id)) --coverage_[member];
    }
    return newly_covered;
  }

  /// The covered words CommitSeedOnRange(v, first_set) would change, from
  /// a scatter of v's uncovered list ids >= first_set into dense words.
  CoveredWordDelta UncoveredWords(NodeId v, std::uint32_t first_set) const {
    std::vector<std::uint64_t> dense(CoverageWordsFor(attached_), 0);
    for (const std::uint32_t id : lists_[v]) {
      if (id < first_set || covered_[id]) continue;
      dense[id / kCoverageWordBits] |= std::uint64_t{1}
                                       << (id % kCoverageWordBits);
    }
    CoveredWordDelta delta;
    for (std::size_t w = 0; w < dense.size(); ++w) {
      if (dense[w] == 0) continue;
      delta.words.emplace_back(static_cast<std::uint32_t>(w), dense[w]);
      delta.newly_covered += static_cast<std::uint64_t>(std::popcount(dense[w]));
    }
    return delta;
  }

  /// First node of maximum positive coverage; kInvalidNode if none.
  NodeId ArgMaxCoverage() const {
    NodeId best = kInvalidNode;
    std::uint32_t best_cov = 0;
    for (NodeId v = 0; v < coverage_.size(); ++v) {
      if (coverage_[v] > best_cov) {
        best = v;
        best_cov = coverage_[v];
      }
    }
    return best;
  }

 private:
  const RrSetPool* pool_;
  std::vector<std::vector<std::uint32_t>> lists_;  // attached sets only
  std::vector<std::uint32_t> coverage_;            // per node, marginal
  std::vector<std::uint8_t> covered_;              // per attached set
  std::uint32_t attached_ = 0;
  std::size_t num_covered_ = 0;
};

/// Survival-weighted scalar reference of WeightedRrCollection.
class WeightedCoverageOracle {
 public:
  explicit WeightedCoverageOracle(const RrSetPool* pool)
      : pool_(pool), lists_(pool->num_nodes()) {}

  void AttachUpTo(std::uint32_t count) {
    for (std::uint32_t id = static_cast<std::uint32_t>(survival_.size());
         id < count; ++id) {
      for (const NodeId v : pool_->SetMembers(id)) lists_[v].push_back(id);
    }
    survival_.resize(count, 1.0f);
  }

  double Survival(std::uint32_t id) const { return survival_[id]; }
  double CoveredMass() const { return covered_mass_; }

  double CoverageOf(NodeId v) const {
    double cov = 0.0;
    for (const std::uint32_t id : lists_[v]) {
      cov += static_cast<double>(survival_[id]);
    }
    return cov;
  }

  double CommitSeed(NodeId v, double accept_prob) {
    return CommitSeedOnRange(v, accept_prob, 0);
  }

  double CommitSeedOnRange(NodeId v, double accept_prob,
                           std::uint32_t first_set) {
    double covered_before = 0.0;
    for (const std::uint32_t id : lists_[v]) {
      if (id < first_set) continue;
      const double s_old = survival_[id];
      if (s_old <= 0.0) continue;
      covered_before += s_old;
      const double s_new = s_old * (1.0 - accept_prob);
      const double delta = s_old - s_new;
      if (delta <= 0.0) continue;
      survival_[id] = static_cast<float>(s_new);
      covered_mass_ += delta;
    }
    return covered_before;
  }

  /// First node of maximum coverage above 1e-12; kInvalidNode if none.
  NodeId ArgMaxCoverage() const {
    NodeId best = kInvalidNode;
    double best_cov = 1e-12;
    for (NodeId v = 0; v < lists_.size(); ++v) {
      const double cov = CoverageOf(v);
      if (cov > best_cov) {
        best = v;
        best_cov = cov;
      }
    }
    return best;
  }

 private:
  const RrSetPool* pool_;
  std::vector<std::vector<std::uint32_t>> lists_;  // attached sets only
  std::vector<float> survival_;                    // per attached set
  double covered_mass_ = 0.0;
};

}  // namespace tirm

#endif  // TIRM_TESTS_COVERAGE_ORACLE_H_
