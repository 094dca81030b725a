#include "rrset/weighted_rr_collection.h"

#include <bit>

namespace tirm {

WeightedRrCollection::WeightedRrCollection(const RrSetPool* pool)
    : pool_(pool), num_nodes_(pool != nullptr ? pool->num_nodes() : 0) {
  TIRM_CHECK(pool_ != nullptr);
}

void WeightedRrCollection::AttachUpTo(std::uint32_t count) {
  TIRM_CHECK_LE(count, pool_->NumSets());
  TIRM_CHECK_GE(count, attached_);
  if (count == attached_) return;
  survival_.resize(count, 1.0f);
  transpose_ = &pool_->EnsureTranspose(count);
  dead_words_.resize(CoverageWordsFor(count), 0);
  attached_ = count;
}

double WeightedRrCollection::CoverageOf(NodeId v) const {
  TIRM_DCHECK(v < num_nodes_);
  if (attached_ == 0) return 0.0;
  const std::uint64_t* row = transpose_->Row(v);
  const std::uint64_t* dead = dead_words_.data();
  const std::size_t words = CoverageWordsFor(attached_);
  const std::uint64_t tail_mask = CoverageTailMask(attached_);
  double cov = 0.0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t lanes = row[w] & ~dead[w];
    if (w == words - 1) lanes &= tail_mask;
    while (lanes != 0) {
      const int bit = std::countr_zero(lanes);
      lanes &= lanes - 1;
      cov += static_cast<double>(
          survival_[w * kCoverageWordBits + static_cast<std::size_t>(bit)]);
    }
  }
  return cov;
}

double WeightedRrCollection::CommitSeed(NodeId v, double accept_prob) {
  return CommitSeedOnRange(v, accept_prob, 0);
}

double WeightedRrCollection::CommitSeedOnRange(NodeId v, double accept_prob,
                                               std::uint32_t first_set) {
  TIRM_CHECK_LT(v, num_nodes_);
  TIRM_CHECK(accept_prob >= 0.0 && accept_prob <= 1.0);
  if (first_set >= attached_) return 0.0;
  const std::uint64_t* row = transpose_->Row(v);
  std::uint64_t* dead = dead_words_.data();
  const std::size_t words = CoverageWordsFor(attached_);
  double covered_before = 0.0;
  for (std::size_t w = first_set / kCoverageWordBits; w < words; ++w) {
    std::uint64_t lanes =
        row[w] & ~dead[w] & CoverageLaneMask(w, first_set, attached_);
    while (lanes != 0) {
      const int bit = std::countr_zero(lanes);
      lanes &= lanes - 1;
      const std::size_t id =
          w * kCoverageWordBits + static_cast<std::size_t>(bit);
      const double s_old = survival_[id];
      if (s_old <= 0.0) continue;  // underflowed-to-zero but unmarked lane
      covered_before += s_old;
      const double s_new = s_old * (1.0 - accept_prob);
      const double delta = s_old - s_new;
      if (delta <= 0.0) continue;
      const float stored = static_cast<float>(s_new);
      survival_[id] = stored;
      covered_mass_ += delta;
      if (stored == 0.0f) {
        dead[w] |= std::uint64_t{1} << (id % kCoverageWordBits);
      }
    }
  }
  return covered_before;
}

void WeightedRrCollection::AccumulateCoverage(std::vector<double>& cov) const {
  cov.assign(num_nodes_, 0.0);
  for (std::uint32_t id = 0; id < attached_; ++id) {
    const double s = survival_[id];
    if (s <= 0.0) continue;  // dead sets add exactly 0.0 in the gather too
    for (const NodeId member : pool_->SetMembers(id)) cov[member] += s;
  }
}

std::size_t WeightedRrCollection::MemoryBytes() const {
  return survival_.capacity() * sizeof(float) +
         dead_words_.capacity() * sizeof(std::uint64_t);
}

void WeightedCoverageHeap::Rebuild() {
  heap_.clear();
  std::vector<double> cov;
  collection_->AccumulateCoverage(cov);
  for (NodeId v = 0; v < collection_->num_nodes(); ++v) {
    if (cov[v] > kZero) heap_.push_back({cov[v], v});
  }
  std::make_heap(heap_.begin(), heap_.end());
}

void WeightedCoverageHeap::Push(NodeId node, double coverage) {
  heap_.push_back({coverage, node});
  std::push_heap(heap_.begin(), heap_.end());
}

}  // namespace tirm
