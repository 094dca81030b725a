#include "rrset/rr_collection.h"

#include <algorithm>
#include <bit>

namespace tirm {

RrCollection::RrCollection(const RrSetPool* pool)
    : pool_(pool), num_nodes_(pool != nullptr ? pool->num_nodes() : 0) {
  TIRM_CHECK(pool_ != nullptr);
}

void RrCollection::AttachUpTo(std::uint32_t count) {
  TIRM_CHECK_LE(count, pool_->NumSets());
  TIRM_CHECK_GE(count, attached_);
  if (count == attached_) return;
  transpose_ = &pool_->EnsureTranspose(count);
  covered_words_.resize(CoverageWordsFor(count), 0);
  attached_ = count;
}

std::uint32_t RrCollection::CommitSeed(NodeId v) {
  return CommitSeedOnRange(v, 0);
}

std::uint32_t RrCollection::CoverageOf(NodeId v) const {
  TIRM_DCHECK(v < num_nodes_);
  if (attached_ == 0) return 0;
  const std::uint64_t* row = transpose_->Row(v);
  const std::uint64_t* cov = covered_words_.data();
  const std::size_t words = CoverageWordsFor(attached_);
  const std::uint64_t tail_mask = CoverageTailMask(attached_);
  // Row lanes at or beyond attached_ may be set (the shared transpose can be
  // built further by another view), so a partial last word is masked.
  const std::size_t bulk = tail_mask == ~std::uint64_t{0} ? words : words - 1;
  std::uint64_t count = 0;
  if (bulk > 0) count = ActiveCoverageOps().andnot_popcount(row, cov, bulk);
  if (bulk < words) {
    count += static_cast<std::uint64_t>(
        std::popcount(row[words - 1] & ~cov[words - 1] & tail_mask));
  }
  return static_cast<std::uint32_t>(count);
}

std::uint32_t RrCollection::CommitSeedOnRange(NodeId v,
                                              std::uint32_t first_set) {
  TIRM_CHECK_LT(v, num_nodes_);
  if (first_set >= attached_) return 0;
  const std::uint64_t* row = transpose_->Row(v);
  std::uint64_t* cov = covered_words_.data();
  const std::size_t words = CoverageWordsFor(attached_);
  const std::uint64_t tail_mask = CoverageTailMask(attached_);
  std::uint64_t newly = 0;

  // OR in only lane-masked fresh bits so covered_words_ never acquires bits
  // for sets outside [first_set, attached_).
  const auto commit_masked = [&](std::size_t w, std::uint64_t lane_mask) {
    const std::uint64_t fresh = row[w] & ~cov[w] & lane_mask;
    newly += static_cast<std::uint64_t>(std::popcount(fresh));
    cov[w] |= fresh;
  };

  std::size_t bulk_begin = 0;
  if (first_set > 0) {
    const std::size_t head_word = first_set / kCoverageWordBits;
    commit_masked(head_word,
                  CoverageLaneMask(head_word, first_set, attached_));
    bulk_begin = head_word + 1;
  }
  const std::size_t bulk_end =
      tail_mask == ~std::uint64_t{0} ? words : words - 1;
  if (bulk_begin < bulk_end) {
    newly += ActiveCoverageOps().commit_or(row + bulk_begin, cov + bulk_begin,
                                           bulk_end - bulk_begin);
  }
  if (bulk_end < words && bulk_begin < words) {
    commit_masked(words - 1, tail_mask);
  }
  num_covered_ += newly;
  return static_cast<std::uint32_t>(newly);
}

CoveredWordDelta RrCollection::UncoveredWords(NodeId v,
                                              std::uint32_t first_set) const {
  TIRM_CHECK_LT(v, num_nodes_);
  CoveredWordDelta delta;
  if (first_set >= attached_) return delta;
  const std::uint64_t* row = transpose_->Row(v);
  const std::size_t words = CoverageWordsFor(attached_);
  for (std::size_t w = first_set / kCoverageWordBits; w < words; ++w) {
    const std::uint64_t fresh = row[w] & ~covered_words_[w] &
                                CoverageLaneMask(w, first_set, attached_);
    if (fresh == 0) continue;
    delta.words.emplace_back(static_cast<std::uint32_t>(w), fresh);
    delta.newly_covered += static_cast<std::uint64_t>(std::popcount(fresh));
  }
  return delta;
}

void RrCollection::AccumulateCoverage(
    std::vector<std::uint32_t>& counts) const {
  counts.assign(num_nodes_, 0);
  for (std::uint32_t id = 0; id < attached_; ++id) {
    if (IsCovered(id)) continue;
    for (const NodeId member : pool_->SetMembers(id)) ++counts[member];
  }
}

std::size_t RrCollection::MemoryBytes() const {
  return covered_words_.capacity() * sizeof(std::uint64_t);
}

void CoverageHeap::Rebuild() {
  heap_.clear();
  std::vector<std::uint32_t> counts;
  collection_->AccumulateCoverage(counts);
  for (NodeId v = 0; v < collection_->num_nodes(); ++v) {
    if (counts[v] > 0) heap_.push_back({counts[v], v});
  }
  std::make_heap(heap_.begin(), heap_.end());
}

void CoverageHeap::Push(NodeId node, std::uint32_t coverage) {
  heap_.push_back({coverage, node});
  std::push_heap(heap_.begin(), heap_.end());
}

}  // namespace tirm
