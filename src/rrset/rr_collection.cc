#include "rrset/rr_collection.h"

#include <algorithm>
#include <span>

namespace tirm {

RrCollection::RrCollection(const RrSetPool* pool)
    : pool_(pool), num_nodes_(pool != nullptr ? pool->num_nodes() : 0) {
  TIRM_CHECK(pool_ != nullptr);
}

void RrCollection::AttachUpTo(std::uint32_t count) {
  TIRM_CHECK_LE(count, pool_->NumSets());
  TIRM_CHECK_GE(count, attached_);
  if (count == attached_) return;
  transpose_ = pool_->EnsureTranspose(count);
  covered_bits_.resize(CoverageWordsFor(count), 0);
  attached_ = count;
}

std::uint32_t RrCollection::CommitSeed(NodeId v) {
  return CommitSeedOnRange(v, 0);
}

std::uint32_t RrCollection::CoverageOf(NodeId v) const {
  TIRM_DCHECK(v < num_nodes_);
  if (attached_ == 0) return 0;
  const std::uint64_t* cov = covered_bits_.data();
  // Counts v's covered sets and subtracts: one load and one bit per id.
  std::size_t sets = 0;
  std::uint64_t covered = 0;
  transpose_.ForEachRun(v, 0, attached_,
                        [&](std::span<const std::uint32_t> ids) {
                          sets += ids.size();
                          for (const std::uint32_t id : ids) {
                            covered += (cov[id / kCoverageWordBits] >>
                                        (id % kCoverageWordBits)) &
                                       1u;
                          }
                        });
  return static_cast<std::uint32_t>(sets - covered);
}

std::uint32_t RrCollection::CommitSeedOnRange(NodeId v,
                                              std::uint32_t first_set) {
  TIRM_CHECK_LT(v, num_nodes_);
  if (first_set >= attached_) return 0;
  std::uint64_t* cov = covered_bits_.data();
  std::uint32_t newly = 0;
  transpose_.ForEachRun(v, first_set, attached_,
                        [&](std::span<const std::uint32_t> ids) {
                          for (const std::uint32_t id : ids) {
                            std::uint64_t& word = cov[id / kCoverageWordBits];
                            const std::uint64_t bit =
                                std::uint64_t{1} << (id % kCoverageWordBits);
                            newly += (word & bit) == 0 ? 1u : 0u;
                            word |= bit;
                          }
                        });
  num_covered_ += newly;
  return newly;
}

void RrCollection::AccumulateCoverage(
    std::vector<std::uint32_t>& counts) const {
  counts.resize(num_nodes_);
  for (NodeId v = 0; v < num_nodes_; ++v) counts[v] = CoverageOf(v);
}

std::size_t RrCollection::MemoryBytes() const {
  return covered_bits_.capacity() * sizeof(std::uint64_t);
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
