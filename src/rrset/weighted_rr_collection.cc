#include "rrset/weighted_rr_collection.h"

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
  transpose_ = pool_->EnsureTranspose(count);
  attached_ = count;
}

double WeightedRrCollection::CoverageOf(NodeId v) const {
  TIRM_DCHECK(v < num_nodes_);
  if (attached_ == 0) return 0.0;
  double cov = 0.0;
  transpose_.ForEachRun(v, 0, attached_,
                        [&](std::span<const std::uint32_t> ids) {
                          for (const std::uint32_t id : ids) {
                            cov += static_cast<double>(survival_[id]);
                          }
                        });
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
  double covered_before = 0.0;
  transpose_.ForEachRun(
      v, first_set, attached_, [&](std::span<const std::uint32_t> ids) {
        for (const std::uint32_t id : ids) {
          const double s_old = survival_[id];
          if (s_old <= 0.0) continue;  // dead: nothing left to discount
          covered_before += s_old;
          const double s_new = s_old * (1.0 - accept_prob);
          const double delta = s_old - s_new;
          if (delta <= 0.0) continue;
          survival_[id] = static_cast<float>(s_new);
          covered_mass_ += delta;
        }
      });
  return covered_before;
}

void WeightedRrCollection::AccumulateCoverage(std::vector<double>& cov) const {
  cov.resize(num_nodes_);
  for (NodeId v = 0; v < num_nodes_; ++v) cov[v] = CoverageOf(v);
}

std::size_t WeightedRrCollection::MemoryBytes() const {
  return survival_.capacity() * sizeof(float);
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
