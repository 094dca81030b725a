#include "rrset/coverage_bitmap.h"

#include "rrset/sample_store.h"

namespace tirm {

CoverageTranspose::CoverageTranspose(NodeId num_nodes)
    : num_nodes_(num_nodes) {}

void CoverageTranspose::ExtendFromPool(const RrSetPool& pool,
                                       std::uint32_t up_to) {
  TIRM_CHECK_LE(up_to, pool.NumSets());
  TIRM_CHECK_EQ(static_cast<std::uint64_t>(pool.num_nodes()),
                static_cast<std::uint64_t>(num_nodes_));
  if (up_to <= built_sets_) return;

  // Counting sort by node: count each node's members into offsets[v + 1]
  // (chunk by chunk — the count needs no set boundaries), prefix-sum, then
  // place the set ids in ascending id order.
  Segment& segment = segments_.emplace_back();
  segment.first_set = built_sets_;
  segment.end_set = up_to;
  segment.offsets.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  pool.ForEachMemberRun(built_sets_, up_to,
                        [&](std::span<const NodeId> members) {
                          for (const NodeId v : members) {
                            ++segment.offsets[v + 1];
                          }
                        });
  for (NodeId v = 0; v < num_nodes_; ++v) {
    segment.offsets[v + 1] += segment.offsets[v];
  }
  segment.ids.resize(segment.offsets.back());
  std::vector<std::size_t> cursor(segment.offsets.begin(),
                                  segment.offsets.end() - 1);
  for (std::uint32_t id = built_sets_; id < up_to; ++id) {
    for (const NodeId v : pool.SetMembers(id)) segment.ids[cursor[v]++] = id;
  }
  built_sets_ = up_to;
}

std::size_t CoverageTranspose::MemoryBytes() const {
  std::size_t bytes = segments_.capacity() * sizeof(Segment);
  for (const Segment& segment : segments_) {
    bytes += segment.offsets.capacity() * sizeof(std::size_t) +
             segment.ids.capacity() * sizeof(std::uint32_t);
  }
  return bytes;
}

}  // namespace tirm
