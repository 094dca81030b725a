// The node -> set index behind the greedy Max-Cover inner loop, and the
// covered-set bitmap helpers of the coverage views.
//
// Every allocator in the paper bottoms out in weighted Max-Cover over RR
// sets: recompute a node's marginal coverage, commit a seed, mark its sets
// covered. That needs two things: "which sets contain node v" and "which
// sets are already covered". The first is the pool's only node -> set
// index: for every node, the ascending ids of the sets containing it, in
// compressed sparse rows (CSR) sized by the members, not by n·θ. RrSetPool
// builds it lazily from its set members, one immutable CoverageSegment per
// extension, and hands each view a CoverageTranspose: its own list of the
// segments covering its prefix, which it walks without a lock while other
// threads top the pool up or extend the index. The second is a per-view
// bitmap, one bit per attached set. The two hot operations then walk a
// node's ids:
//
//   recount(v) = #{id in row(v) : id not covered}
//   commit(v)  = covered |= {id in row(v)}
//
// The weighted (survival) policy gathers survival weights over row(v) in
// ascending set order; a dead set adds exactly 0.0, so no dead-set
// bookkeeping is needed to keep the sum bit-identical to a scalar gather.

#ifndef TIRM_RRSET_COVERAGE_BITMAP_H_
#define TIRM_RRSET_COVERAGE_BITMAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace tirm {

// ------------------------------------------------------------ word helpers

inline constexpr std::size_t kCoverageWordBits = 64;

/// Words needed to hold `sets` one-bit lanes.
inline constexpr std::size_t CoverageWordsFor(std::uint64_t sets) {
  return static_cast<std::size_t>((sets + kCoverageWordBits - 1) /
                                  kCoverageWordBits);
}

/// Kept only so bench_suite/bench_suite.cc, which prints this name in its
/// report header, builds unchanged: coverage has one code path on every
/// platform, with no SIMD tier to report.
struct CoverageKernelLabel {
  const char* name;
};
inline const CoverageKernelLabel& ActiveCoverageOps() {
  static constexpr CoverageKernelLabel kLabel{"none"};
  return kLabel;
}

// -------------------------------------------------------------- transpose

/// One CSR segment of a pool's node -> set index: for every node, the
/// ascending ids of the sets in [first_set, end_set) containing it.
/// RrSetPool builds each segment once, on the heap, under its mutex, and
/// never changes or moves it afterwards, so views read it without a lock.
struct CoverageSegment {
  std::uint32_t first_set = 0;
  std::uint32_t end_set = 0;
  std::vector<std::size_t> offsets;  // num_nodes + 1; node v's ids are
                                     // ids[offsets[v], offsets[v + 1])
  std::vector<std::uint32_t> ids;

  /// Exact bytes held, the segment object included (capacity, like the
  /// pool's own accounting).
  std::size_t MemoryBytes() const {
    return sizeof(CoverageSegment) + offsets.capacity() * sizeof(std::size_t) +
           ids.capacity() * sizeof(std::uint32_t);
  }
};

/// Node -> set index over a pool prefix: the list of the pool's segments
/// that cover it, in set order, so a node's ids are ascending across
/// segments too. RrSetPool::EnsureTranspose returns one; each coverage view
/// keeps its own copy and walks it without a lock. Each extension of the
/// pool's index appends one segment, built by a counting sort over the new
/// range's members, so growth costs the new members only.
class CoverageTranspose {
 public:
  CoverageTranspose() = default;
  CoverageTranspose(NodeId num_nodes,
                    std::vector<const CoverageSegment*> segments)
      : num_nodes_(num_nodes), segments_(std::move(segments)) {}

  /// Calls `visit(ids)` with the ascending ids in [first_set, end_set) of
  /// the sets containing `v`: one span per segment that overlaps the
  /// range, in segment order, so the concatenated spans are ascending too.
  /// `end_set` must not exceed built_sets(). A segment that straddles
  /// either bound starts or stops at a lower_bound of its row.
  template <typename Visit>
  void ForEachRun(NodeId v, std::uint32_t first_set, std::uint32_t end_set,
                  Visit&& visit) const {
    TIRM_DCHECK(v < num_nodes_);
    TIRM_DCHECK(end_set <= built_sets());
    for (const CoverageSegment* segment : segments_) {
      if (segment->end_set <= first_set) continue;
      if (segment->first_set >= end_set) break;
      const std::uint32_t* begin = segment->ids.data() + segment->offsets[v];
      const std::uint32_t* end = segment->ids.data() + segment->offsets[v + 1];
      if (first_set > segment->first_set) {
        begin = std::lower_bound(begin, end, first_set);
      }
      if (end_set < segment->end_set) {
        end = std::lower_bound(begin, end, end_set);
      }
      visit(std::span<const std::uint32_t>(begin, end));
    }
  }

  /// Sets the listed segments cover: the end of the last one.
  std::uint32_t built_sets() const {
    return segments_.empty() ? 0 : segments_.back()->end_set;
  }
  NodeId num_nodes() const { return num_nodes_; }

  /// Exact bytes of the listed segments.
  std::size_t MemoryBytes() const {
    std::size_t bytes = 0;
    for (const CoverageSegment* segment : segments_) {
      bytes += segment->MemoryBytes();
    }
    return bytes;
  }

 private:
  NodeId num_nodes_ = 0;
  std::vector<const CoverageSegment*> segments_;
};

}  // namespace tirm

#endif  // TIRM_RRSET_COVERAGE_BITMAP_H_
