// Packed bitmap coverage kernel — the word-parallel data path behind the
// greedy Max-Cover inner loop.
//
// Every allocator in the paper bottoms out in weighted Max-Cover over RR
// sets: recompute a node's marginal coverage, commit a seed, mark its sets
// covered. The kernel represents "which sets contain node v" as one bit per
// RR set (the node -> set-bitmap *transpose*, built lazily by RrSetPool from
// its set members — the pool's only node -> set index) and "which sets are
// already covered" as a second bitmap. The two hot operations are then
// word-parallel:
//
//   recount(v) = popcount(bits[v] & ~covered)          (AND-NOT + POPCNT)
//   commit(v)  = covered |= bits[v]                    (OR)
//
// The weighted (survival) policy gathers survival weights over the
// *surviving lanes* of bits[v] & ~dead in ascending set order (adding a
// dead set's 0.0 survival is an exact no-op, so skipping dead lanes cannot
// change the sum).
//
// Dispatch tiers. The word loops run through a function table resolved once
// at startup: an AVX2 specialization (compiled only when TIRM_ENABLE_AVX2 is
// on, used only when the CPU reports AVX2) and a portable std::popcount
// fallback. Tests force the portable tier explicitly (ForceCoverageSimdTier)
// to assert tier equivalence. Tier choice can never change results — both
// tiers compute the same exact integers.

#ifndef TIRM_RRSET_COVERAGE_BITMAP_H_
#define TIRM_RRSET_COVERAGE_BITMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/types.h"

namespace tirm {

class RrSetPool;  // rrset/sample_store.h

// ------------------------------------------------------------ word helpers

inline constexpr std::size_t kCoverageWordBits = 64;

/// Words needed to hold `sets` one-bit lanes.
inline constexpr std::size_t CoverageWordsFor(std::uint64_t sets) {
  return static_cast<std::size_t>((sets + kCoverageWordBits - 1) /
                                  kCoverageWordBits);
}

/// All-ones below bit `count % 64` in the last partial word (all-ones when
/// `count` fills the word exactly).
inline constexpr std::uint64_t CoverageTailMask(std::uint64_t count) {
  const std::uint64_t rem = count % kCoverageWordBits;
  return rem == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << rem) - 1;
}

/// Lanes of word `w` that hold sets in [first_set, end), end > first_set:
/// the word holding first_set drops the lanes below it, and the word
/// holding end - 1 drops the lanes past it.
inline constexpr std::uint64_t CoverageLaneMask(std::size_t w,
                                                std::uint64_t first_set,
                                                std::uint64_t end) {
  std::uint64_t mask = ~std::uint64_t{0};
  if (w == first_set / kCoverageWordBits) {
    mask &= ~((std::uint64_t{1} << (first_set % kCoverageWordBits)) - 1);
  }
  if (w == (end - 1) / kCoverageWordBits) mask &= CoverageTailMask(end);
  return mask;
}

/// Minimal cache-line-aligned allocator so bitmap rows and covered words
/// start on 64-byte boundaries (full-speed aligned vector loads).
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) { ::operator delete(p, kAlign); }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const {
    return true;
  }
};

using CoverageWordBuffer =
    std::vector<std::uint64_t, CacheAlignedAllocator<std::uint64_t>>;

// ------------------------------------------------------------- SIMD tiers

/// The word-loop primitives, resolved once per process (see file comment).
struct CoverageKernelOps {
  /// Σ popcount(bits[i] & ~mask[i]) over `words` words.
  std::uint64_t (*andnot_popcount)(const std::uint64_t* bits,
                                   const std::uint64_t* mask,
                                   std::size_t words);
  /// Per word: count popcount(bits[i] & ~mask[i]), then mask[i] |= bits[i].
  /// Returns the total count of newly set mask bits.
  std::uint64_t (*commit_or)(const std::uint64_t* bits, std::uint64_t* mask,
                             std::size_t words);
  /// Tier name for diagnostics ("avx2" / "portable").
  const char* name;
};

/// The portable tier (always available; the reference for tier-equivalence
/// tests).
const CoverageKernelOps& PortableCoverageOps();

/// The active tier: AVX2 when compiled in and supported by the CPU (unless
/// a test forced another tier); portable otherwise.
const CoverageKernelOps& ActiveCoverageOps();

/// True when the AVX2 tier is compiled in AND this CPU supports it.
bool CoverageAvx2Available();

/// Test/bench hook: force a tier for the current process ("portable",
/// "avx2", "auto"); returns InvalidArgument for unknown names or when
/// forcing AVX2 without hardware support. Not thread-safe; call before
/// spawning workers.
Status ForceCoverageSimdTier(std::string_view tier);

// --------------------------------------------------- shard gain summaries
//
// The distributed greedy round (GreeDIMM shape, alloc/tirm.cc): each shard
// summarizes its CELF heap as a top-L candidate list plus a bound on what
// it did not list; a coordinator tree-reduces the K summaries, fetches the
// few exact counts the reduction is missing, and either proves the global
// argmax (every sum is an exact integer, so the proof is exact and the
// selection bit-identical to a single global heap) or asks for a larger L.

/// One candidate of a shard's marginal-gain summary: a node and its exact
/// local marginal coverage (uncovered attached sets containing it).
struct ShardGainCandidate {
  NodeId node = 0;
  std::uint32_t coverage = 0;
};

/// Compact per-shard contribution to one distributed greedy round.
struct ShardGainSummary {
  int shard = 0;
  /// Top eligible candidates in the shard's CELF pop order: non-increasing
  /// coverage, ties by ascending node id. Coverages are exact local
  /// marginals at summary time.
  std::vector<ShardGainCandidate> top;
  /// Upper bound on the local coverage of any eligible node NOT in `top`:
  /// the last popped value, or 0 when the shard's heap ran dry (no
  /// unlisted node covers anything on this shard).
  std::uint32_t unlisted_bound = 0;
  std::uint64_t covered_sets = 0;   ///< shard-local covered-set count
  std::uint64_t attached_sets = 0;  ///< shard-local attached prefix
};

/// Tree-reduced merge of up to 64 shard summaries. Candidates are the
/// union of the per-shard top lists; `partial` sums the coverages of the
/// shards that listed the node and `shard_mask` records which ones
/// (bit k = shard k), so the coordinator can fetch only the missing exact
/// counts before picking the argmax. `unlisted_bound` sums the per-shard
/// bounds: no node absent from EVERY list can reach a total above it.
struct ReducedGainSummary {
  struct Candidate {
    NodeId node = 0;
    std::uint64_t partial = 0;
    std::uint64_t shard_mask = 0;
  };
  std::vector<Candidate> candidates;  ///< ascending node id
  std::uint64_t unlisted_bound = 0;
  std::uint64_t covered_sets = 0;   ///< Σ shard covered counts
  std::uint64_t attached_sets = 0;  ///< Σ shard attached prefixes
};

/// Pairwise binary-tree reduction of shard summaries. All merges are
/// associative integer sums / sorted unions, so the result is
/// deterministic and independent of tree shape; shard indices must be
/// distinct and < 64.
ReducedGainSummary TreeReduceGainSummaries(
    std::span<const ShardGainSummary> parts);

/// Packed covered-bitmap delta of one seed commit on one shard: the words
/// the commit changed in the shard's covered bitmap (shard-LOCAL set-id
/// space, ascending word index, each word holding only the newly set
/// bits) plus their popcount. The coordinator replays deltas into its
/// global covered view, which keeps the reduction's covered-mass
/// bookkeeping exact without shipping whole bitmaps.
struct CoveredWordDelta {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> words;
  std::uint64_t newly_covered = 0;
};

// -------------------------------------------------------------- transpose

/// Packed node -> set-membership bitmap rows over a pool prefix: bit `s` of
/// Row(v) is 1 iff set `s` contains node v. Rows share one flat cache-
/// aligned buffer with a common stride (a multiple of 8 words, so every row
/// is 64-byte aligned); the stride grows geometrically and rows are
/// re-strided in place when the pool outgrows it.
///
/// Thread safety matches the pool arena: extending (ExtendFromPool) must
/// not overlap reads — RrSetPool::EnsureTranspose serializes the builds,
/// and callers follow the store discipline of never reading a pool while
/// it may be topping up.
class CoverageTranspose {
 public:
  explicit CoverageTranspose(NodeId num_nodes);

  /// Adds membership bits for pool sets [built_sets(), up_to); no-op when
  /// already built that far. `up_to` must not exceed pool.NumSets().
  void ExtendFromPool(const RrSetPool& pool, std::uint32_t up_to);

  /// Membership words of node `v` (words_per_row() words; lanes beyond
  /// built_sets() are zero).
  const std::uint64_t* Row(NodeId v) const {
    TIRM_DCHECK(v < num_nodes_);
    return words_.data() + static_cast<std::size_t>(v) * stride_;
  }

  std::uint32_t built_sets() const { return built_sets_; }
  std::size_t words_per_row() const { return stride_; }
  NodeId num_nodes() const { return num_nodes_; }

  /// Exact bytes held by the row buffer (capacity, like the pool's own
  /// accounting).
  std::size_t MemoryBytes() const {
    return words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  NodeId num_nodes_;
  std::uint32_t built_sets_ = 0;
  std::size_t stride_ = 0;  // words per row, multiple of 8
  CoverageWordBuffer words_;
};

}  // namespace tirm

#endif  // TIRM_RRSET_COVERAGE_BITMAP_H_
