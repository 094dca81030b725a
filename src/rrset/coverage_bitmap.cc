#include "rrset/coverage_bitmap.h"

#include <algorithm>
#include <cstring>

#include "rrset/sample_store.h"

namespace tirm {

// ------------------------------------------------------------- SIMD tiers

#if defined(TIRM_HAVE_AVX2_KERNELS)
// Defined in coverage_bitmap_avx2.cc (compiled with -mavx2).
const CoverageKernelOps& Avx2CoverageOpsForDispatch();
#endif

namespace {

std::uint64_t AndNotPopcountPortable(const std::uint64_t* bits,
                                     const std::uint64_t* mask,
                                     std::size_t words) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < words; ++i) {
    count += static_cast<std::uint64_t>(std::popcount(bits[i] & ~mask[i]));
  }
  return count;
}

std::uint64_t CommitOrPortable(const std::uint64_t* bits, std::uint64_t* mask,
                               std::size_t words) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t fresh = bits[i] & ~mask[i];
    count += static_cast<std::uint64_t>(std::popcount(fresh));
    mask[i] |= bits[i];
  }
  return count;
}

constexpr CoverageKernelOps kPortableOps = {
    &AndNotPopcountPortable,
    &CommitOrPortable,
    "portable",
};

// The active tier is process-global mutable state so tests and benches can
// force a tier; reads happen on hot paths, so keep it a plain pointer
// (ForceCoverageSimdTier documents the single-threaded contract).
const CoverageKernelOps* g_active_ops = nullptr;

const CoverageKernelOps* ResolveDefaultOps() {
#if defined(TIRM_HAVE_AVX2_KERNELS)
  if (CoverageAvx2Available()) return &Avx2CoverageOpsForDispatch();
#endif
  return &kPortableOps;
}

}  // namespace

const CoverageKernelOps& PortableCoverageOps() { return kPortableOps; }

const CoverageKernelOps& ActiveCoverageOps() {
  if (g_active_ops == nullptr) g_active_ops = ResolveDefaultOps();
  return *g_active_ops;
}

bool CoverageAvx2Available() {
#if defined(TIRM_HAVE_AVX2_KERNELS)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Status ForceCoverageSimdTier(std::string_view tier) {
  if (tier == "portable") {
    g_active_ops = &kPortableOps;
    return Status::OK();
  }
  if (tier == "avx2") {
#if defined(TIRM_HAVE_AVX2_KERNELS)
    if (CoverageAvx2Available()) {
      g_active_ops = &Avx2CoverageOpsForDispatch();
      return Status::OK();
    }
#endif
    return Status::InvalidArgument(
        "AVX2 coverage kernels unavailable (not compiled in or unsupported "
        "CPU)");
  }
  if (tier == "auto") {
    g_active_ops = ResolveDefaultOps();
    return Status::OK();
  }
  return Status::InvalidArgument("unknown SIMD tier \"" + std::string(tier) +
                                 "\" (want portable, avx2, or auto)");
}

// --------------------------------------------------- shard gain summaries

namespace {

ReducedGainSummary LiftSummary(const ShardGainSummary& part) {
  TIRM_CHECK(part.shard >= 0 && part.shard < 64);
  ReducedGainSummary out;
  out.unlisted_bound = part.unlisted_bound;
  out.covered_sets = part.covered_sets;
  out.attached_sets = part.attached_sets;
  out.candidates.reserve(part.top.size());
  const std::uint64_t mask = std::uint64_t{1} << part.shard;
  for (const ShardGainCandidate& c : part.top) {
    out.candidates.push_back({c.node, c.coverage, mask});
  }
  // `top` arrives in CELF pop order (by coverage); the reduction keys on
  // node id so merges are linear merge-joins.
  std::sort(out.candidates.begin(), out.candidates.end(),
            [](const ReducedGainSummary::Candidate& a,
               const ReducedGainSummary::Candidate& b) {
              return a.node < b.node;
            });
  return out;
}

ReducedGainSummary MergeReduced(const ReducedGainSummary& a,
                                const ReducedGainSummary& b) {
  TIRM_DCHECK((a.unlisted_bound | b.unlisted_bound) <
              (std::uint64_t{1} << 63));
  ReducedGainSummary out;
  out.unlisted_bound = a.unlisted_bound + b.unlisted_bound;
  out.covered_sets = a.covered_sets + b.covered_sets;
  out.attached_sets = a.attached_sets + b.attached_sets;
  out.candidates.reserve(a.candidates.size() + b.candidates.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.candidates.size() || j < b.candidates.size()) {
    if (j == b.candidates.size() ||
        (i < a.candidates.size() &&
         a.candidates[i].node < b.candidates[j].node)) {
      out.candidates.push_back(a.candidates[i++]);
    } else if (i == a.candidates.size() ||
               b.candidates[j].node < a.candidates[i].node) {
      out.candidates.push_back(b.candidates[j++]);
    } else {
      ReducedGainSummary::Candidate merged = a.candidates[i++];
      merged.partial += b.candidates[j].partial;
      TIRM_DCHECK((merged.shard_mask & b.candidates[j].shard_mask) == 0u);
      merged.shard_mask |= b.candidates[j++].shard_mask;
      out.candidates.push_back(merged);
    }
  }
  return out;
}

}  // namespace

ReducedGainSummary TreeReduceGainSummaries(
    std::span<const ShardGainSummary> parts) {
  TIRM_CHECK(!parts.empty());
  std::vector<ReducedGainSummary> level;
  level.reserve(parts.size());
  for (const ShardGainSummary& part : parts) {
    level.push_back(LiftSummary(part));
  }
  // Binary tree: merge adjacent pairs until one summary remains. Every
  // merge is an associative sum/union, so the shape cannot change the
  // result — the tree only bounds the reduction depth at log2(K).
  while (level.size() > 1) {
    std::vector<ReducedGainSummary> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(MergeReduced(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    level = std::move(next);
  }
  return std::move(level.front());
}

// -------------------------------------------------------------- transpose

CoverageTranspose::CoverageTranspose(NodeId num_nodes)
    : num_nodes_(num_nodes) {}

void CoverageTranspose::ExtendFromPool(const RrSetPool& pool,
                                       std::uint32_t up_to) {
  TIRM_CHECK_LE(up_to, pool.NumSets());
  TIRM_CHECK_EQ(static_cast<std::uint64_t>(pool.num_nodes()),
                static_cast<std::uint64_t>(num_nodes_));
  if (up_to <= built_sets_) return;

  const std::size_t needed = CoverageWordsFor(up_to);
  if (needed > stride_) {
    // Grow geometrically, rounded to 8 words so every row stays on a
    // 64-byte boundary, then re-stride the existing rows in place.
    std::size_t new_stride = std::max<std::size_t>(stride_ * 2, 8);
    while (new_stride < needed) new_stride *= 2;
    CoverageWordBuffer grown(static_cast<std::size_t>(num_nodes_) * new_stride,
                             0);
    if (stride_ > 0) {
      for (NodeId v = 0; v < num_nodes_; ++v) {
        std::memcpy(grown.data() + static_cast<std::size_t>(v) * new_stride,
                    words_.data() + static_cast<std::size_t>(v) * stride_,
                    stride_ * sizeof(std::uint64_t));
      }
    }
    words_ = std::move(grown);
    stride_ = new_stride;
  }

  for (std::uint32_t id = built_sets_; id < up_to; ++id) {
    const std::size_t word = id / kCoverageWordBits;
    const std::uint64_t bit = std::uint64_t{1} << (id % kCoverageWordBits);
    for (const NodeId v : pool.SetMembers(id)) {
      words_[static_cast<std::size_t>(v) * stride_ + word] |= bit;
    }
  }
  built_sets_ = up_to;
}

}  // namespace tirm
