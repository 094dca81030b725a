#include "rrset/shard_client.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

#include "obs/trace.h"
#include "topic/instance.h"

namespace tirm {

// --------------------------------------------------- shard gain summaries

namespace {

ReducedGainSummary LiftSummary(const ShardGainSummary& part) {
  TIRM_CHECK(part.shard >= 0 && part.shard < 64);
  ReducedGainSummary out;
  out.unlisted_bound = part.unlisted_bound;
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

// ------------------------------------------------------------ shard client

RrShardClient::~RrShardClient() = default;

LocalShardClient::LocalShardClient(RrSampleStore* store,
                                   const ProblemInstance* instance,
                                   int num_threads)
    : store_(store), instance_(instance), num_threads_(num_threads) {
  TIRM_CHECK(store_ != nullptr);
  TIRM_CHECK(instance_ != nullptr);
  TIRM_CHECK(store_->graph() == &instance_->graph())
      << "shard store serves a different graph";
}

LocalShardClient::~LocalShardClient() = default;

Status LocalShardClient::BeginRun(const ShardRunConfig& run) {
  const RrSampleStore::Options& opts = store_->options();
  if (run.store_seed != opts.seed || run.chunk_sets != opts.chunk_sets) {
    return Status::InvalidArgument(
        "shard run config does not match this shard's store (seed and "
        "chunking must agree or pools diverge)");
  }
  if (run.num_ads < 0 || run.num_ads > instance_->num_ads()) {
    return Status::InvalidArgument("shard run num_ads out of range");
  }
  run_ = run;
  slots_.clear();
  slots_.resize(static_cast<std::size_t>(run.num_ads));
  retired_.assign(store_->graph()->num_nodes(), 0);
  run_active_ = true;
  return Status::OK();
}

Status LocalShardClient::EnsureAd(AdId ad) {
  if (!run_active_) {
    return Status::FailedPrecondition("shard op before BeginRun");
  }
  if (ad < 0 || static_cast<std::size_t>(ad) >= slots_.size()) {
    return Status::InvalidArgument("shard op for unknown ad " +
                                   std::to_string(ad));
  }
  AdSlot& slot = slots_[static_cast<std::size_t>(ad)];
  if (slot.entry == nullptr) {
    slot.entry = store_->Acquire(store_->SignatureForAd(*instance_, ad),
                                 instance_->EdgeProbsForAd(ad));
    slot.view = std::make_unique<RrCollection>(&slot.entry->sets());
    slot.in_seed_set.assign(store_->graph()->num_nodes(), 0);
  }
  return Status::OK();
}

Result<RrSampleStore::EnsureResult> LocalShardClient::EnsureSets(
    AdId ad, std::uint64_t global_min_sets,
    std::uint64_t global_already_attached) {
  TIRM_RETURN_NOT_OK(EnsureAd(ad));
  AdSlot& slot = slots_[static_cast<std::size_t>(ad)];
  // Per-shard span: shard skew (one shard's sampling dominating a fan-out
  // round) shows up directly in trace exports.
  obs::TraceSpan span("shard_ensure");
  span.Counter("shard", shard_index());
  span.Counter("ad", ad);
  const RrSampleStore::EnsureResult ensured =
      store_->EnsureSets(slot.entry, global_min_sets, global_already_attached,
                         num_threads_);
  span.Counter("sampled", static_cast<double>(ensured.sampled));
  return ensured;
}

Result<double> LocalShardClient::KptEstimate(AdId ad, std::uint64_t s,
                                             bool* cache_hit) {
  TIRM_RETURN_NOT_OK(EnsureAd(ad));
  AdSlot& slot = slots_[static_cast<std::size_t>(ad)];
  if (slot.kpt == nullptr) {
    const KptEstimator::Options kpt_options{
        .ell = run_.kpt_ell, .max_samples = run_.kpt_max_samples};
    slot.kpt = &store_->EnsureKpt(slot.entry, kpt_options, s, cache_hit,
                                  num_threads_);
  } else if (cache_hit != nullptr) {
    *cache_hit = true;
  }
  // Same evaluation the single-store path uses: the width cache answers
  // any s; shard stores share the per-ad base seed, so shard 0's value
  // equals the single-store value bit for bit.
  return slot.kpt->ReEstimate(s);
}

Status LocalShardClient::Attach(AdId ad, std::uint64_t global_count) {
  TIRM_RETURN_NOT_OK(EnsureAd(ad));
  AdSlot& slot = slots_[static_cast<std::size_t>(ad)];
  const std::uint64_t local = ShardPrefixCount(
      global_count, run_.chunk_sets, num_shards(), shard_index());
  if (local > slot.entry->sets().NumSets()) {
    return Status::FailedPrecondition(
        "shard attach beyond the sampled pool (EnsureSets first)");
  }
  slot.view->AttachUpTo(static_cast<std::uint32_t>(local));
  if (slot.heap == nullptr) {
    slot.heap = std::make_unique<CoverageHeap>(slot.view.get());
  } else {
    slot.heap->Rebuild();
  }
  return Status::OK();
}

Result<ShardGainSummary> LocalShardClient::Summarize(AdId ad,
                                                     std::uint32_t top_l) {
  TIRM_RETURN_NOT_OK(EnsureAd(ad));
  AdSlot& slot = slots_[static_cast<std::size_t>(ad)];
  ShardGainSummary out;
  out.shard = shard_index();
  if (slot.heap == nullptr || top_l == 0) return out;
  const auto eligible = [this, &slot](NodeId u) {
    return retired_[u] == 0 && slot.in_seed_set[u] == 0;
  };
  // CELF pop order: non-increasing current coverages. The last popped
  // value bounds every eligible node the summary does NOT list; a dry
  // heap means nothing unlisted covers anything here.
  out.top.reserve(top_l);
  std::uint32_t last = 0;
  bool dry = false;
  for (std::uint32_t i = 0; i < top_l; ++i) {
    const NodeId v = slot.heap->PopBest(eligible);
    if (v == kInvalidNode) {
      dry = true;
      break;
    }
    last = slot.view->CoverageOf(v);
    out.top.push_back({v, last});
  }
  out.unlisted_bound = dry ? 0 : last;
  // The pops were tentative (the coordinator may pick another shard's
  // candidate): reinsert — the lazy heap tolerates duplicates.
  for (const ShardGainCandidate& c : out.top) {
    slot.heap->Push(c.node, c.coverage);
  }
  return out;
}

Result<std::vector<std::uint32_t>> LocalShardClient::CoverageCounts(
    AdId ad, std::span<const NodeId> nodes) {
  TIRM_RETURN_NOT_OK(EnsureAd(ad));
  const AdSlot& slot = slots_[static_cast<std::size_t>(ad)];
  std::vector<std::uint32_t> counts;
  counts.reserve(nodes.size());
  for (const NodeId v : nodes) {
    if (v >= slot.view->num_nodes()) {
      return Status::InvalidArgument("coverage count for unknown node");
    }
    counts.push_back(slot.view->CoverageOf(v));
  }
  return counts;
}

Result<std::vector<std::uint32_t>> LocalShardClient::DenseCoverage(AdId ad) {
  TIRM_RETURN_NOT_OK(EnsureAd(ad));
  const AdSlot& slot = slots_[static_cast<std::size_t>(ad)];
  std::vector<std::uint32_t> counts;
  slot.view->AccumulateCoverage(counts);
  return counts;
}

Result<std::uint64_t> LocalShardClient::Commit(AdId ad, NodeId v) {
  TIRM_RETURN_NOT_OK(EnsureAd(ad));
  AdSlot& slot = slots_[static_cast<std::size_t>(ad)];
  if (v >= slot.view->num_nodes()) {
    return Status::InvalidArgument("commit for unknown node");
  }
  slot.in_seed_set[v] = 1;
  return std::uint64_t{slot.view->CommitSeed(v)};
}

Result<std::uint64_t> LocalShardClient::CommitOnRange(
    AdId ad, NodeId v, std::uint64_t global_first_set) {
  TIRM_RETURN_NOT_OK(EnsureAd(ad));
  AdSlot& slot = slots_[static_cast<std::size_t>(ad)];
  if (v >= slot.view->num_nodes()) {
    return Status::InvalidArgument("commit for unknown node");
  }
  const std::uint64_t local_first = ShardPrefixCount(
      global_first_set, run_.chunk_sets, num_shards(), shard_index());
  return std::uint64_t{slot.view->CommitSeedOnRange(
      v, static_cast<std::uint32_t>(local_first))};
}

Status LocalShardClient::Retire(NodeId v) {
  if (!run_active_) {
    return Status::FailedPrecondition("shard op before BeginRun");
  }
  if (v >= retired_.size()) {
    return Status::InvalidArgument("retire for unknown node");
  }
  retired_[v] = 1;
  return Status::OK();
}

Result<ShardMemoryStats> LocalShardClient::MemoryStats() {
  if (!run_active_) {
    return Status::FailedPrecondition("shard op before BeginRun");
  }
  ShardMemoryStats stats;
  std::unordered_set<const RrSampleStore::AdPool*> distinct;
  for (const AdSlot& slot : slots_) {
    if (slot.entry == nullptr) continue;
    if (distinct.insert(slot.entry).second) {
      stats.arena_bytes += slot.entry->sets().MemoryBytes();
    }
    stats.view_bytes += slot.view->MemoryBytes();
  }
  return stats;
}

}  // namespace tirm
