#include "rrset/sample_store.h"

#include <algorithm>
#include <utility>

#include "common/hashing.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "rrset/coverage_bitmap.h"
#include "rrset/parallel_rr_builder.h"
#include "topic/edge_probabilities.h"
#include "topic/instance.h"

namespace tirm {

std::uint64_t ShardPrefixCount(std::uint64_t watermark,
                               std::uint64_t chunk_sets, int num_shards,
                               int shard) {
  TIRM_DCHECK(num_shards >= 1 && shard >= 0 && shard < num_shards);
  const auto k = static_cast<std::uint64_t>(shard);
  const auto shards = static_cast<std::uint64_t>(num_shards);
  const std::uint64_t full_chunks = watermark / chunk_sets;
  const std::uint64_t tail = watermark % chunk_sets;
  // Owned full chunks among global chunks [0, full_chunks), plus the
  // partial tail chunk when this shard owns it.
  std::uint64_t owned = full_chunks / shards + (full_chunks % shards > k);
  std::uint64_t count = owned * chunk_sets;
  if (tail != 0 && full_chunks % shards == k) count += tail;
  return count;
}

// ------------------------------------------------------------------ RrSetPool

RrSetPool::RrSetPool(NodeId num_nodes) : num_nodes_(num_nodes) {}

RrSetPool::~RrSetPool() = default;

std::uint32_t RrSetPool::AdoptChunk(std::vector<NodeId> nodes,
                                    std::vector<std::size_t> offsets) {
  TIRM_CHECK(!offsets.empty());
  TIRM_CHECK_EQ(offsets.front(), 0u);
  TIRM_CHECK_EQ(offsets.back(), nodes.size());
  const std::size_t num_sets = offsets.size() - 1;
  obs::TraceSpan span("adopt_chunk");
  span.Counter("sets", static_cast<double>(num_sets));
  span.Counter("nodes", static_cast<double>(nodes.size()));
  MutexLock lock(mutex_);
  const std::uint32_t first = num_sets_;
  if (num_sets == 0) return first;
  parts_.push_back({first, std::move(nodes), std::move(offsets)});
  num_sets_ += static_cast<std::uint32_t>(num_sets);
  return first;
}

std::size_t RrSetPool::NumSets() const {
  MutexLock lock(mutex_);
  return num_sets_;
}

std::size_t RrSetPool::PartOf(std::uint32_t id) const {
  TIRM_DCHECK(id < num_sets_);
  const auto after = std::upper_bound(
      parts_.begin(), parts_.end(), id,
      [](std::uint32_t set, const Part& part) { return set < part.first_set; });
  return static_cast<std::size_t>(after - parts_.begin()) - 1;
}

std::span<const NodeId> RrSetPool::SetMembers(std::uint32_t id) const {
  MutexLock lock(mutex_);
  const Part& part = parts_[PartOf(id)];
  const std::size_t k = id - part.first_set;
  return {part.nodes.data() + part.offsets[k],
          part.offsets[k + 1] - part.offsets[k]};
}

std::unique_ptr<const CoverageSegment> RrSetPool::BuildSegment(
    std::uint32_t first, std::uint32_t end) const {
  auto segment = std::make_unique<CoverageSegment>();
  segment->first_set = first;
  segment->end_set = end;
  // The parts holding [first, end), each with the part-local set range
  // [lo, hi) that falls inside it.
  struct Range {
    const Part* part;
    std::size_t lo, hi;
  };
  std::vector<Range> ranges;
  for (std::size_t p = PartOf(first);
       p < parts_.size() && parts_[p].first_set < end; ++p) {
    const Part& part = parts_[p];
    ranges.push_back({&part, std::max(first, part.first_set) - part.first_set,
                      std::min<std::size_t>(end - part.first_set,
                                            part.offsets.size() - 1)});
  }
  // Counting sort by node: count each node's members into offsets[v + 1]
  // (a walk over whole member runs — the count needs no set boundaries),
  // prefix-sum, then place the set ids in ascending id order.
  std::vector<std::size_t>& offsets = segment->offsets;
  offsets.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  for (const Range& r : ranges) {
    const std::vector<NodeId>& nodes = r.part->nodes;
    for (std::size_t i = r.part->offsets[r.lo]; i < r.part->offsets[r.hi];
         ++i) {
      ++offsets[nodes[i] + 1];
    }
  }
  for (NodeId v = 0; v < num_nodes_; ++v) offsets[v + 1] += offsets[v];
  segment->ids.resize(offsets.back());
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Range& r : ranges) {
    const Part& part = *r.part;
    for (std::size_t k = r.lo; k < r.hi; ++k) {
      const auto id = static_cast<std::uint32_t>(part.first_set + k);
      for (std::size_t i = part.offsets[k]; i < part.offsets[k + 1]; ++i) {
        segment->ids[cursor[part.nodes[i]]++] = id;
      }
    }
  }
  return segment;
}

CoverageTranspose RrSetPool::EnsureTranspose(std::uint32_t up_to) const {
  MutexLock lock(mutex_);
  TIRM_CHECK_LE(up_to, num_sets_);
  obs::TraceSpan span("transpose_build");
  span.Counter("up_to", static_cast<double>(up_to));
  const std::uint32_t built =
      segments_.empty() ? 0 : segments_.back()->end_set;
  if (up_to > built) segments_.push_back(BuildSegment(built, up_to));
  std::vector<const CoverageSegment*> covering;
  for (const std::unique_ptr<const CoverageSegment>& segment : segments_) {
    if (segment->first_set >= up_to) break;
    covering.push_back(segment.get());
  }
  return CoverageTranspose(num_nodes_, std::move(covering));
}

std::size_t RrSetPool::TransposeBytesLocked() const {
  std::size_t bytes = 0;
  for (const std::unique_ptr<const CoverageSegment>& segment : segments_) {
    bytes += segment->MemoryBytes();
  }
  return bytes;
}

std::size_t RrSetPool::TransposeBytes() const {
  MutexLock lock(mutex_);
  return TransposeBytesLocked();
}

std::size_t RrSetPool::MemoryBytes() const {
  MutexLock lock(mutex_);
  std::size_t bytes = TransposeBytesLocked();
  for (const Part& part : parts_) {
    bytes += part.nodes.capacity() * sizeof(NodeId) +
             part.offsets.capacity() * sizeof(std::size_t);
  }
  return bytes;
}

void SampleCacheStats::Add(const SampleCacheStats& other) {
  reused_sets += other.reused_sets;
  sampled_sets += other.sampled_sets;
  top_ups += other.top_ups;
  kpt_cache_hits += other.kpt_cache_hits;
  kpt_estimations += other.kpt_estimations;
  arena_bytes += other.arena_bytes;
  view_bytes += other.view_bytes;
  shared_store = shared_store || other.shared_store;
  max_traversal = std::max(max_traversal, other.max_traversal);
}

// -------------------------------------------------------------- RrSampleStore

RrSampleStore::AdPool::AdPool(const Graph& graph, std::uint64_t base_seed,
                              std::span<const float> edge_probs)
    : pool_(graph.num_nodes()),
      base_seed_(base_seed),
      edge_probs_(edge_probs),
      builder_(std::make_unique<ParallelRrBuilder>(graph, edge_probs)) {}

RrSampleStore::AdPool::~AdPool() = default;

RrSampleStore::RrSampleStore(const Graph* graph, Options options)
    : graph_(graph), options_(options) {
  TIRM_CHECK(graph_ != nullptr);
  TIRM_CHECK_GE(options_.chunk_sets, 1u);
  TIRM_CHECK_GE(options_.num_shards, 1);
  TIRM_CHECK(options_.shard_index >= 0 &&
             options_.shard_index < options_.num_shards);
}

RrSampleStore::~RrSampleStore() = default;

std::uint64_t RrSampleStore::SignatureForAd(const ProblemInstance& instance,
                                            AdId ad) const {
  std::uint64_t h = kFnvOffsetBasis;
  if (instance.edge_probs().mode() == EdgeProbabilities::Mode::kShared) {
    // Topic-blind probabilities: every ad samples from the same per-edge
    // array.
    h ^= 0x51A7EDULL;
  } else {
    const std::span<const double> mass = instance.advertiser(ad).gamma.mass();
    h = HashBytes(h, mass.data(), mass.size() * sizeof(double));
    const auto topics = static_cast<std::uint64_t>(mass.size());
    h = HashBytes(h, &topics, sizeof(topics));
  }
  // Keep per-ad sample independence (the paper's per-ad R_j): salt with the
  // ad id so identically-distributed ads draw decorrelated pools.
  const auto id = static_cast<std::uint64_t>(ad);
  h = HashBytes(h, &id, sizeof(id));
  return FinalizeHash(h);
}

RrSampleStore::AdPool* RrSampleStore::Acquire(
    std::uint64_t signature, std::span<const float> edge_probs) {
  MutexLock lock(mutex_);
  auto it = entries_.find(signature);
  if (it == entries_.end()) {
    // Everything an entry needs is set in the AdPool constructor, before
    // the entry is published into the map — the immutable-after-creation
    // members (edge_probs_, builder_) therefore need no capability guard.
    auto entry = std::unique_ptr<AdPool>(
        new AdPool(*graph_, MixHash(options_.seed, signature), edge_probs));
    it = entries_.emplace(signature, std::move(entry)).first;
  } else {
    // A warm acquire must describe the same probabilities the pool was
    // sampled from — a mismatch means the signature scheme and the
    // caller's probabilities disagree.
    TIRM_DCHECK(it->second->edge_probs_.data() == edge_probs.data());
  }
  return it->second.get();
}

RrSampleStore::EnsureResult RrSampleStore::EnsureSets(
    AdPool* entry, std::uint64_t min_sets, std::uint64_t already_attached,
    int num_threads) {
  TIRM_CHECK(entry != nullptr);
  const int shards = options_.num_shards;
  const int shard = options_.shard_index;
  MutexLock lock(entry->mutex_);
  EnsureResult result;
  result.had_before = entry->pool_.NumSets();
  // In sharded mode the watermarks are global: project both onto this
  // shard's local id space before any accounting (identity when K == 1).
  const std::uint64_t local_min =
      ShardPrefixCount(min_sets, options_.chunk_sets, shards, shard);
  const std::uint64_t local_attached =
      ShardPrefixCount(already_attached, options_.chunk_sets, shards, shard);
  const std::uint64_t served = std::min(local_min, result.had_before);
  result.reused = served > local_attached ? served - local_attached : 0;
  reused_sets_.fetch_add(result.reused, std::memory_order_relaxed);
  if (local_min <= result.had_before) return result;

  obs::TraceSpan span("store_top_up");
  const std::uint64_t chunk = options_.chunk_sets;
  const std::uint64_t global_target = (min_sets + chunk - 1) / chunk;
  // Local chunk t materializes global chunk t*K + shard; this shard owns
  // ceil((global_target - shard) / K) of the global chunks below target.
  const auto k64 = static_cast<std::uint64_t>(shards);
  const std::uint64_t target_chunks =
      global_target > static_cast<std::uint64_t>(shard)
          ? (global_target - static_cast<std::uint64_t>(shard) + k64 - 1) / k64
          : 0;
  span.Counter("chunks",
               static_cast<double>(target_chunks - entry->chunks_sampled_));
  std::vector<Rng> masters;
  masters.reserve(target_chunks - entry->chunks_sampled_);
  for (std::uint64_t t = entry->chunks_sampled_; t < target_chunks; ++t) {
    // One independent substream per GLOBAL chunk index: chunk contents are
    // a pure function of (seed, signature, chunk_sets) — never of how θ
    // growth was split across EnsureSets calls, of the thread count, or of
    // the shard layout, so every K partitions the same global pool and K=1
    // reproduces it whole.
    const std::uint64_t c = t * k64 + static_cast<std::uint64_t>(shard);
    masters.emplace_back(MixHash(entry->base_seed_, 0x2000 + c));
  }
  // Every chunk of the top-up in one fan-out; then arena-direct adoption of
  // each part as it is, in chunk and part order (see the file comment).
  std::vector<std::vector<ParallelRrBuilder::Batch>> chunks =
      entry->builder_->SampleChunks(chunk, masters, num_threads);
  for (std::vector<ParallelRrBuilder::Batch>& parts : chunks) {
    std::uint64_t emitted = 0;
    for (ParallelRrBuilder::Batch& part : parts) {
      emitted += part.size();
      result.max_traversal = std::max(result.max_traversal,
                                      part.max_traversal);
      entry->pool_.AdoptChunk(std::move(part.nodes), std::move(part.offsets));
    }
    TIRM_CHECK_EQ(emitted, chunk);
  }
  entry->chunks_sampled_ = target_chunks;
  result.sampled = entry->pool_.NumSets() - result.had_before;
  sampled_sets_.fetch_add(result.sampled, std::memory_order_relaxed);
  top_ups_.fetch_add(1, std::memory_order_relaxed);
  span.Counter("sampled", static_cast<double>(result.sampled));
  span.Counter("reused", static_cast<double>(result.reused));
  // Registry mirrors of the store's lifetime counters — batch granularity,
  // never per set (PR 7 discipline: no extra work on the sampling loop).
  static obs::Counter& sampled_counter =
      obs::MetricsRegistry::Global().GetCounter("store.sampled_sets");
  static obs::Counter& top_up_counter =
      obs::MetricsRegistry::Global().GetCounter("store.top_ups");
  sampled_counter.Increment(result.sampled);
  top_up_counter.Increment();
  std::uint64_t seen = max_traversal_.load(std::memory_order_relaxed);
  while (result.max_traversal > seen &&
         !max_traversal_.compare_exchange_weak(seen, result.max_traversal,
                                               std::memory_order_relaxed)) {
  }
  return result;
}

const KptEstimator& RrSampleStore::EnsureKpt(
    AdPool* entry, const KptEstimator::Options& options, std::uint64_t s,
    bool* cache_hit, int num_threads) {
  TIRM_CHECK(entry != nullptr);
  MutexLock lock(entry->mutex_);
  kpt_estimations_.fetch_add(1, std::memory_order_relaxed);
  for (const AdPool::KptSlot& slot : entry->kpt_slots_) {
    if (slot.s == s && slot.options.ell == options.ell &&
        slot.options.max_samples == options.max_samples) {
      kpt_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      if (cache_hit != nullptr) *cache_hit = true;
      return *slot.estimator;
    }
  }
  static obs::Counter& miss_counter =
      obs::MetricsRegistry::Global().GetCounter("store.kpt_misses");
  miss_counter.Increment();
  // Miss: append a new estimator (never replace — references handed out
  // earlier must stay valid for the entry's lifetime).
  AdPool::KptSlot slot;
  slot.options = options;
  slot.s = s;
  slot.estimator = std::make_unique<KptEstimator>(entry->builder_.get(),
                                                  graph_->num_edges(), options);
  Rng kpt_rng(MixHash(entry->base_seed_, 0x1000));
  slot.estimator->Estimate(s, kpt_rng, num_threads);
  entry->kpt_slots_.push_back(std::move(slot));
  if (cache_hit != nullptr) *cache_hit = false;
  return *entry->kpt_slots_.back().estimator;
}

std::size_t RrSampleStore::NumEntries() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

std::size_t RrSampleStore::TotalArenaBytes() const {
  MutexLock lock(mutex_);
  std::size_t bytes = 0;
  for (const auto& kv : entries_) bytes += kv.second->pool_.MemoryBytes();
  return bytes;
}

SampleCacheStats RrSampleStore::LifetimeStats() const {
  SampleCacheStats stats;
  stats.reused_sets = reused_sets_.load(std::memory_order_relaxed);
  stats.sampled_sets = sampled_sets_.load(std::memory_order_relaxed);
  stats.top_ups = top_ups_.load(std::memory_order_relaxed);
  stats.kpt_cache_hits = kpt_cache_hits_.load(std::memory_order_relaxed);
  stats.kpt_estimations = kpt_estimations_.load(std::memory_order_relaxed);
  stats.max_traversal = max_traversal_.load(std::memory_order_relaxed);
  stats.arena_bytes = TotalArenaBytes();
  return stats;
}

}  // namespace tirm
