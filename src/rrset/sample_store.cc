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

std::uint64_t ShardLocalToGlobalSetId(std::uint64_t local_id,
                                      std::uint64_t chunk_sets,
                                      int num_shards, int shard) {
  TIRM_DCHECK(num_shards >= 1 && shard >= 0 && shard < num_shards);
  const std::uint64_t local_chunk = local_id / chunk_sets;
  const std::uint64_t global_chunk =
      local_chunk * static_cast<std::uint64_t>(num_shards) +
      static_cast<std::uint64_t>(shard);
  return global_chunk * chunk_sets + local_id % chunk_sets;
}

// ------------------------------------------------------------------ RrSetPool

RrSetPool::RrSetPool(NodeId num_nodes) : num_nodes_(num_nodes) {
  set_offsets_.push_back(0);
}

RrSetPool::~RrSetPool() = default;

void RrSetPool::ReserveSets(std::size_t num_sets) {
  set_begin_.reserve(num_sets);
  set_offsets_.reserve(num_sets + 1);
}

std::uint32_t RrSetPool::AdoptChunk(std::vector<NodeId>&& nodes,
                                    std::span<const std::size_t> offsets) {
  TIRM_CHECK(!offsets.empty());
  TIRM_CHECK_EQ(offsets.front(), 0u);
  TIRM_CHECK_EQ(offsets.back(), nodes.size());
  const auto first = static_cast<std::uint32_t>(NumSets());
  const std::size_t num_sets = offsets.size() - 1;
  if (num_sets == 0) return first;
  obs::TraceSpan span("adopt_chunk");
  span.Counter("sets", static_cast<double>(num_sets));
  span.Counter("nodes", static_cast<double>(nodes.size()));
  chunks_.push_back(std::move(nodes));
  const std::vector<NodeId>& chunk = chunks_.back();
  const std::size_t base = set_offsets_.back();
  // No reserve here: an exact per-part reserve re-copies both arrays on
  // every adopted part. Producers size them once (ReserveSets).
  for (std::size_t k = 0; k < num_sets; ++k) {
    set_begin_.push_back(chunk.data() + offsets[k]);
    set_offsets_.push_back(base + offsets[k + 1]);
  }
  return first;
}

const CoverageTranspose& RrSetPool::EnsureTranspose(std::uint32_t up_to) const {
  MutexLock lock(transpose_mutex_);
  obs::TraceSpan span("transpose_build");
  span.Counter("up_to", static_cast<double>(up_to));
  if (transpose_ == nullptr) {
    transpose_ = std::make_unique<CoverageTranspose>(num_nodes_);
  }
  transpose_->ExtendFromPool(*this, up_to);
  return *transpose_;
}

std::size_t RrSetPool::TransposeBytes() const {
  MutexLock lock(transpose_mutex_);
  return transpose_ == nullptr ? 0 : transpose_->MemoryBytes();
}

std::size_t RrSetPool::MemoryBytes() const {
  std::size_t bytes = set_offsets_.capacity() * sizeof(std::size_t) +
                      set_begin_.capacity() * sizeof(const NodeId*) +
                      chunks_.capacity() * sizeof(std::vector<NodeId>);
  for (const auto& chunk : chunks_) {
    bytes += chunk.capacity() * sizeof(NodeId);
  }
  return bytes + TransposeBytes();
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
  // Every local chunk holds exactly `chunk` sets, so the call's final set
  // count is known before sampling: size the per-set arrays once.
  entry->pool_.ReserveSets(target_chunks * chunk);
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
  // each part's flattened buffer, wholesale, in chunk and part order (see
  // the file comment).
  std::vector<std::vector<ParallelRrBuilder::Batch>> chunks =
      entry->builder_->SampleChunks(chunk, masters, num_threads);
  for (std::vector<ParallelRrBuilder::Batch>& parts : chunks) {
    std::uint64_t emitted = 0;
    for (ParallelRrBuilder::Batch& part : parts) {
      emitted += part.size();
      result.max_traversal = std::max(result.max_traversal,
                                      part.max_traversal);
      entry->pool_.AdoptChunk(std::move(part.nodes), part.offsets);
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
  for (const auto& kv : entries_) {
    // The per-entry mutex orders this read against concurrent top-up
    // growth (metrics pollers call this from other threads); the store
    // mutex alone only protects the entry map. Lock order store -> entry
    // matches every other path.
    AdPool* const entry = kv.second.get();
    MutexLock entry_lock(entry->mutex_);
    bytes += entry->pool_.MemoryBytes();
  }
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
