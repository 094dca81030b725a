// RrSampleStore — pooled, reusable RR-set samples decoupled from allocation.
//
// The dominant cost of TIM/TIRM is RR-set sampling (§5), yet the samples
// for ad i depend only on the graph and the ad's Eq. 1 edge probabilities
// (i.e. its topic mixture γ_i) — not on λ, κ, β, or budgets. The store
// exploits that: it owns one immutable, append-only pool of RR sets per
// *ad signature* (hash of γ_i, salted with the ad id so every ad keeps its
// own independent pool), and every consumer — a TIRM run, a sweep
// point, a second allocator in a head-to-head — borrows read-only spans
// from the same physical copy instead of resampling.
//
// Determinism. Each pooled ad samples from its own seed (derived from the
// store seed and the ad signature) in fixed-size chunks, where chunk c has
// its own RNG substream. Growing a pool to θ in one EnsureSets call or in
// several therefore yields bit-identical pools (top-up granularity is the
// chunk), and a run served from a warm pool is bit-identical to a run that
// sampled the pool fresh. ParallelRrBuilder splits every chunk into a fixed
// part layout, so the sampling-thread count — an argument of each
// EnsureSets/EnsureKpt call — never changes a pool: calls at different
// thread counts share one pool, even while they race.
//
// Thread safety. Everything is internally synchronized, reads included.
// The store mutex guards the key map; one mutex per entry serializes its
// top-ups and KPT estimation, so concurrent EnsureSets/EnsureKpt calls —
// same ad or different ads — are safe; and each pool guards its own parts
// and index with a mutex of its own (RrSetPool below). Any thread may
// therefore read a pool prefix that a completed EnsureSets call returned
// while other threads top up the same pool or extend its index: what a
// reader gets — member spans and index segments — is never written or
// moved again. Lock order is store, then entry, then pool.
//
// Arena-direct top-up. Sets enter a pool one way only: EnsureSets builds
// the master Rng of every chunk the top-up needs and samples them all in
// one ParallelRrBuilder::SampleChunks call — one fan-out per top-up, so the
// sampling threads start once, not once per chunk. Each part the builder
// returns is then *adopted* by the pool as it is (RrSetPool::AdoptChunk —
// its node buffer and its offsets move in, no per-set copy), in chunk and
// part order. The pool's one node -> set index is the CSR transpose
// (rrset/coverage_bitmap.h), built lazily from the members on first
// coverage use.
//
// Memory accounting is byte-accurate from container capacities (members +
// offsets + index), not process RSS — this is what the Table 4 experiment
// reports.

#ifndef TIRM_RRSET_SAMPLE_STORE_H_
#define TIRM_RRSET_SAMPLE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "graph/graph.h"
#include "rrset/coverage_bitmap.h"
#include "rrset/kpt_estimator.h"

namespace tirm {

/// Kept only so bench_suite/bench_suite.cc, which names them in its store
/// options, builds unchanged: RR sampling has one kernel, and nothing reads
/// RrSampleStore::Options::sampler_kernel.
enum class SamplerKernel : std::uint8_t { kAuto };
constexpr SamplerKernel ResolveSamplerKernel(SamplerKernel kernel) {
  return kernel;
}

class ParallelRrBuilder;  // rrset/parallel_rr_builder.h
class ProblemInstance;    // topic/instance.h

/// Chunk-interleaved shard ownership: global sampling chunk c belongs to
/// shard c % num_shards (chunk contents are independent of the shard
/// layout, so every K partitions the SAME global pool). Returns how many
/// of the global set ids [0, watermark) shard `shard` owns — i.e. the
/// local pool prefix that serves a global watermark. Identity for
/// num_shards == 1.
std::uint64_t ShardPrefixCount(std::uint64_t watermark,
                               std::uint64_t chunk_sets, int num_shards,
                               int shard);

/// Append-only storage of RR sets, and the one module that decides who may
/// read it while it grows. Each adopted part stays as ParallelRrBuilder
/// made it — its flattened members and its own offsets — and a set is
/// found by a binary search over the parts' first ids. One mutex guards the
/// parts and the CSR node -> set index, and every accessor takes it, so
/// reads may overlap adoption and index extension: a member span or an
/// index segment, once handed out, is never written or moved again.
/// Coverage views (RrCollection / WeightedRrCollection) borrow both
/// instead of copying nodes.
class RrSetPool {
 public:
  explicit RrSetPool(NodeId num_nodes);
  ~RrSetPool();

  /// Adopts one part in the ParallelRrBuilder layout (set k occupies
  /// nodes[offsets[k] .. offsets[k+1]), offsets.front() == 0,
  /// offsets.back() == nodes.size()): both buffers move in as they are, no
  /// per-set copy. The sets get the next dense ids in order. Returns the id
  /// of the first adopted set. The only way sets enter a pool.
  std::uint32_t AdoptChunk(std::vector<NodeId> nodes,
                           std::vector<std::size_t> offsets)
      TIRM_EXCLUDES(mutex_);

  std::size_t NumSets() const TIRM_EXCLUDES(mutex_);
  NodeId num_nodes() const { return num_nodes_; }

  /// Members of set `id`. The span is stable for the pool's lifetime: a
  /// part's node buffer never moves once adopted.
  std::span<const NodeId> SetMembers(std::uint32_t id) const
      TIRM_EXCLUDES(mutex_);

  /// The index segments covering the first `up_to` sets, after indexing
  /// those of them not yet indexed as one new segment. The list is the
  /// caller's; the segments live as long as the pool.
  CoverageTranspose EnsureTranspose(std::uint32_t up_to) const
      TIRM_EXCLUDES(mutex_);

  /// Bytes of the index (0 until first EnsureTranspose); included in
  /// MemoryBytes().
  std::size_t TransposeBytes() const TIRM_EXCLUDES(mutex_);

  /// Exact bytes of the members, the offsets and the index, from container
  /// capacities: 4 B per member and 8 B per set and per part, plus the
  /// index. The part directory, a few dozen bytes per part, is left out.
  std::size_t MemoryBytes() const TIRM_EXCLUDES(mutex_);

 private:
  struct Part {
    std::uint32_t first_set = 0;       // id of the part's first set
    std::vector<NodeId> nodes;         // flattened members
    std::vector<std::size_t> offsets;  // part-local, one per set plus one
  };

  /// Index into parts_ of the part holding set `id`.
  std::size_t PartOf(std::uint32_t id) const TIRM_REQUIRES(mutex_);
  /// Builds the index segment of sets [first, end) by a counting sort over
  /// their members.
  std::unique_ptr<const CoverageSegment> BuildSegment(std::uint32_t first,
                                                      std::uint32_t end) const
      TIRM_REQUIRES(mutex_);
  std::size_t TransposeBytesLocked() const TIRM_REQUIRES(mutex_);

  const NodeId num_nodes_;
  mutable Mutex mutex_;
  std::uint32_t num_sets_ TIRM_GUARDED_BY(mutex_) = 0;
  std::vector<Part> parts_ TIRM_GUARDED_BY(mutex_);
  // The lazily built index — logically const derived state, hence
  // buildable through const accessors.
  mutable std::vector<std::unique_ptr<const CoverageSegment>> segments_
      TIRM_GUARDED_BY(mutex_);
};

/// Sample-reuse diagnostics of one allocator run (surfaced through
/// AllocationResult) or of a whole store lifetime.
struct SampleCacheStats {
  /// Sets this run consumed that were already pooled (no sampling paid).
  std::uint64_t reused_sets = 0;
  /// Sets sampled fresh (includes chunk-rounding overshoot, which stays
  /// pooled for later consumers).
  std::uint64_t sampled_sets = 0;
  /// EnsureSets calls that actually grew a pool.
  std::uint64_t top_ups = 0;
  /// KPT estimations served from cached width samples / total requested.
  std::uint64_t kpt_cache_hits = 0;
  std::uint64_t kpt_estimations = 0;
  /// Exact pooled bytes backing this run's ads (each pool counted once).
  std::size_t arena_bytes = 0;
  /// Per-run coverage-view bookkeeping bytes (not shared).
  std::size_t view_bytes = 0;
  /// True when the run borrowed an engine-owned (cross-run) store.
  bool shared_store = false;
  /// Largest reverse-BFS traversal (visited nodes) over every batch this
  /// run (or store lifetime) sampled; 0 when nothing was sampled. A tail
  /// indicator for θ sizing: sets are small on sparse instances, but one
  /// giant traversal dominates a batch's latency.
  std::uint64_t max_traversal = 0;

  /// Adds `other` into this (max_traversal takes the larger, shared_store
  /// is or'ed): the one way the stats of several stores are totalled.
  void Add(const SampleCacheStats& other);
};

/// See file comment.
class RrSampleStore {
 public:
  struct Options {
    /// Sampling seed. Pool contents are a pure function of
    /// (seed, signature, chunk_sets, shard coordinates).
    std::uint64_t seed = 0x5EEDD00DULL;
    /// Threads of the EnsureSets/EnsureKpt calls that pass no count (0 =
    /// hardware concurrency); never changes a pool. The library passes a
    /// count per call: only bench_suite/bench_suite.cc sets this field.
    int num_threads = 1;
    /// Top-up granularity: pools grow in whole chunks so the sampled
    /// prefix never depends on how θ growth was split across calls.
    std::uint64_t chunk_sets = 4096;
    /// Unused; see SamplerKernel above.
    SamplerKernel sampler_kernel = SamplerKernel::kAuto;
    /// Shard coordinates for distributed sampling (rrset/sharded_store.h).
    /// The global chunk sequence is interleaved across shards — global
    /// chunk c belongs to shard c % num_shards and keeps its single-store
    /// RNG substream — so the union of the K shard pools is bit-identical
    /// to the pool a default (1-shard) store with the same seed samples,
    /// for every K. A sharded store's EnsureSets still takes GLOBAL
    /// watermarks but grows (and reports) only the chunks this shard owns.
    int num_shards = 1;
    int shard_index = 0;
  };

  /// One pooled ad: sets + sampling state + cached KPT widths. Opaque
  /// except for read access to the pool.
  class AdPool {
   public:
    /// The pooled sets. The pool guards its own growth, so the caller may
    /// read them while another thread tops this entry up.
    const RrSetPool& sets() const { return pool_; }
    ~AdPool();

   private:
    friend class RrSampleStore;
    AdPool(const Graph& graph, std::uint64_t base_seed,
           std::span<const float> edge_probs);

    Mutex mutex_;  // serializes top-ups and KPT estimation
    RrSetPool pool_;
    std::uint64_t chunks_sampled_ TIRM_GUARDED_BY(mutex_) = 0;

    // Immutable after the constructor (set before the entry is published
    // out of RrSampleStore::Acquire), hence unguarded.
    std::uint64_t base_seed_;
    std::span<const float> edge_probs_;
    std::unique_ptr<ParallelRrBuilder> builder_;

    // One estimator per requested (options, s) — appended, never replaced,
    // so references handed out by EnsureKpt stay valid for the entry's
    // lifetime even when later calls use different options.
    struct KptSlot {
      KptEstimator::Options options;
      std::uint64_t s = 0;
      std::unique_ptr<KptEstimator> estimator;
    };
    std::vector<KptSlot> kpt_slots_ TIRM_GUARDED_BY(mutex_);
  };

  /// Outcome of one EnsureSets call.
  struct EnsureResult {
    std::uint64_t had_before = 0;  ///< pool size when the call started
    std::uint64_t sampled = 0;     ///< sets sampled by this call
    /// Pooled sets newly served to the caller without sampling:
    /// min(min_sets, had_before) minus the caller's prior watermark.
    std::uint64_t reused = 0;
    /// Largest traversal over the batches this call sampled (0 on a pure
    /// reuse hit).
    std::uint64_t max_traversal = 0;
  };

  /// The store serves exactly one graph; `graph` must outlive it.
  RrSampleStore(const Graph* graph, Options options);
  ~RrSampleStore();

  RrSampleStore(const RrSampleStore&) = delete;
  RrSampleStore& operator=(const RrSampleStore&) = delete;

  /// Pool key for ad `ad` of `instance`: a stable hash of the ad's topic
  /// distribution (of the topic-blind marker in kShared probability mode),
  /// salted with the ad id, so every ad keeps a statistically independent
  /// pool (the paper's per-ad R_j). Stable across queries derived from one
  /// BuiltInstance, so sweep points and head-to-head allocator runs hit
  /// the same pools.
  std::uint64_t SignatureForAd(const ProblemInstance& instance,
                               AdId ad) const;

  /// Returns the entry for `signature`, creating it on first use.
  /// `edge_probs` is the ad's Eq. 1 probability array; it must stay alive
  /// while the store can still top this entry up (instances sharing a
  /// materialized probability cache guarantee that). Thread-safe.
  AdPool* Acquire(std::uint64_t signature, std::span<const float> edge_probs)
      TIRM_EXCLUDES(mutex_);

  /// Grows `entry`'s pool to at least `min_sets` sets (rounded up to whole
  /// chunks; no-op when already large enough). `already_attached` is the
  /// caller's current watermark into this pool (0 for a fresh consumer) —
  /// only sets beyond it count toward the reuse statistics, so a run's
  /// incremental θ growth is not double-counted. Thread-safe; concurrent
  /// calls for one entry serialize and the pool content is independent of
  /// how the growth was split across calls and of how many threads
  /// (`num_threads`, common/threading.h semantics) each call sampled on.
  ///
  /// Sharded stores (options().num_shards > 1): `min_sets` and
  /// `already_attached` stay GLOBAL watermarks — the call grows the local
  /// pool to ShardPrefixCount(min_sets) by sampling only the global chunks
  /// this shard owns (with their single-store substreams), and the counts
  /// in the result are local set counts.
  EnsureResult EnsureSets(AdPool* entry, std::uint64_t min_sets,
                          std::uint64_t already_attached, int num_threads)
      TIRM_EXCLUDES(entry->mutex_);
  /// EnsureSets at options().num_threads threads.
  EnsureResult EnsureSets(AdPool* entry, std::uint64_t min_sets,
                          std::uint64_t already_attached = 0)
      TIRM_EXCLUDES(entry->mutex_) {
    return EnsureSets(entry, min_sets, already_attached, options_.num_threads);
  }

  /// KPT estimation over `entry`'s sampling streams, cached: the geometric
  /// width sampling runs once per (options, s) and later calls reuse the
  /// cached widths (ReEstimate on the returned estimator answers any other
  /// s without sampling). Thread-safe. `cache_hit` (may be null) reports
  /// whether sampling was skipped. A miss samples on up to `num_threads`
  /// threads; the widths do not depend on how many.
  const KptEstimator& EnsureKpt(AdPool* entry,
                                const KptEstimator::Options& options,
                                std::uint64_t s, bool* cache_hit,
                                int num_threads) TIRM_EXCLUDES(entry->mutex_);
  /// EnsureKpt at options().num_threads threads.
  const KptEstimator& EnsureKpt(AdPool* entry,
                                const KptEstimator::Options& options,
                                std::uint64_t s, bool* cache_hit = nullptr)
      TIRM_EXCLUDES(entry->mutex_) {
    return EnsureKpt(entry, options, s, cache_hit, options_.num_threads);
  }

  const Graph* graph() const { return graph_; }
  const Options& options() const { return options_; }

  std::size_t NumEntries() const TIRM_EXCLUDES(mutex_);
  /// Exact bytes across every pooled entry. Safe to call concurrently
  /// with top-ups, so metrics pollers may read from any thread.
  std::size_t TotalArenaBytes() const TIRM_EXCLUDES(mutex_);
  /// Store-lifetime counters (reused/sampled/top-ups/KPT hits). Same
  /// thread-safety as TotalArenaBytes.
  SampleCacheStats LifetimeStats() const TIRM_EXCLUDES(mutex_);

 private:
  const Graph* graph_;
  Options options_;

  mutable Mutex mutex_;
  std::unordered_map<std::uint64_t, std::unique_ptr<AdPool>> entries_
      TIRM_GUARDED_BY(mutex_);

  std::atomic<std::uint64_t> reused_sets_{0};
  std::atomic<std::uint64_t> sampled_sets_{0};
  std::atomic<std::uint64_t> top_ups_{0};
  std::atomic<std::uint64_t> kpt_cache_hits_{0};
  std::atomic<std::uint64_t> kpt_estimations_{0};
  std::atomic<std::uint64_t> max_traversal_{0};
};

}  // namespace tirm

#endif  // TIRM_RRSET_SAMPLE_STORE_H_
