// ShardedRrSampleStore — one logical RR-sample pool partitioned across K
// shard-local RrSampleStores (the GreeDIMM shape, without MPI).
//
// Each shard owns a private chunked arena and lazy CSR node -> set index
// (CoverageTranspose) for the global chunks it is responsible for: global
// sampling chunk c belongs to shard c % K, and keeps the exact RNG
// substream a single store would use for it (see ShardPrefixCount /
// RrSampleStore::Options::num_shards). Chunk contents are therefore
// independent of K — the union of the K shard pools IS the single-store
// pool, bit for bit, and K = 1 degenerates to a plain RrSampleStore.
//
// The sharded store is a sampling-plane container only: it holds the K
// stores and aggregates their statistics. Coordination — fanning θ growth,
// reducing per-shard marginal-gain summaries, committing the global argmax
// back to every shard — lives in RrShardClient (rrset/shard_client.h) and
// the TIRM coordinator (alloc/tirm.cc). Thread safety is per shard: the
// underlying stores synchronize their own entries, and concurrent top-ups
// of DIFFERENT shards never share mutable state, which is what makes the
// per-shard fan-out parallel.

#ifndef TIRM_RRSET_SHARDED_STORE_H_
#define TIRM_RRSET_SHARDED_STORE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/check.h"
#include "rrset/sample_store.h"

namespace tirm {

/// See file comment.
class ShardedRrSampleStore {
 public:
  /// Builds K shard stores from `base` (whose shard fields are
  /// overwritten with (k, num_shards) per shard). `graph` must outlive
  /// the store. num_shards >= 1.
  ShardedRrSampleStore(const Graph* graph, RrSampleStore::Options base,
                       int num_shards);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  std::uint64_t seed() const { return base_.seed; }
  const RrSampleStore::Options& base_options() const { return base_; }

  RrSampleStore& shard(int k) {
    TIRM_DCHECK(k >= 0 && k < num_shards());
    return *shards_[static_cast<std::size_t>(k)];
  }
  const RrSampleStore& shard(int k) const {
    TIRM_DCHECK(k >= 0 && k < num_shards());
    return *shards_[static_cast<std::size_t>(k)];
  }

  /// Lifetime counters summed over every shard (counts are per real local
  /// set, so the totals match what a single store would report for the
  /// same global watermarks).
  SampleCacheStats LifetimeStats() const;
  /// Exact pooled bytes across all shards.
  std::size_t TotalArenaBytes() const;

 private:
  RrSampleStore::Options base_;
  std::vector<std::unique_ptr<RrSampleStore>> shards_;
};

}  // namespace tirm

#endif  // TIRM_RRSET_SHARDED_STORE_H_
