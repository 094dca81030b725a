#include "rrset/sharded_store.h"

namespace tirm {

ShardedRrSampleStore::ShardedRrSampleStore(const Graph* graph,
                                           RrSampleStore::Options base,
                                           int num_shards) {
  TIRM_CHECK_GE(num_shards, 1);
  base.num_shards = num_shards;
  base.shard_index = 0;
  base_ = base;
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int k = 0; k < num_shards; ++k) {
    RrSampleStore::Options options = base;
    options.shard_index = k;
    shards_.push_back(std::make_unique<RrSampleStore>(graph, options));
  }
}

SampleCacheStats ShardedRrSampleStore::LifetimeStats() const {
  SampleCacheStats total;
  for (const auto& store : shards_) total.Add(store->LifetimeStats());
  return total;
}

std::size_t ShardedRrSampleStore::TotalArenaBytes() const {
  std::size_t bytes = 0;
  for (const auto& store : shards_) bytes += store->TotalArenaBytes();
  return bytes;
}

}  // namespace tirm
