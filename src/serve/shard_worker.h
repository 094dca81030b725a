// Shard-worker side of the distributed TIRM plane.
//
// A `tirm_server --mode=shard_worker --shard_index=k --num_shards=K`
// process owns the shard-k slice of the global RR-sample pool for one
// mmap'ed bundle. ShardWorkerContext holds what outlives any connection:
// the query-independent base instance, the worker's sampling thread count
// (its own `--threads`, a deployment setting that never changes a pool),
// and a cache of shard-configured RrSampleStores keyed by the store
// identity, so consecutive runs (and router reconnects) reuse warm pools
// exactly like the in-process engine does. ShardWorkerSession is one
// coordinator conversation: it turns each NDJSON request line into a
// response line by driving a LocalShardClient, with every failure reported
// in-band (serve/shard_protocol.h) — a worker never kills the connection
// over a bad request.
//
// Thread safety: the context is shared across sessions, its store cache is
// mutex-guarded, and its stores are safe to share (rrset/sample_store.h).
// A session is single-threaded: it is one coordinator's conversation over
// one wire, a synchronous request/response line stream whose state (the
// bound LocalShardClient and its views) belongs to that coordinator alone.
// A worker process therefore serves one coordinator at a time.

#ifndef TIRM_SERVE_SHARD_WORKER_H_
#define TIRM_SERVE_SHARD_WORKER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "rrset/sample_store.h"
#include "rrset/shard_client.h"
#include "topic/instance.h"

namespace tirm {
namespace serve {

/// Process-wide shard state shared by every session. `instance` must
/// outlive the context and is used only for query-independent data (ad
/// signatures, edge probabilities) — no query knob ever reaches a worker.
class ShardWorkerContext {
 public:
  /// `num_threads` is how many threads the worker samples on
  /// (common/threading.h semantics).
  ShardWorkerContext(const ProblemInstance* instance, int shard_index,
                     int num_shards, int num_threads);

  ShardWorkerContext(const ShardWorkerContext&) = delete;
  ShardWorkerContext& operator=(const ShardWorkerContext&) = delete;

  const ProblemInstance& instance() const { return *instance_; }
  int shard_index() const { return shard_index_; }
  int num_shards() const { return num_shards_; }
  int num_threads() const { return num_threads_; }

  /// The shard store for `run`'s store identity, created on first use.
  /// Pools are a pure function of (seed, chunking, shard coordinates), so
  /// keying the cache by the first two (the coordinates are fixed per
  /// worker) keeps reuse bit-safe across runs.
  [[nodiscard]] RrSampleStore* GetOrCreateStore(const ShardRunConfig& run)
      TIRM_EXCLUDES(mutex_);

 private:
  using StoreKey = std::pair<std::uint64_t, std::uint64_t>;

  const ProblemInstance* instance_;
  const int shard_index_;
  const int num_shards_;
  const int num_threads_;
  mutable Mutex mutex_;
  std::map<StoreKey, std::unique_ptr<RrSampleStore>> stores_
      TIRM_GUARDED_BY(mutex_);
};

/// One coordinator conversation (see file comment).
class ShardWorkerSession {
 public:
  explicit ShardWorkerSession(ShardWorkerContext* context);

  ShardWorkerSession(const ShardWorkerSession&) = delete;
  ShardWorkerSession& operator=(const ShardWorkerSession&) = delete;

  /// Serves one request line; always returns exactly one response line
  /// (errors travel in-band as {"ok":false,...}).
  std::string HandleLine(std::string_view line);

 private:
  /// HandleLine minus the error envelope: the Status of a failed op
  /// becomes the error response.
  Result<std::string> Dispatch(std::string_view line);

  ShardWorkerContext* context_;
  /// Bound by the "begin" op; ops before it are FailedPrecondition.
  std::unique_ptr<LocalShardClient> client_;
};

}  // namespace serve
}  // namespace tirm

#endif  // TIRM_SERVE_SHARD_WORKER_H_
