// RrShardClient — the coordinator's handle on one sampling/coverage shard.
//
// The distributed TIRM plane (GreeDIMM shape, see rrset/sharded_store.h and
// alloc/tirm.cc) splits each ad's RR-set pool across K shards. The
// coordinator never touches shard pools directly; it drives K of these
// clients:
//
//   BeginRun      — per-run handshake (store parameters + KPT knobs)
//   EnsureSets    — grow the shard's owned chunks toward a GLOBAL θ
//   Attach        — expose a global pool prefix to the shard's view
//   KptEstimate   — KPT*(s) from shard 0's width cache (every shard derives
//                   the same per-ad base seed, so shard 0's estimate equals
//                   the single-store one bit for bit)
//   Summarize     — top-L marginal-gain summary for the tree reduction
//   CoverageCounts/DenseCoverage — exact local marginals on demand
//   Commit/CommitOnRange — apply a selected seed; returns how many local
//                   sets it newly covered, which the coordinator sums
//   Retire        — a node's global attention budget is exhausted
//   MemoryStats   — the shard's pool and view bytes
//
// Eligibility is commit-derived: a shard considers node u eligible for ad j
// unless the coordinator committed u for j (Commit) or retired u globally
// (Retire). Since the coordinator applies those exactly when its own
// eligibility tightens, shard-side and coordinator-side eligibility agree
// at every round — no query state (κ, λ, budgets) ever crosses the shard
// boundary, which is what lets workers serve any query from one mmap'ed
// bundle.
//
// LocalShardClient adapts the interface onto an in-process RrSampleStore
// (one shard of a ShardedRrSampleStore). RemoteShardClient
// (serve/shard_remote.h) speaks the same ops over NDJSON to a
// `tirm_server --mode=shard_worker` process.
//
// Thread safety: a client instance is driven by one coordinator thread at
// a time; the per-shard fan-out runs different CLIENTS on different
// threads, never one client on two.

#ifndef TIRM_RRSET_SHARD_CLIENT_H_
#define TIRM_RRSET_SHARD_CLIENT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "rrset/kpt_estimator.h"
#include "rrset/rr_collection.h"
#include "rrset/sample_store.h"

namespace tirm {

class ProblemInstance;  // topic/instance.h

/// Per-run handshake. Everything a shard needs that is not derivable from
/// its bundle/graph: the store identity (seed and chunking — with the
/// shard coordinates, the pool contents are a pure function of both) and
/// the run's KPT knobs. A local client validates these against its store;
/// a remote client ships them to the worker, which creates or reuses a
/// matching shard store. How many threads sample is the shard's own
/// setting, never part of the handshake: it does not change a pool.
struct ShardRunConfig {
  int num_ads = 0;
  std::uint64_t store_seed = 0;
  std::uint64_t chunk_sets = 4096;
  double kpt_ell = 1.0;
  std::uint64_t kpt_max_samples = 1 << 17;
};

/// Shard-side memory accounting (MemoryStats op).
struct ShardMemoryStats {
  std::size_t arena_bytes = 0;  ///< pooled sets, each distinct pool once
  std::size_t view_bytes = 0;   ///< per-run coverage views + heaps
};

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
};

/// Pairwise binary-tree reduction of shard summaries. All merges are
/// associative integer sums / sorted unions, so the result is
/// deterministic and independent of tree shape; shard indices must be
/// distinct and < 64.
ReducedGainSummary TreeReduceGainSummaries(
    std::span<const ShardGainSummary> parts);

/// See file comment.
class RrShardClient {
 public:
  virtual ~RrShardClient();

  /// Resets per-run state (views, eligibility) and binds the run's store
  /// parameters. Must be called before any other op of a run.
  [[nodiscard]] virtual Status BeginRun(const ShardRunConfig& run) = 0;

  /// Grows ad's local pool toward the GLOBAL watermark `global_min_sets`
  /// (see RrSampleStore::EnsureSets sharded semantics). Counts in the
  /// result are shard-local.
  [[nodiscard]] virtual Result<RrSampleStore::EnsureResult> EnsureSets(
      AdId ad, std::uint64_t global_min_sets,
      std::uint64_t global_already_attached) = 0;

  /// KPT*(s) for `ad` from this shard's width cache. The first call per
  /// run samples the widths (or hits the store's cross-run cache —
  /// `cache_hit`, optional); later calls re-evaluate the cached widths for
  /// any s without sampling, exactly like KptEstimator::ReEstimate.
  [[nodiscard]] virtual Result<double> KptEstimate(
      AdId ad, std::uint64_t s, bool* cache_hit = nullptr) = 0;

  /// Exposes the local prefix of the first `global_count` global sets to
  /// the ad's coverage view and refreshes its CELF heap.
  [[nodiscard]] virtual Status Attach(AdId ad, std::uint64_t global_count) = 0;

  /// Top-`top_l` marginal-gain summary of the ad's eligible nodes (see
  /// ShardGainSummary above). Does not mutate coverage state.
  [[nodiscard]] virtual Result<ShardGainSummary> Summarize(
      AdId ad, std::uint32_t top_l) = 0;

  /// Exact local marginal coverage of each node in `nodes`.
  [[nodiscard]] virtual Result<std::vector<std::uint32_t>> CoverageCounts(
      AdId ad, std::span<const NodeId> nodes) = 0;

  /// Exact local marginal coverage of EVERY node (one dense pass) — the
  /// coordinator's fallback-scan path.
  [[nodiscard]] virtual Result<std::vector<std::uint32_t>> DenseCoverage(
      AdId ad) = 0;

  /// Commits seed `v` for `ad` (marks covered sets, makes v ineligible
  /// for this ad) and returns how many local sets it newly covered.
  [[nodiscard]] virtual Result<std::uint64_t> Commit(AdId ad, NodeId v) = 0;

  /// Commit restricted to global set ids >= `global_first_set`
  /// (UpdateEstimates attribution of freshly attached sets).
  [[nodiscard]] virtual Result<std::uint64_t> CommitOnRange(
      AdId ad, NodeId v, std::uint64_t global_first_set) = 0;

  /// Marks `v` ineligible for EVERY ad (its global attention budget is
  /// exhausted). Permanent for the run.
  [[nodiscard]] virtual Status Retire(NodeId v) = 0;

  /// Shard-side memory accounting for this run's ads.
  [[nodiscard]] virtual Result<ShardMemoryStats> MemoryStats() = 0;
};

/// In-process shard client over one shard-configured RrSampleStore.
/// `store` and `instance` must outlive the client; the instance is used
/// only for query-independent data (ad signatures and edge probabilities).
/// The client samples on up to `num_threads` threads (common/threading.h
/// semantics): the run's count in process, the worker's own `--threads`
/// behind a shard worker.
class LocalShardClient final : public RrShardClient {
 public:
  LocalShardClient(RrSampleStore* store, const ProblemInstance* instance,
                   int num_threads);
  ~LocalShardClient() override;

  [[nodiscard]] Status BeginRun(const ShardRunConfig& run) override;
  [[nodiscard]] Result<RrSampleStore::EnsureResult> EnsureSets(
      AdId ad, std::uint64_t global_min_sets,
      std::uint64_t global_already_attached) override;
  [[nodiscard]] Result<double> KptEstimate(AdId ad, std::uint64_t s,
                                           bool* cache_hit) override;
  [[nodiscard]] Status Attach(AdId ad, std::uint64_t global_count) override;
  [[nodiscard]] Result<ShardGainSummary> Summarize(
      AdId ad, std::uint32_t top_l) override;
  [[nodiscard]] Result<std::vector<std::uint32_t>> CoverageCounts(
      AdId ad, std::span<const NodeId> nodes) override;
  [[nodiscard]] Result<std::vector<std::uint32_t>> DenseCoverage(
      AdId ad) override;
  [[nodiscard]] Result<std::uint64_t> Commit(AdId ad, NodeId v) override;
  [[nodiscard]] Result<std::uint64_t> CommitOnRange(
      AdId ad, NodeId v, std::uint64_t global_first_set) override;
  [[nodiscard]] Status Retire(NodeId v) override;
  [[nodiscard]] Result<ShardMemoryStats> MemoryStats() override;

 private:
  struct AdSlot {
    RrSampleStore::AdPool* entry = nullptr;
    std::unique_ptr<RrCollection> view;
    std::unique_ptr<CoverageHeap> heap;
    const KptEstimator* kpt = nullptr;
    std::vector<std::uint8_t> in_seed_set;
  };

  int shard_index() const { return store_->options().shard_index; }
  int num_shards() const { return store_->options().num_shards; }

  /// Lazily acquires the ad's pool entry + coverage view.
  Status EnsureAd(AdId ad);

  RrSampleStore* store_;
  const ProblemInstance* instance_;
  const int num_threads_;
  ShardRunConfig run_;
  bool run_active_ = false;
  std::vector<AdSlot> slots_;
  std::vector<std::uint8_t> retired_;
};

}  // namespace tirm

#endif  // TIRM_RRSET_SHARD_CLIENT_H_
