// Parallel RR/RRC-set generation (the dominant cost of TIM/TIRM, §5).
//
// RrSampler is deliberately "not thread-safe; create one per thread" — this
// builder does exactly that: it owns one RrSampler per worker slot and fans
// sampling out over up to N threads, N given per call. The unit of work is
// a *chunk*: `count` sets drawn from one master Rng. SampleChunks takes the
// masters of every chunk a caller is about to sample (RrSampleStore passes
// all the chunks of one top-up) and samples them in ONE fan-out, so threads
// start once per call, not once per chunk. The sets are a pure function of
// (master RNG states, count); the thread count only decides how many
// threads run the work:
//
//  * each chunk splits into a fixed layout: kChunkParts parts when `count`
//    is at least kMinSplitChunkSets, else one part, with quotas that differ
//    by at most one; part p of chunk c samples from masters[c].Fork(p),
//    forked in (chunk, part) order on the calling thread (Rng::Fork is
//    deterministic in state and salt);
//  * the chunk x part tasks run on min(N, tasks) threads, the calling thread
//    among them: thread i runs tasks i, i+S, i+2S, ... (S threads) on its
//    own sampler slot; a sampler keeps no random state between sets, so a
//    part is a pure function of (chunk master, part index) whichever thread
//    runs it;
//  * parts are returned grouped by chunk, in part order, so the result is
//    byte-identical at every N and however the OS schedules the threads,
//    and one call over M masters equals M one-master calls.
//
// Two outputs, one per consumer: SampleChunks returns each part's flattened
// sets in exact-size buffers, which RrSampleStore top-up moves into the pool
// as they are (RrSetPool::AdoptChunk — no merge copy); SampleWidths, the
// one-chunk case of the same fan-out, returns only the TIM widths w(R) (sum
// of in-degrees over the traversal) that KPT estimation needs.

#ifndef TIRM_RRSET_PARALLEL_RR_BUILDER_H_
#define TIRM_RRSET_PARALLEL_RR_BUILDER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "rrset/rr_sampler.h"

namespace tirm {

/// Fans RR/RRC-set sampling out over worker threads; deterministic in
/// (master seeds, chunk size) at every thread count. Reusable across calls;
/// not itself thread-safe (one builder per orchestrating thread).
class ParallelRrBuilder {
 public:
  /// Parts of a chunk of at least kMinSplitChunkSets sets. Fixed, so that
  /// the sets do not depend on how many threads sample them.
  static constexpr std::size_t kChunkParts = 4;
  /// Chunks smaller than this are sampled as one part (one task) —
  /// splitting them would cost more than the sampling work they hold.
  static constexpr std::uint64_t kMinSplitChunkSets = 256;

  /// One part of a sampled chunk. SampleChunks fills the sets
  /// (set k occupies nodes[offsets[k] .. offsets[k+1])); SampleWidths fills
  /// only the per-set widths.
  struct Batch {
    std::vector<std::size_t> offsets;   // size() + 1 entries
    std::vector<NodeId> nodes;          // flattened members
    std::vector<std::uint64_t> widths;  // per set, TIM w(R)
    /// Largest reverse-BFS traversal (visited nodes) over the part's sets
    /// (a byproduct of sampling, kept by both outputs).
    std::uint64_t max_traversal = 0;

    std::size_t size() const {
      return offsets.empty() ? widths.size() : offsets.size() - 1;
    }
    std::span<const NodeId> Set(std::size_t k) const {
      TIRM_DCHECK(k < size());
      return {nodes.data() + offsets[k], offsets[k + 1] - offsets[k]};
    }
  };

  /// Plain RR-set builder (RrSampler::Mode::kPlain).
  ParallelRrBuilder(const Graph& graph, std::span<const float> edge_probs);

  /// RRC-set builder with node-level CTP coins; `node_ctps[v]` = δ(v), one
  /// float per node (see rr_sampler.h). The array is read concurrently by
  /// every worker and must stay alive and unchanged while the builder is
  /// in use.
  ParallelRrBuilder(const Graph& graph, std::span<const float> edge_probs,
                    std::span<const float> node_ctps);

  /// Parts a chunk of `count` sets splits into: kChunkParts from
  /// kMinSplitChunkSets sets on, else 1.
  static std::size_t PartsPerChunk(std::uint64_t count) {
    return count < kMinSplitChunkSets ? 1 : kChunkParts;
  }

  /// Samples one chunk of `count` sets from each master in `masters`, in a
  /// single fan-out on up to `num_threads` threads (common/threading.h
  /// semantics: <= 0 selects the hardware concurrency). Returns the parts
  /// grouped by chunk — result[c] holds chunk c's PartsPerChunk(count)
  /// parts in part order — without a concatenation copy: callers move each
  /// part's `nodes` and `offsets`, both exact-size, straight into
  /// RrSetPool::AdoptChunk. Chunk c
  /// consumes one fork of masters[c] per part, so a master's advancement
  /// depends on the chunk size, never on the thread count. Part sizes
  /// differ by at most one.
  std::vector<std::vector<Batch>> SampleChunks(std::uint64_t count,
                                               std::span<Rng> masters,
                                               int num_threads);

  /// Widths-only variant for KPT estimation: the one-chunk case of
  /// SampleChunks (an identical master state yields the widths of the same
  /// sets), concatenated in part order, without keeping the sets.
  std::vector<std::uint64_t> SampleWidths(std::uint64_t count, Rng& master,
                                          int num_threads);

  const Graph& graph() const { return graph_; }

 private:
  RrSampler& SamplerFor(int worker);
  /// The one fan-out behind both outputs: parts grouped by chunk, each
  /// keeping its sets when `keep_sets`, else its widths.
  std::vector<std::vector<Batch>> SampleParts(std::uint64_t count,
                                              std::span<Rng> masters,
                                              int num_threads, bool keep_sets);

  const Graph& graph_;
  std::span<const float> edge_probs_;
  std::span<const float> node_ctps_;  // per-node δ; empty span => plain mode
  bool with_ctp_ = false;
  // One slot per thread of the widest fan-out so far, each created on first
  // use, so a builder only ever used for tiny inline batches allocates a
  // single sampler.
  std::vector<std::unique_ptr<RrSampler>> samplers_;
};

}  // namespace tirm

#endif  // TIRM_RRSET_PARALLEL_RR_BUILDER_H_
