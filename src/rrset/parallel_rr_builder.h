// Parallel RR/RRC-set generation (the dominant cost of TIM/TIRM, §5).
//
// RrSampler is deliberately "not thread-safe; create one per thread" — this
// builder does exactly that: it owns one RrSampler per worker slot and fans a
// requested batch of `count` sets out across N threads. Determinism is
// preserved for a fixed (master RNG state, count, thread count, kernel):
//
//  * the master Rng forks one child stream per worker, sequentially, on the
//    calling thread (Rng::Fork is deterministic in state and salt);
//  * worker i samples a fixed contiguous chunk of the batch with its own
//    sampler and its own stream, writing into worker-local storage;
//  * the worker-local parts are returned in worker order, so the result is
//    byte-identical no matter how the OS schedules the threads.
//
// Two outputs, one per consumer: SampleChunks returns each worker's
// flattened sets, which RrSampleStore top-up moves into the pool arena
// wholesale (RrSetPool::AdoptChunk — no merge copy); SampleWidths returns
// only the TIM widths w(R) (sum of in-degrees over the traversal) that KPT
// estimation needs.
//
// The sampler kernel (Options::sampler_kernel, rrset/sampler_kernel.h)
// switches every worker between the classic per-edge loop and the
// geometric-skip loop; the builder precomputes one shared SamplerRowClass
// for all workers when skip is selected.

#ifndef TIRM_RRSET_PARALLEL_RR_BUILDER_H_
#define TIRM_RRSET_PARALLEL_RR_BUILDER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "rrset/rr_sampler.h"
#include "rrset/sampler_kernel.h"

namespace tirm {

/// Fans RR/RRC-set sampling out over worker threads; deterministic in
/// (master seed, batch size, thread count, sampler kernel). Reusable across
/// batches; not itself thread-safe (one builder per orchestrating thread).
class ParallelRrBuilder {
 public:
  struct Options {
    /// Worker threads; <= 0 selects std::thread::hardware_concurrency().
    int num_threads = 1;
    /// Batches smaller than this run inline on the calling thread — thread
    /// spawn overhead dwarfs the sampling work below it.
    std::uint64_t min_parallel_batch = 256;
    /// Reverse-BFS inner-loop kernel (kAuto resolves to kClassic — see
    /// rrset/sampler_kernel.h for the determinism contract).
    SamplerKernel sampler_kernel = SamplerKernel::kAuto;
  };

  /// One worker's part of a sampled batch. SampleChunks fills the sets
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
  ParallelRrBuilder(const Graph& graph, std::span<const float> edge_probs,
                    Options options);

  /// RRC-set builder with node-level CTP coins; `node_ctps[v]` = δ(v), one
  /// float per node (see rr_sampler.h). The array is read concurrently by
  /// every worker and must stay alive and unchanged while the builder is
  /// in use.
  ParallelRrBuilder(const Graph& graph, std::span<const float> edge_probs,
                    std::span<const float> node_ctps, Options options);

  /// Samples `count` sets, returned as the worker-local parts in
  /// deterministic worker order, without a concatenation copy: callers move
  /// each part's `nodes` buffer straight into RrSetPool::AdoptChunk.
  /// Consumes one fork of `master` per active worker — min(count,
  /// num_threads()) forks, or a single fork when `count` is below
  /// `min_parallel_batch` — so the master stream's advancement depends on
  /// the batch size as well as the thread count. Part sizes differ by at
  /// most one across workers.
  std::vector<Batch> SampleChunks(std::uint64_t count, Rng& master);

  /// Widths-only variant for KPT estimation: the same streams as
  /// SampleChunks (an identical master state yields the widths of the same
  /// sets), concatenated in worker order, without keeping the sets.
  std::vector<std::uint64_t> SampleWidths(std::uint64_t count, Rng& master);

  /// Resolved worker count (>= 1, clamped to kMaxSamplingThreads —
  /// see common/threading.h).
  int num_threads() const { return num_threads_; }

  /// Resolved sampler kernel (never kAuto).
  SamplerKernel sampler_kernel() const { return sampler_kernel_; }

  const Graph& graph() const { return graph_; }

 private:
  RrSampler& SamplerFor(int worker);
  /// Worker-local parts in worker order; each keeps its sets when
  /// `keep_sets`, else its widths.
  std::vector<Batch> SampleParts(std::uint64_t count, Rng& master,
                                 bool keep_sets);

  const Graph& graph_;
  std::span<const float> edge_probs_;
  std::span<const float> node_ctps_;  // per-node δ; empty span => plain mode
  bool with_ctp_ = false;
  int num_threads_;
  std::uint64_t min_parallel_batch_;
  SamplerKernel sampler_kernel_;
  /// Row classification shared read-only by every worker's sampler
  /// (immutable after construction); only built for the skip kernel.
  std::unique_ptr<SamplerRowClass> rows_;
  // Lazily created so a builder configured for N threads but only ever used
  // for tiny inline batches allocates a single sampler.
  std::vector<std::unique_ptr<RrSampler>> samplers_;
};

}  // namespace tirm

#endif  // TIRM_RRSET_PARALLEL_RR_BUILDER_H_
