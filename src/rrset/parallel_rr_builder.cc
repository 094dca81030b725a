#include "rrset/parallel_rr_builder.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/threading.h"
#include "obs/trace.h"

namespace tirm {

ParallelRrBuilder::ParallelRrBuilder(const Graph& graph,
                                     std::span<const float> edge_probs,
                                     Options options)
    : graph_(graph),
      edge_probs_(edge_probs),
      num_threads_(ResolveThreadCount(options.num_threads)),
      min_parallel_batch_(options.min_parallel_batch),
      sampler_kernel_(ResolveSamplerKernel(options.sampler_kernel)) {
  TIRM_CHECK_EQ(edge_probs_.size(), graph_.num_edges());
  if (sampler_kernel_ == SamplerKernel::kSkip) {
    rows_ = std::make_unique<SamplerRowClass>(graph_, edge_probs_);
  }
  samplers_.resize(static_cast<std::size_t>(num_threads_));
}

ParallelRrBuilder::ParallelRrBuilder(const Graph& graph,
                                     std::span<const float> edge_probs,
                                     std::span<const float> node_ctps,
                                     Options options)
    : graph_(graph),
      edge_probs_(edge_probs),
      node_ctps_(node_ctps),
      with_ctp_(true),
      num_threads_(ResolveThreadCount(options.num_threads)),
      min_parallel_batch_(options.min_parallel_batch),
      sampler_kernel_(ResolveSamplerKernel(options.sampler_kernel)) {
  TIRM_CHECK_EQ(edge_probs_.size(), graph_.num_edges());
  TIRM_CHECK_EQ(node_ctps_.size(), graph_.num_nodes());
  if (sampler_kernel_ == SamplerKernel::kSkip) {
    rows_ = std::make_unique<SamplerRowClass>(graph_, edge_probs_);
  }
  samplers_.resize(static_cast<std::size_t>(num_threads_));
}

RrSampler& ParallelRrBuilder::SamplerFor(int worker) {
  auto& slot = samplers_[static_cast<std::size_t>(worker)];
  if (slot == nullptr) {
    slot = with_ctp_
               ? std::make_unique<RrSampler>(graph_, edge_probs_, node_ctps_,
                                             sampler_kernel_, rows_.get())
               : std::make_unique<RrSampler>(graph_, edge_probs_,
                                             sampler_kernel_, rows_.get());
  }
  return *slot;
}

std::vector<ParallelRrBuilder::Batch> ParallelRrBuilder::SampleChunks(
    std::uint64_t count, Rng& master) {
  return SampleParts(count, master, /*keep_sets=*/true);
}

std::vector<std::uint64_t> ParallelRrBuilder::SampleWidths(std::uint64_t count,
                                                           Rng& master) {
  const std::vector<Batch> parts =
      SampleParts(count, master, /*keep_sets=*/false);
  std::vector<std::uint64_t> widths;
  widths.reserve(count);
  for (const Batch& p : parts) {
    widths.insert(widths.end(), p.widths.begin(), p.widths.end());
  }
  TIRM_CHECK_EQ(widths.size(), count);
  return widths;
}

std::vector<ParallelRrBuilder::Batch> ParallelRrBuilder::SampleParts(
    std::uint64_t count, Rng& master, bool keep_sets) {
  // Fork the per-worker streams sequentially on the calling thread; the
  // result is a pure function of the master state, independent of scheduling.
  const int workers =
      count < min_parallel_batch_
          ? 1
          : static_cast<int>(
                std::min<std::uint64_t>(count,
                                        static_cast<std::uint64_t>(num_threads_)));
  std::vector<Rng> streams;
  streams.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    streams.push_back(master.Fork(static_cast<std::uint64_t>(i)));
  }

  const std::uint64_t base = workers == 0 ? 0 : count / workers;
  const std::uint64_t rem = workers == 0 ? 0 : count % workers;
  std::vector<Batch> parts(static_cast<std::size_t>(workers));

  auto run_worker = [&](int w) {
    const std::uint64_t quota =
        base + (static_cast<std::uint64_t>(w) < rem ? 1 : 0);
    // Per-worker sampling batch: spans land in the worker thread's own
    // buffer, so the fan-out shows up as parallel lanes in the trace.
    obs::TraceSpan span("rr_sample_batch");
    span.Counter("worker", w);
    span.Counter("quota", static_cast<double>(quota));
    RrSampler& sampler = SamplerFor(w);
    // Samplers are reused across batches; drop any coins buffered from a
    // previous batch's stream so this part is a pure function of `rng`.
    sampler.ResetStreamState();
    Rng& rng = streams[static_cast<std::size_t>(w)];
    Batch& part = parts[static_cast<std::size_t>(w)];
    if (keep_sets) {
      part.offsets.reserve(quota + 1);
      part.offsets.push_back(0);
    } else {
      part.widths.reserve(quota);
    }
    std::vector<NodeId> scratch;
    for (std::uint64_t t = 0; t < quota; ++t) {
      sampler.SampleInto(rng, scratch);
      part.max_traversal = std::max(part.max_traversal,
                                    sampler.last_traversal());
      if (keep_sets) {
        part.nodes.insert(part.nodes.end(), scratch.begin(), scratch.end());
        part.offsets.push_back(part.nodes.size());
      } else {
        part.widths.push_back(sampler.last_width());
      }
    }
    span.Counter("max_traversal", static_cast<double>(part.max_traversal));
  };

  if (workers <= 1) {
    if (workers == 1) run_worker(0);
  } else {
    // SamplerFor mutates samplers_; materialize every worker's sampler
    // before the threads start so the workers only touch their own slot.
    for (int w = 0; w < workers; ++w) SamplerFor(w);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers) - 1);
    for (int w = 1; w < workers; ++w) {
      threads.emplace_back(run_worker, w);
    }
    run_worker(0);
    for (auto& t : threads) t.join();
  }
  return parts;
}

}  // namespace tirm
