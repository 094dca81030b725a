#include "rrset/parallel_rr_builder.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/threading.h"
#include "obs/trace.h"

namespace tirm {

ParallelRrBuilder::ParallelRrBuilder(const Graph& graph,
                                     std::span<const float> edge_probs)
    : graph_(graph), edge_probs_(edge_probs) {
  TIRM_CHECK_EQ(edge_probs_.size(), graph_.num_edges());
}

ParallelRrBuilder::ParallelRrBuilder(const Graph& graph,
                                     std::span<const float> edge_probs,
                                     std::span<const float> node_ctps)
    : graph_(graph),
      edge_probs_(edge_probs),
      node_ctps_(node_ctps),
      with_ctp_(true) {
  TIRM_CHECK_EQ(edge_probs_.size(), graph_.num_edges());
  TIRM_CHECK_EQ(node_ctps_.size(), graph_.num_nodes());
}

RrSampler& ParallelRrBuilder::SamplerFor(int worker) {
  auto& slot = samplers_[static_cast<std::size_t>(worker)];
  if (slot == nullptr) {
    slot = with_ctp_
               ? std::make_unique<RrSampler>(graph_, edge_probs_, node_ctps_)
               : std::make_unique<RrSampler>(graph_, edge_probs_);
  }
  return *slot;
}

std::vector<std::vector<ParallelRrBuilder::Batch>>
ParallelRrBuilder::SampleChunks(std::uint64_t count, std::span<Rng> masters,
                                int num_threads) {
  return SampleParts(count, masters, num_threads, /*keep_sets=*/true);
}

std::vector<std::uint64_t> ParallelRrBuilder::SampleWidths(std::uint64_t count,
                                                           Rng& master,
                                                           int num_threads) {
  const std::vector<std::vector<Batch>> chunks =
      SampleParts(count, std::span<Rng>(&master, 1), num_threads,
                  /*keep_sets=*/false);
  std::vector<std::uint64_t> widths;
  widths.reserve(count);
  for (const Batch& p : chunks.front()) {
    widths.insert(widths.end(), p.widths.begin(), p.widths.end());
  }
  TIRM_CHECK_EQ(widths.size(), count);
  return widths;
}

std::vector<std::vector<ParallelRrBuilder::Batch>>
ParallelRrBuilder::SampleParts(std::uint64_t count, std::span<Rng> masters,
                               int num_threads, bool keep_sets) {
  // Fork every chunk's part streams sequentially on the calling thread, in
  // (chunk, part) order; task k is part k % parts of chunk k / parts, a pure
  // function of its stream, independent of scheduling and thread count.
  const std::size_t parts = PartsPerChunk(count);
  const std::size_t tasks = masters.size() * parts;
  std::vector<Rng> streams;
  streams.reserve(tasks);
  for (Rng& master : masters) {
    for (std::size_t p = 0; p < parts; ++p) {
      streams.push_back(master.Fork(static_cast<std::uint64_t>(p)));
    }
  }
  std::vector<std::vector<Batch>> chunks(masters.size(),
                                         std::vector<Batch>(parts));
  if (tasks == 0) return chunks;

  const std::uint64_t base = count / parts;
  const std::uint64_t rem = count % parts;
  const int threads = static_cast<int>(std::min<std::size_t>(
      tasks, static_cast<std::size_t>(ResolveThreadCount(num_threads))));

  auto run_task = [&](RrSampler& sampler, std::size_t k) {
    const std::size_t c = k / parts;
    const std::size_t p = k % parts;
    const std::uint64_t quota = base + (p < rem ? 1 : 0);
    // One span per task: spans land in the running thread's own buffer, so
    // the fan-out shows up as parallel lanes in the trace.
    obs::TraceSpan span("rr_sample_batch");
    span.Counter("chunk", static_cast<double>(c));
    span.Counter("part", static_cast<double>(p));
    span.Counter("quota", static_cast<double>(quota));
    // Neighbouring tasks' streams and parts share cache lines, and other
    // threads write them on every set: work on a local copy of each and
    // move the part into place when done.
    Rng rng = streams[k];
    Batch part;
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
    // `nodes` grew by doubling, and the pool keeps the buffer as it is:
    // hand it over exact-size, trimmed here on the sampling thread.
    part.nodes.shrink_to_fit();
    chunks[c][p] = std::move(part);
  };
  // Thread `slot` runs tasks slot, slot + threads, ... on its own sampler.
  auto run_slot = [&](int slot) {
    RrSampler& sampler = SamplerFor(slot);
    for (std::size_t k = static_cast<std::size_t>(slot); k < tasks;
         k += static_cast<std::size_t>(threads)) {
      run_task(sampler, k);
    }
  };

  // SamplerFor mutates samplers_: grow the slots and create every slot's
  // sampler before any thread starts, so each thread only reads its own.
  if (samplers_.size() < static_cast<std::size_t>(threads)) {
    samplers_.resize(static_cast<std::size_t>(threads));
  }
  for (int slot = 0; slot < threads; ++slot) SamplerFor(slot);
  // Declared after everything the threads use: if a thread fails to start
  // or the calling thread's share throws, unwinding joins the started
  // threads before that state is destroyed.
  std::vector<std::jthread> workers;
  workers.reserve(static_cast<std::size_t>(threads) - 1);
  for (int slot = 1; slot < threads; ++slot) {
    workers.emplace_back(run_slot, slot);
  }
  run_slot(0);
  workers.clear();  // joins
  return chunks;
}

}  // namespace tirm
