// Table 4: memory usage vs number of advertisers h.
//
// The paper reports TIRM's memory growing steadily with h (2.59 GB at h=1
// to 60.8 GB at h=20 on DBLP) while GREEDY-IRIE needs only the graph
// (0.16-0.84 GB). This bench reports, per h: the *exact* RR-sample bytes
// from the RrSampleStore accounting — the pooled arena (flattened sets +
// CSR node -> set index, shared across consumers) and the per-run coverage
// views — plus the graph + probability footprint that bounds GREEDY-IRIE's
// requirement. Process peak RSS is kept as a cross-check only; the arena
// numbers are byte-accurate from container capacities, not RSS noise.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace tirm;
  using namespace tirm::bench;
  Flags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  BenchConfig config = BenchConfig::FromFlags(flags, /*default_scale=*/0.02,
                                              /*default_eps=*/0.2);
  config.Print("bench_table4_memory: Table 4 memory usage vs h");

  const double budget = 5000.0 * config.scale;
  TablePrinter t({"h", "tirm arena (exact)", "tirm views (exact)",
                  "tirm total RR sets", "peak RSS (cross-check)",
                  "graph+probs bytes (IRIE bound)"});
  for (const int h : {1, 5, 10, 15, 20}) {
    Rng rng(config.seed + static_cast<std::uint64_t>(h));
    BuiltInstance built =
        BuildDataset(DblpLike(config.scale), rng, /*num_ads_override=*/h,
                     budget);
    ProblemInstance inst = built.MakeInstance(/*kappa=*/1, /*lambda=*/0.0);
    AllocationResult result = RunConfigured(
        config.MakeAllocatorConfig("tirm"), inst, config.seed + 99);
    const std::size_t static_bytes =
        built.graph->MemoryBytes() + built.edge_probs->MemoryBytes() +
        built.ctps->MemoryBytes();
    t.AddRow({TablePrinter::Int(h), HumanBytes(result.cache.arena_bytes),
              HumanBytes(result.cache.view_bytes),
              TablePrinter::Int(static_cast<long long>(result.total_rr_sets)),
              HumanBytes(PeakRssBytes()), HumanBytes(static_bytes)});
  }
  t.Print();
  std::printf(
      "\nExpected shape (paper Table 4): TIRM memory grows ~linearly in h "
      "(RR pools per ad);\nGREEDY-IRIE needs only graph+probabilities. "
      "Absolute numbers shrink with TIRM_SCALE and theta_cap.\nA shared "
      "RrSampleStore lets head-to-head runs and sweep points reuse one "
      "arena copy;\nonly the coverage-view bytes are paid per run.\n");
  return 0;
}
