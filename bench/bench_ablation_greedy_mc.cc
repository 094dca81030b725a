// Ablation: GREEDY-MC (Algorithm 1 with Monte-Carlo marginals, the
// reference greedy) vs TIRM on a small instance where the MC oracle is
// still tractable.
//
// §5's motivation for TIRM is that Algorithm 1 with MC estimation is
// "prohibitively expensive and not scalable"; the supporting claim is that
// TIRM reaches comparable regret at a fraction of the cost. This bench
// quantifies both on a miniature topic-aware instance.

#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace tirm;
  using namespace tirm::bench;
  Flags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  // Deliberately tiny default: GREEDY-MC cost is O(n * sims) *per seed*.
  BenchConfig config = BenchConfig::FromFlags(flags, /*default_scale=*/0.002,
                                              /*default_eps=*/0.2);
  const Result<std::int64_t> mc_sims = flags.GetIntStrict("mc_sims", 200);
  if (!mc_sims.ok() || *mc_sims < 1) {
    std::fprintf(stderr, "bench_ablation_greedy_mc: %s\n",
                 mc_sims.ok() ? "flag --mc_sims must be >= 1"
                              : mc_sims.status().message().c_str());
    return 1;
  }
  config.Print("bench_ablation_greedy_mc: Algorithm 1 (MC oracle) vs TIRM",
               /*supports_bundle=*/true);

  Rng rng(config.seed);
  BuiltInstance built = BuildBenchInstance(config, FlixsterLike(config.scale), rng);
  ProblemInstance inst = built.MakeInstance(/*kappa=*/1, /*lambda=*/0.0);
  std::printf("instance: %s, h=%d, total budget %.1f\n\n",
              FormatGraphStats(ComputeGraphStats(*built.graph)).c_str(),
              inst.num_ads(), inst.TotalBudget());

  TablePrinter t({"algorithm", "MC regret", "% of budget", "seeds",
                  "time (s)"});

  {
    AllocatorConfig algo_config = config.MakeAllocatorConfig("greedy-mc");
    algo_config.mc_sims = static_cast<std::size_t>(*mc_sims);
    AllocationResult r = RunConfigured(algo_config, inst, config.seed + 5);
    RegretReport report = EvaluateChecked(inst, r.allocation, config, 1);
    t.AddRow({"greedy-mc (Alg. 1 reference)",
              TablePrinter::Num(report.total_regret, 2),
              TablePrinter::Num(100.0 * report.RegretFractionOfBudget(), 1),
              TablePrinter::Int(static_cast<long long>(report.total_seeds)),
              TablePrinter::Num(r.seconds, 2)});
  }
  for (const bool weighted : {false, true}) {
    AllocatorConfig algo_config = config.MakeAllocatorConfig("tirm");
    algo_config.ctp_aware_coverage = weighted;
    AllocationResult r = RunConfigured(algo_config, inst, config.seed + 17);
    RegretReport report =
        EvaluateChecked(inst, r.allocation, config, weighted ? 3 : 2);
    t.AddRow({weighted ? "tirm (ctp-aware coverage)" : "tirm (Alg. 2)",
              TablePrinter::Num(report.total_regret, 2),
              TablePrinter::Num(100.0 * report.RegretFractionOfBudget(), 1),
              TablePrinter::Int(static_cast<long long>(report.total_seeds)),
              TablePrinter::Num(r.seconds, 2)});
  }
  t.Print();
  std::printf(
      "\nExpected: comparable regret, with TIRM one or more orders of "
      "magnitude faster —\nthe gap that §5 exists to close. GREEDY-MC cost "
      "explodes with n (per-seed full rescans).\n");
  return 0;
}
