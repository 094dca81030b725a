// Influence maximization with the TIM substrate.
//
// The library's RR-set machinery is a full standalone implementation of
// two-phase influence maximization (Tang et al. 2014), which TIRM builds
// on. This example runs classic IM on a synthetic social graph, compares
// TIM's seed set against degree and random baselines under Monte-Carlo
// evaluation, and prints the (1 - 1/e - eps) machinery's internals (KPT,
// theta).
//
//   ./influence_max_demo [--nodes_scale=11] [--edges=40000] [--k=20]
//                        [--eps=0.2] [--seed=7]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "diffusion/monte_carlo.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "rrset/tim.h"
#include "topic/edge_probabilities.h"

int main(int argc, char** argv) {
  using namespace tirm;
  Flags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  const Result<std::int64_t> scale_flag = flags.GetIntStrict("nodes_scale", 11);
  const Result<std::int64_t> edges_flag = flags.GetIntStrict("edges", 40000);
  const Result<std::int64_t> k_flag = flags.GetIntStrict("k", 20);
  const Result<double> eps_flag = flags.GetDoubleStrict("eps", 0.2);
  const Result<std::int64_t> seed_flag = flags.GetIntStrict("seed", 7);
  for (const Status& s : {scale_flag.status(), edges_flag.status(),
                          k_flag.status(), eps_flag.status(),
                          seed_flag.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (*scale_flag < 1 || *scale_flag > 24 || *edges_flag < 0 ||
      *k_flag < 1 || *k_flag > (std::int64_t{1} << *scale_flag) ||
      !(*eps_flag > 0.0 && *eps_flag < 1.0) || *seed_flag < 0) {
    std::fprintf(stderr,
                 "flags out of range: need 1 <= nodes_scale <= 24, "
                 "edges >= 0, 1 <= k <= 2^nodes_scale, 0 < eps < 1, "
                 "seed >= 0\n");
    return 1;
  }
  const int scale = static_cast<int>(*scale_flag);
  const auto edges = static_cast<std::size_t>(*edges_flag);
  const auto k = static_cast<std::uint64_t>(*k_flag);
  const double eps = *eps_flag;
  const auto seed = static_cast<std::uint64_t>(*seed_flag);

  Rng rng(seed);
  Graph g = RMatGraph(scale, edges, rng);
  std::printf("graph: %s\n", FormatGraphStats(ComputeGraphStats(g)).c_str());

  EdgeProbabilities wc = EdgeProbabilities::WeightedCascade(g);
  std::vector<float> probs(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) probs[e] = wc.Prob(e, 0);

  // TIM.
  TimOptions options;
  options.theta.epsilon = eps;
  options.theta.theta_cap = 1 << 20;
  WallTimer timer;
  Rng tim_rng(seed + 1);
  TimResult tim = RunTim(g, probs, k, options, tim_rng);
  const double tim_seconds = timer.Seconds();

  // Baselines: top out-degree, random.
  std::vector<NodeId> by_degree(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) by_degree[u] = u;
  std::sort(by_degree.begin(), by_degree.end(), [&g](NodeId a, NodeId b) {
    return g.OutDegree(a) > g.OutDegree(b);
  });
  by_degree.resize(k);

  Rng pick(seed + 2);
  std::set<NodeId> random_set;
  while (random_set.size() < k) {
    random_set.insert(static_cast<NodeId>(pick.UniformBelow(g.num_nodes())));
  }
  std::vector<NodeId> random_seeds(random_set.begin(), random_set.end());

  SpreadSimulator sim(g, probs);
  Rng eval_rng(seed + 3);
  const double tim_spread = sim.EstimateSpread(tim.seeds, 20000, eval_rng).mean();
  const double deg_spread = sim.EstimateSpread(by_degree, 20000, eval_rng).mean();
  const double rnd_spread =
      sim.EstimateSpread(random_seeds, 20000, eval_rng).mean();

  TablePrinter t({"method", "seeds", "MC spread", "notes"});
  t.AddRow({"TIM", TablePrinter::Int(static_cast<long long>(tim.seeds.size())),
            TablePrinter::Num(tim_spread, 1),
            "RR estimate " + TablePrinter::Num(tim.estimated_spread, 1)});
  t.AddRow({"top-degree", TablePrinter::Int(static_cast<long long>(k)),
            TablePrinter::Num(deg_spread, 1), ""});
  t.AddRow({"random", TablePrinter::Int(static_cast<long long>(k)),
            TablePrinter::Num(rnd_spread, 1), ""});
  t.Print(stdout, /*with_csv=*/false);

  std::printf(
      "\nTIM internals: KPT* = %.1f, theta = %llu RR sets, time %.2fs\n"
      "Expected: TIM >= top-degree > random (TIM carries the (1-1/e-eps) "
      "guarantee).\n",
      tim.kpt, static_cast<unsigned long long>(tim.theta), tim_seconds);
  return 0;
}
