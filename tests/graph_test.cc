// Unit tests for src/graph: CSR graph, builder, I/O, generators, stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "common/rng.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_stats.h"

namespace tirm {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// ------------------------------------------------------------------ Graph

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphTest, FromEdgesBasicAdjacency) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.OutDegree(3), 0u);
  EXPECT_EQ(g.InDegree(2), 2u);
  EXPECT_EQ(g.InDegree(0), 0u);

  auto out0 = g.OutNeighbors(0);
  std::set<NodeId> s(out0.begin(), out0.end());
  EXPECT_EQ(s, (std::set<NodeId>{1, 2}));

  auto in2 = g.InNeighbors(2);
  std::set<NodeId> t(in2.begin(), in2.end());
  EXPECT_EQ(t, (std::set<NodeId>{0, 1}));
}

TEST(GraphTest, EdgeIdsAlignAcrossDirections) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  // Every (edge id via out view) must match (edge id via in view) for the
  // same (src, dst) pair.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto neighbors = g.OutNeighbors(u);
    auto ids = g.OutEdgeIds(u);
    for (std::size_t j = 0; j < neighbors.size(); ++j) {
      EXPECT_EQ(g.edge_source(ids[j]), u);
      EXPECT_EQ(g.edge_target(ids[j]), neighbors[j]);
    }
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto sources = g.InNeighbors(v);
    auto ids = g.InEdgeIds(v);
    for (std::size_t j = 0; j < sources.size(); ++j) {
      EXPECT_EQ(g.edge_source(ids[j]), sources[j]);
      EXPECT_EQ(g.edge_target(ids[j]), v);
    }
  }
}

TEST(GraphTest, SumOfDegreesEqualsEdges) {
  Rng rng(1);
  Graph g = ErdosRenyiGraph(50, 400, rng);
  std::size_t out_sum = 0;
  std::size_t in_sum = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    out_sum += g.OutDegree(u);
    in_sum += g.InDegree(u);
  }
  EXPECT_EQ(out_sum, g.num_edges());
  EXPECT_EQ(in_sum, g.num_edges());
}

TEST(GraphTest, MemoryBytesPositive) {
  Graph g = Graph::FromEdges(3, {{0, 1}});
  EXPECT_GT(g.MemoryBytes(), 0u);
}

// ---------------------------------------------------------------- Builder

TEST(GraphBuilderTest, DeduplicatesAndDropsSelfLoops) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);  // duplicate
  b.AddEdge(1, 1);  // self loop
  b.AddEdge(1, 2);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphBuilderTest, KeepsDuplicatesWhenDisabled) {
  GraphBuilder::Options opts;
  opts.deduplicate = false;
  opts.drop_self_loops = false;
  GraphBuilder b(opts);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  b.AddEdge(1, 1);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(GraphBuilderTest, UndirectedAddsBothArcs) {
  GraphBuilder b;
  b.AddUndirectedEdge(0, 1);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.OutDegree(0), 1u);
  EXPECT_EQ(g.OutDegree(1), 1u);
}

TEST(GraphBuilderTest, ForcedNodeCount) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.SetNumNodes(10);
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 10u);
}

TEST(GraphBuilderTest, EmptyBuilderYieldsEmptyGraph) {
  GraphBuilder b;
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

// --------------------------------------------------------------------- IO

TEST(EdgeListIoTest, RoundTripText) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const std::string path = TempPath("graph_roundtrip.txt");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes(), 4u);
  EXPECT_EQ(loaded->num_edges(), 4u);
  std::remove(path.c_str());
}

TEST(EdgeListIoTest, ParsesCommentsAndSparseIds) {
  const std::string path = TempPath("graph_sparse.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("# snap-style comment\n1000 2000\n2000 3000\n\n", f);
  std::fclose(f);
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_nodes(), 3u);  // compacted
  EXPECT_EQ(loaded->num_edges(), 2u);
  std::remove(path.c_str());
}

TEST(EdgeListIoTest, UndirectedOptionDoublesEdges) {
  const std::string path = TempPath("graph_undirected.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("0 1\n1 2\n", f);
  std::fclose(f);
  EdgeListOptions opts;
  opts.undirected = true;
  auto loaded = LoadEdgeList(path, opts);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_edges(), 4u);
  std::remove(path.c_str());
}

TEST(EdgeListIoTest, MissingFileReturnsIOError) {
  auto loaded = LoadEdgeList("/nonexistent/definitely/missing.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(EdgeListIoTest, MalformedLineReturnsError) {
  const std::string path = TempPath("graph_bad.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("0 1\nhello world\n", f);
  std::fclose(f);
  auto loaded = LoadEdgeList(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

// ------------------------------------------------------------- Generators

TEST(GeneratorsTest, ErdosRenyiExactEdgeCount) {
  Rng rng(7);
  Graph g = ErdosRenyiGraph(100, 500, rng);
  EXPECT_EQ(g.num_nodes(), 100u);
  EXPECT_EQ(g.num_edges(), 500u);
}

TEST(GeneratorsTest, ErdosRenyiNoSelfLoopsNoDuplicates) {
  Rng rng(9);
  Graph g = ErdosRenyiGraph(40, 300, rng);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto edge = std::make_pair(g.edge_source(e), g.edge_target(e));
    EXPECT_NE(edge.first, edge.second);
    EXPECT_TRUE(seen.insert(edge).second);
  }
}

TEST(GeneratorsTest, RMatShapeAndSkew) {
  Rng rng(11);
  Graph g = RMatGraph(12, 40000, rng);
  EXPECT_EQ(g.num_nodes(), 4096u);
  EXPECT_GT(g.num_edges(), 35000u);  // some duplicates dropped
  // Heavy tail: max out-degree far above average.
  GraphStats stats = ComputeGraphStats(g);
  EXPECT_GT(static_cast<double>(stats.max_out_degree),
            5.0 * stats.avg_out_degree);
}

TEST(GeneratorsTest, RMatSymmetricHasBothDirections) {
  Rng rng(13);
  Graph g = RMatGraphSymmetric(8, 1000, rng);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    seen.insert({g.edge_source(e), g.edge_target(e)});
  }
  std::size_t mutual = 0;
  for (const auto& [u, v] : seen) mutual += seen.count({v, u});
  // Almost every arc's reverse is present (boundary effects possible at the
  // very last arc when the edge target count is hit).
  EXPECT_GE(mutual + 2, seen.size());
}

TEST(GeneratorsTest, BarabasiAlbertConnectivity) {
  Rng rng(15);
  Graph g = BarabasiAlbertGraph(200, 3, rng);
  EXPECT_EQ(g.num_nodes(), 200u);
  EXPECT_GT(g.num_edges(), 300u);
}

TEST(GeneratorsTest, PathGraph) {
  Graph g = PathGraph(5);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.OutDegree(0), 1u);
  EXPECT_EQ(g.OutDegree(4), 0u);
  EXPECT_EQ(g.InDegree(0), 0u);
}

TEST(GeneratorsTest, StarGraph) {
  Graph g = StarGraph(6);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.OutDegree(0), 5u);
  EXPECT_EQ(g.InDegree(3), 1u);
}

TEST(GeneratorsTest, CycleGraph) {
  Graph g = CycleGraph(4);
  EXPECT_EQ(g.num_edges(), 4u);
  for (NodeId u = 0; u < 4; ++u) {
    EXPECT_EQ(g.OutDegree(u), 1u);
    EXPECT_EQ(g.InDegree(u), 1u);
  }
}

TEST(GeneratorsTest, CompleteGraph) {
  Graph g = CompleteGraph(5);
  EXPECT_EQ(g.num_edges(), 20u);
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(g.OutDegree(u), 4u);
}

TEST(GeneratorsTest, Figure1GadgetStructure) {
  Graph g = Figure1Gadget();
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(g.InDegree(2), 2u);   // v3 <- v1, v2
  EXPECT_EQ(g.OutDegree(2), 2u);  // v3 -> v4, v5
  EXPECT_EQ(g.InDegree(5), 2u);   // v6 <- v4, v5
}

TEST(GeneratorsTest, DeterministicUnderSeed) {
  Rng rng1(99);
  Rng rng2(99);
  Graph a = RMatGraph(8, 500, rng1);
  Graph b = RMatGraph(8, 500, rng2);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge_source(e), b.edge_source(e));
    EXPECT_EQ(a.edge_target(e), b.edge_target(e));
  }
}

// ------------------------------------------------------------------ Stats

TEST(GraphStatsTest, PathStats) {
  GraphStats s = ComputeGraphStats(PathGraph(10));
  EXPECT_EQ(s.num_nodes, 10u);
  EXPECT_EQ(s.num_edges, 9u);
  EXPECT_EQ(s.max_out_degree, 1u);
  EXPECT_NEAR(s.sink_fraction, 0.1, 1e-9);
  EXPECT_NEAR(s.source_fraction, 0.1, 1e-9);
}

TEST(GraphStatsTest, HistogramBuckets) {
  auto hist = OutDegreeHistogram(StarGraph(6), 3);
  // Node 0 has degree 5 -> capped bucket 3; leaves have degree 0.
  EXPECT_EQ(hist[0], 5u);
  EXPECT_EQ(hist[3], 1u);
}

TEST(GraphStatsTest, FormatContainsCounts) {
  std::string s = FormatGraphStats(ComputeGraphStats(PathGraph(3)));
  EXPECT_NE(s.find("n=3"), std::string::npos);
  EXPECT_NE(s.find("m=2"), std::string::npos);
}

}  // namespace
}  // namespace tirm
