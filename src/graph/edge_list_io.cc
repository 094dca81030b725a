#include "graph/edge_list_io.h"

#include <cinttypes>
#include <cstdio>
#include <unordered_map>

#include "graph/graph_builder.h"

namespace tirm {
namespace {

class FileCloser {
 public:
  explicit FileCloser(std::FILE* f) : f_(f) {}
  ~FileCloser() {
    if (f_ != nullptr) std::fclose(f_);
  }
  FileCloser(const FileCloser&) = delete;
  FileCloser& operator=(const FileCloser&) = delete;

 private:
  std::FILE* f_;
};

}  // namespace

Result<Graph> LoadEdgeList(const std::string& path, EdgeListOptions options) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  FileCloser closer(f);

  std::unordered_map<std::uint64_t, NodeId> remap;
  auto intern = [&remap](std::uint64_t raw) {
    auto [it, inserted] = remap.emplace(raw, static_cast<NodeId>(remap.size()));
    (void)inserted;
    return it->second;
  };

  GraphBuilder::Options bopts;
  bopts.deduplicate = options.deduplicate;
  GraphBuilder builder(bopts);

  char line[512];
  std::size_t lineno = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    ++lineno;
    const char* p = line;
    while (*p == ' ' || *p == '\t') ++p;
    if (*p == '#' || *p == '\n' || *p == '\0' || *p == '\r') continue;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    if (std::sscanf(p, "%" SCNu64 " %" SCNu64, &a, &b) != 2) {
      return Status::IOError(path + ":" + std::to_string(lineno) +
                             ": malformed edge line");
    }
    NodeId u = intern(a);
    NodeId v = intern(b);
    if (options.undirected) {
      builder.AddUndirectedEdge(u, v);
    } else {
      builder.AddEdge(u, v);
    }
  }
  builder.SetNumNodes(static_cast<NodeId>(remap.size()));
  return builder.Build();
}

Status SaveEdgeList(const Graph& graph, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path + " for write");
  FileCloser closer(f);
  std::fprintf(f, "# tirm edge list: %u nodes, %zu arcs\n", graph.num_nodes(),
               graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    std::fprintf(f, "%u %u\n", graph.edge_source(e), graph.edge_target(e));
  }
  return Status::OK();
}

}  // namespace tirm
