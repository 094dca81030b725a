// SNAP-style edge-list text I/O.
//
// Text format (as used by snap.stanford.edu dumps):
//   # comment lines start with '#'
//   <src> <dst>        one arc per line, whitespace separated
//
// Node ids in the file may be sparse; loading compacts them to [0, n).

#ifndef TIRM_GRAPH_EDGE_LIST_IO_H_
#define TIRM_GRAPH_EDGE_LIST_IO_H_

#include <string>

#include "common/status.h"
#include "graph/graph.h"

namespace tirm {

struct EdgeListOptions {
  /// Treat each line "u v" as an undirected edge (emit both arcs).
  bool undirected = false;
  /// Deduplicate arcs after loading.
  bool deduplicate = true;
};

/// Loads a SNAP-style edge list; compacts sparse node ids densely in
/// first-seen order.
Result<Graph> LoadEdgeList(const std::string& path,
                           EdgeListOptions options = EdgeListOptions{});

/// Writes `graph` as "<src> <dst>" lines with a header comment.
Status SaveEdgeList(const Graph& graph, const std::string& path);

}  // namespace tirm

#endif  // TIRM_GRAPH_EDGE_LIST_IO_H_
