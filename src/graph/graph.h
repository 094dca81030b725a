// Immutable directed social graph in CSR (compressed sparse row) form.
//
// The paper's convention (§3): an arc (u, v) means "v follows u", i.e. v can
// see u's posts, so influence flows along the arc direction u -> v.
//
// The graph stores both adjacency directions:
//   * out-adjacency — forward Monte-Carlo simulation of cascades;
//   * in-adjacency  — reverse BFS for RR-set sampling (§5.1).
//
// Each directed edge has a dense EdgeId (its position in the canonical edge
// array, ordered by source node). Both adjacency views carry the EdgeId so
// per-edge probability arrays can be indexed from either direction.
//
// Storage is ArrayRef-backed (common/array_ref.h): FromEdges builds owned
// arrays; FromParts adopts *borrowed* spans — typically sections of an
// mmap'ed instance bundle (io/bundle_reader.h) — with zero copies, so N
// workers or processes can share one read-only CSR mapping. A borrowed
// graph is valid only while its backing mapping lives.

#ifndef TIRM_GRAPH_GRAPH_H_
#define TIRM_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/array_ref.h"
#include "common/check.h"
#include "common/status.h"
#include "common/types.h"

namespace tirm {

/// Immutable CSR digraph with out- and in-adjacency plus aligned edge ids.
class Graph {
 public:
  /// The eight CSR arrays of a graph, as borrowable spans. Produced by the
  /// bundle writer from an existing graph and consumed by FromParts on
  /// load; the layout is exactly the member layout of Graph.
  struct Parts {
    std::span<const std::uint64_t> out_offsets;  // size n+1
    std::span<const NodeId> out_targets;         // size m
    std::span<const EdgeId> out_edge_ids;        // size m
    std::span<const std::uint64_t> in_offsets;   // size n+1
    std::span<const NodeId> in_sources;          // size m
    std::span<const EdgeId> in_edge_ids;         // size m
    std::span<const NodeId> edge_source;         // size m
    std::span<const NodeId> edge_target;         // size m
  };

  /// An empty graph with zero nodes.
  Graph() = default;

  /// Builds a graph with `num_nodes` nodes from a list of (source, target)
  /// arcs. Arcs keep the order given here; EdgeId i refers to edges[i] after
  /// stable sorting by source (see edge_source/edge_target). Self-loops and
  /// duplicates are kept verbatim; use GraphBuilder to deduplicate.
  static Graph FromEdges(NodeId num_nodes,
                         std::vector<std::pair<NodeId, NodeId>> edges);

  /// Adopts pre-built CSR arrays by reference — zero-copy; the backing
  /// storage (e.g. a MappedFile) must outlive the graph. Always validates
  /// structure (array sizes, offset monotonicity and totals) in O(n);
  /// with `validate_elements` additionally range-checks every node/edge id
  /// and checks that each CSR side lists every edge of the edge arrays
  /// once, under its endpoints, in O(m). Returns InvalidArgument instead
  /// of aborting on corrupt input — this is the trust boundary for
  /// file-loaded graphs.
  static Result<Graph> FromParts(NodeId num_nodes, const Parts& parts,
                                 bool validate_elements);

  NodeId num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return edge_target_.size(); }

  std::size_t OutDegree(NodeId u) const {
    TIRM_DCHECK(u < num_nodes_);
    return static_cast<std::size_t>(out_offsets_[u + 1] - out_offsets_[u]);
  }
  std::size_t InDegree(NodeId v) const {
    TIRM_DCHECK(v < num_nodes_);
    return static_cast<std::size_t>(in_offsets_[v + 1] - in_offsets_[v]);
  }

  /// Targets of u's out-edges. Aligned with OutEdgeIds(u).
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    TIRM_DCHECK(u < num_nodes_);
    return {out_targets_.data() + out_offsets_[u], OutDegree(u)};
  }
  /// EdgeIds of u's out-edges (index into per-edge probability arrays).
  std::span<const EdgeId> OutEdgeIds(NodeId u) const {
    TIRM_DCHECK(u < num_nodes_);
    return {out_edge_ids_.data() + out_offsets_[u], OutDegree(u)};
  }

  /// Sources of v's in-edges. Aligned with InEdgeIds(v).
  std::span<const NodeId> InNeighbors(NodeId v) const {
    TIRM_DCHECK(v < num_nodes_);
    return {in_sources_.data() + in_offsets_[v], InDegree(v)};
  }
  /// EdgeIds of v's in-edges.
  std::span<const EdgeId> InEdgeIds(NodeId v) const {
    TIRM_DCHECK(v < num_nodes_);
    return {in_edge_ids_.data() + in_offsets_[v], InDegree(v)};
  }

  /// Source / target node of edge `e` (canonical, source-sorted order).
  NodeId edge_source(EdgeId e) const {
    TIRM_DCHECK(e < edge_source_.size());
    return edge_source_[e];
  }
  NodeId edge_target(EdgeId e) const {
    TIRM_DCHECK(e < edge_target_.size());
    return edge_target_[e];
  }

  /// The raw CSR arrays, for serialization (io/bundle_writer.h). Views are
  /// valid while the graph (and, if borrowed, its backing mapping) lives.
  Parts parts() const {
    return Parts{out_offsets_.span(), out_targets_.span(),
                 out_edge_ids_.span(), in_offsets_.span(), in_sources_.span(),
                 in_edge_ids_.span(),  edge_source_.span(),
                 edge_target_.span()};
  }

  /// True when every CSR array is owned (false for bundle-borrowed graphs).
  bool owns_storage() const {
    return out_offsets_.owned() && out_targets_.owned() &&
           out_edge_ids_.owned() && in_offsets_.owned() &&
           in_sources_.owned() && in_edge_ids_.owned() &&
           edge_source_.owned() && edge_target_.owned();
  }

  /// Approximate heap footprint of the CSR arrays, for memory reports.
  /// Borrowed (mmap-backed) arrays count zero here — their bytes belong to
  /// the shared mapping, accounted once by its owner.
  std::size_t MemoryBytes() const;

 private:
  NodeId num_nodes_ = 0;

  // Out-CSR.
  ArrayRef<std::uint64_t> out_offsets_;  // size n+1
  ArrayRef<NodeId> out_targets_;         // size m
  ArrayRef<EdgeId> out_edge_ids_;        // size m

  // In-CSR.
  ArrayRef<std::uint64_t> in_offsets_;  // size n+1
  ArrayRef<NodeId> in_sources_;         // size m
  ArrayRef<EdgeId> in_edge_ids_;        // size m

  // Canonical edge arrays (EdgeId -> endpoints).
  ArrayRef<NodeId> edge_source_;  // size m
  ArrayRef<NodeId> edge_target_;  // size m
};

}  // namespace tirm

#endif  // TIRM_GRAPH_GRAPH_H_
