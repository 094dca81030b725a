#include "graph/graph.h"

#include <algorithm>
#include <numeric>
#include <string>

namespace tirm {
namespace {

Status CorruptCsr(const std::string& what) {
  return Status::InvalidArgument("corrupt CSR graph: " + what);
}

/// Offsets must start at 0, end at m, and never decrease.
Status ValidateOffsets(std::span<const std::uint64_t> offsets,
                       std::uint64_t m, const char* which) {
  if (offsets.front() != 0) {
    return CorruptCsr(std::string(which) + " offsets do not start at 0");
  }
  if (offsets.back() != m) {
    return CorruptCsr(std::string(which) + " offsets do not end at edge count");
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return CorruptCsr(std::string(which) + " offsets decrease");
    }
  }
  return Status::OK();
}

Status ValidateIds(std::span<const NodeId> ids, NodeId bound,
                   const char* which) {
  for (const NodeId v : ids) {
    if (v >= bound) {
      return CorruptCsr(std::string(which) + " id out of range");
    }
  }
  return Status::OK();
}

/// One CSR side against the edge arrays: slot i of node u must name an
/// edge e with own[e] == u and other[e] == neighbors[i], and every edge id
/// must fill exactly one slot. `own`/`other` are edge_source/edge_target
/// for the out side and the reverse for the in side.
Status ValidateSide(std::span<const std::uint64_t> offsets,
                    std::span<const NodeId> neighbors,
                    std::span<const EdgeId> edge_ids,
                    std::span<const NodeId> own,
                    std::span<const NodeId> other, const char* which) {
  std::vector<std::uint8_t> seen(edge_ids.size(), 0);
  for (std::size_t u = 0; u + 1 < offsets.size(); ++u) {
    for (std::uint64_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      const EdgeId e = edge_ids[i];
      if (e >= edge_ids.size()) {
        return CorruptCsr(std::string(which) + " edge id out of range");
      }
      if (seen[e]++ != 0) {
        return CorruptCsr(std::string(which) + " edge id repeated");
      }
      if (own[e] != u || other[e] != neighbors[i]) {
        return CorruptCsr(std::string(which) +
                          " adjacency disagrees with the edge arrays");
      }
    }
  }
  return Status::OK();
}

}  // namespace

Graph Graph::FromEdges(NodeId num_nodes,
                       std::vector<std::pair<NodeId, NodeId>> edges) {
  Graph g;
  g.num_nodes_ = num_nodes;
  const std::size_t m = edges.size();

  // Canonical order: stable sort by source so each node's out-edges are
  // contiguous and EdgeIds equal out-CSR positions.
  std::stable_sort(edges.begin(), edges.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<NodeId> edge_source(m);
  std::vector<NodeId> edge_target(m);
  for (std::size_t i = 0; i < m; ++i) {
    TIRM_CHECK_LT(edges[i].first, num_nodes);
    TIRM_CHECK_LT(edges[i].second, num_nodes);
    edge_source[i] = edges[i].first;
    edge_target[i] = edges[i].second;
  }

  // Out-CSR (already sorted by source).
  std::vector<std::uint64_t> out_offsets(
      static_cast<std::size_t>(num_nodes) + 1, 0);
  for (std::size_t i = 0; i < m; ++i) ++out_offsets[edge_source[i] + 1];
  std::partial_sum(out_offsets.begin(), out_offsets.end(), out_offsets.begin());
  std::vector<NodeId> out_targets(m);
  std::vector<EdgeId> out_edge_ids(m);
  for (std::size_t i = 0; i < m; ++i) {
    out_targets[i] = edge_target[i];
    out_edge_ids[i] = static_cast<EdgeId>(i);
  }

  // In-CSR via counting sort on targets.
  std::vector<std::uint64_t> in_offsets(static_cast<std::size_t>(num_nodes) + 1,
                                        0);
  for (std::size_t i = 0; i < m; ++i) ++in_offsets[edge_target[i] + 1];
  std::partial_sum(in_offsets.begin(), in_offsets.end(), in_offsets.begin());
  std::vector<NodeId> in_sources(m);
  std::vector<EdgeId> in_edge_ids(m);
  std::vector<std::uint64_t> cursor(in_offsets.begin(), in_offsets.end() - 1);
  for (std::size_t i = 0; i < m; ++i) {
    const NodeId v = edge_target[i];
    const std::size_t pos = static_cast<std::size_t>(cursor[v]++);
    in_sources[pos] = edge_source[i];
    in_edge_ids[pos] = static_cast<EdgeId>(i);
  }

  g.out_offsets_ = ArrayRef<std::uint64_t>::Owned(std::move(out_offsets));
  g.out_targets_ = ArrayRef<NodeId>::Owned(std::move(out_targets));
  g.out_edge_ids_ = ArrayRef<EdgeId>::Owned(std::move(out_edge_ids));
  g.in_offsets_ = ArrayRef<std::uint64_t>::Owned(std::move(in_offsets));
  g.in_sources_ = ArrayRef<NodeId>::Owned(std::move(in_sources));
  g.in_edge_ids_ = ArrayRef<EdgeId>::Owned(std::move(in_edge_ids));
  g.edge_source_ = ArrayRef<NodeId>::Owned(std::move(edge_source));
  g.edge_target_ = ArrayRef<NodeId>::Owned(std::move(edge_target));
  return g;
}

Result<Graph> Graph::FromParts(NodeId num_nodes, const Parts& parts,
                               bool validate_elements) {
  const std::uint64_t m = parts.edge_target.size();
  const std::size_t offsets_size = static_cast<std::size_t>(num_nodes) + 1;
  if (parts.out_offsets.size() != offsets_size ||
      parts.in_offsets.size() != offsets_size) {
    return CorruptCsr("offset array size mismatch");
  }
  if (parts.out_targets.size() != m || parts.out_edge_ids.size() != m ||
      parts.in_sources.size() != m || parts.in_edge_ids.size() != m ||
      parts.edge_source.size() != m) {
    return CorruptCsr("edge array size mismatch");
  }
  TIRM_RETURN_NOT_OK(ValidateOffsets(parts.out_offsets, m, "out"));
  TIRM_RETURN_NOT_OK(ValidateOffsets(parts.in_offsets, m, "in"));
  if (validate_elements) {
    TIRM_RETURN_NOT_OK(ValidateIds(parts.out_targets, num_nodes, "out target"));
    TIRM_RETURN_NOT_OK(ValidateIds(parts.in_sources, num_nodes, "in source"));
    TIRM_RETURN_NOT_OK(ValidateIds(parts.edge_source, num_nodes, "edge source"));
    TIRM_RETURN_NOT_OK(ValidateIds(parts.edge_target, num_nodes, "edge target"));
    TIRM_RETURN_NOT_OK(ValidateSide(parts.out_offsets, parts.out_targets,
                                    parts.out_edge_ids, parts.edge_source,
                                    parts.edge_target, "out"));
    TIRM_RETURN_NOT_OK(ValidateSide(parts.in_offsets, parts.in_sources,
                                    parts.in_edge_ids, parts.edge_target,
                                    parts.edge_source, "in"));
  }

  Graph g;
  g.num_nodes_ = num_nodes;
  g.out_offsets_ = ArrayRef<std::uint64_t>::Borrowed(parts.out_offsets);
  g.out_targets_ = ArrayRef<NodeId>::Borrowed(parts.out_targets);
  g.out_edge_ids_ = ArrayRef<EdgeId>::Borrowed(parts.out_edge_ids);
  g.in_offsets_ = ArrayRef<std::uint64_t>::Borrowed(parts.in_offsets);
  g.in_sources_ = ArrayRef<NodeId>::Borrowed(parts.in_sources);
  g.in_edge_ids_ = ArrayRef<EdgeId>::Borrowed(parts.in_edge_ids);
  g.edge_source_ = ArrayRef<NodeId>::Borrowed(parts.edge_source);
  g.edge_target_ = ArrayRef<NodeId>::Borrowed(parts.edge_target);
  return g;
}

std::size_t Graph::MemoryBytes() const {
  return out_offsets_.MemoryBytes() + out_targets_.MemoryBytes() +
         out_edge_ids_.MemoryBytes() + in_offsets_.MemoryBytes() +
         in_sources_.MemoryBytes() + in_edge_ids_.MemoryBytes() +
         edge_source_.MemoryBytes() + edge_target_.MemoryBytes();
}

}  // namespace tirm
