// Compressed-sparse-row undirected graph.  Nodes are dense 0..n-1 ids; the
// adjacency of u is the contiguous slice [neighbors_begin(u),
// neighbors_end(u)).  Self-loops and parallel edges are removed at build
// time, so degree(u) is the simple-graph degree.

#ifndef NETSHUFFLE_GRAPH_GRAPH_H_
#define NETSHUFFLE_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/status.h"

namespace netshuffle {

using NodeId = uint32_t;
using Edge = std::pair<NodeId, NodeId>;

class Graph {
 public:
  Graph() = default;

  /// Typed pre-flight check for FromEdges: every endpoint must be < n.
  /// Returns kEdgeEndpointOutOfRange naming the first offending edge.
  static Status ValidateEdges(size_t n, const std::vector<Edge>& edges);

  /// Builds from an undirected edge list.  Edges may appear in either or both
  /// orientations; duplicates and self-loops are dropped.  `n` fixes the node
  /// count (isolated nodes are representable).  Fatal on exactly what
  /// ValidateEdges rejects — an out-of-range endpoint used to corrupt the
  /// CSR offsets (out-of-bounds writes); callers with untrusted input should
  /// pre-check with ValidateEdges and surface the Status.  Slices are
  /// canonicalized on the pool; the result is the same at any width.
  static Graph FromEdges(size_t n, std::vector<Edge> edges);

  size_t num_nodes() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Number of undirected edges.
  size_t num_edges() const { return adj_.size() / 2; }

  size_t degree(NodeId u) const { return offsets_[u + 1] - offsets_[u]; }

  const NodeId* neighbors_begin(NodeId u) const {
    return adj_.data() + offsets_[u];
  }
  const NodeId* neighbors_end(NodeId u) const {
    return adj_.data() + offsets_[u + 1];
  }

  /// All edges with u < v, for serialization.
  std::vector<Edge> EdgeList() const;

  size_t max_degree() const;

 private:
  // offsets_ has n+1 entries; adj_ holds both directions of every edge.
  std::vector<size_t> offsets_;
  std::vector<NodeId> adj_;
};

}  // namespace netshuffle

#endif  // NETSHUFFLE_GRAPH_GRAPH_H_
