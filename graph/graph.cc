#include "graph/graph.h"

#include <algorithm>
#include <string>

#include "util/parallel.h"

namespace netshuffle {

Status Graph::ValidateEdges(size_t n, const std::vector<Edge>& edges) {
  for (size_t i = 0; i < edges.size(); ++i) {
    if (edges[i].first >= n || edges[i].second >= n) {
      return Status::Error(
          StatusCode::kEdgeEndpointOutOfRange,
          "edge " + std::to_string(i) + " = (" +
              std::to_string(edges[i].first) + ", " +
              std::to_string(edges[i].second) + ") names an endpoint >= the "
              "declared node count " + std::to_string(n));
    }
  }
  return Status::Ok();
}

Graph Graph::FromEdges(size_t n, std::vector<Edge> edges) {
  const Status valid = ValidateEdges(n, edges);
  if (!valid.ok()) NETSHUFFLE_FATAL(valid.ToString());
  // Counting-sort build (DESIGN.md §12): count each node's directed entries
  // (self-loops skipped), prefix the counts into offsets, scatter both
  // directions, then canonicalize every slice on its own.  A sorted,
  // deduplicated slice does not depend on the order its entries arrived
  // in, so the CSR equals the one a global sort of the edge list gives.
  Graph g;
  g.offsets_.assign(n + 1, 0);
  for (const Edge& e : edges) {
    if (e.first == e.second) continue;
    ++g.offsets_[e.first + 1];
    ++g.offsets_[e.second + 1];
  }
  for (size_t i = 0; i < n; ++i) g.offsets_[i + 1] += g.offsets_[i];

  g.adj_.resize(g.offsets_[n]);
  std::vector<size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);

  // Scatter and canonicalize on the pool.  Each part owns a contiguous node
  // range holding about an equal share of the entries; it scans the whole
  // list but writes only its own slices, so every word has one writer and
  // no slice depends on the pool width.  A part must own enough entries to
  // repay its scan, so small graphs build in one part on the calling thread.
  // cursor[u] ends as the end of u's sorted, deduplicated slice.
  constexpr size_t kMinEntriesPerPart = size_t{1} << 16;
  const size_t parts = std::max<size_t>(
      1, std::min(ThreadCount(), g.offsets_[n] / kMinEntriesPerPart));
  auto part_begin = [&](size_t p) -> size_t {
    if (p == parts) return n;
    const size_t share = p * g.offsets_[n] / parts;
    return static_cast<size_t>(
        std::lower_bound(g.offsets_.begin(), g.offsets_.end() - 1, share) -
        g.offsets_.begin());
  };
  NodeId* const adj = g.adj_.data();
  ParallelFor(parts, 1, [&](size_t first_part, size_t end_part) {
    const size_t lo = part_begin(first_part);
    const size_t hi = part_begin(end_part);
    for (const Edge& e : edges) {
      if (e.first == e.second) continue;
      if (e.first >= lo && e.first < hi) adj[cursor[e.first]++] = e.second;
      if (e.second >= lo && e.second < hi) adj[cursor[e.second]++] = e.first;
    }
    for (size_t u = lo; u < hi; ++u) {
      NodeId* const first = adj + g.offsets_[u];
      NodeId* const last = adj + g.offsets_[u + 1];
      std::sort(first, last);
      cursor[u] = static_cast<size_t>(std::unique(first, last) - adj);
    }
  });

  // Slide the slices left over the gaps dropped duplicates left, if any.
  size_t w = 0;
  for (size_t u = 0; u < n; ++u) {
    const size_t begin = g.offsets_[u];
    if (w != begin) std::copy(adj + begin, adj + cursor[u], adj + w);
    g.offsets_[u] = w;
    w += cursor[u] - begin;
  }
  if (w == g.offsets_[n]) return g;
  // Release the list before shrinking, so the shrunk copy fits in the space
  // it gives back and the high-water mark stays that of the scatter.
  std::vector<Edge>().swap(edges);
  g.offsets_[n] = w;
  g.adj_.resize(w);
  g.adj_.shrink_to_fit();
  return g;
}

std::vector<Edge> Graph::EdgeList() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (const NodeId* v = neighbors_begin(u); v != neighbors_end(u); ++v) {
      if (u < *v) out.push_back({u, *v});
    }
  }
  return out;
}

size_t Graph::max_degree() const {
  size_t best = 0;
  for (NodeId u = 0; u < num_nodes(); ++u) best = std::max(best, degree(u));
  return best;
}

}  // namespace netshuffle
