#include "graph/io.h"

#include <cinttypes>
#include <cstdio>
#include <limits>
#include <vector>

namespace netshuffle {

namespace {

// Bytes between the read position and the end of the file.
size_t RemainingBytes(std::FILE* f) {
  const long here = std::ftell(f);
  if (here < 0 || std::fseek(f, 0, SEEK_END) != 0) return 0;
  const long end = std::ftell(f);
  if (end < here || std::fseek(f, here, SEEK_SET) != 0) return 0;
  return static_cast<size_t>(end - here);
}

}  // namespace

bool SaveEdgeList(const Graph& g, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# netshuffle-edgelist %zu %zu\n", g.num_nodes(),
               g.num_edges());
  for (const Edge& e : g.EdgeList()) {
    std::fprintf(f, "%" PRIu32 " %" PRIu32 "\n", e.first, e.second);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool LoadEdgeList(const std::string& path, Graph* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  size_t n = 0, m = 0;
  // The header is untrusted: node ids are NodeId-wide, and every edge line
  // takes at least 3 bytes ("u v"), so a count the file cannot hold is
  // malformed rather than an allocation to attempt.
  if (std::fscanf(f, "# netshuffle-edgelist %zu %zu\n", &n, &m) != 2 ||
      n > std::numeric_limits<NodeId>::max() || m > RemainingBytes(f) / 3) {
    std::fclose(f);
    return false;
  }
  std::vector<Edge> edges;
  edges.reserve(m);
  uint32_t u = 0, v = 0;
  while (std::fscanf(f, "%" SCNu32 " %" SCNu32, &u, &v) == 2) {
    if (u >= n || v >= n) {
      std::fclose(f);
      return false;
    }
    edges.push_back({u, v});
  }
  std::fclose(f);
  if (edges.size() != m) return false;
  *out = Graph::FromEdges(n, std::move(edges));
  return true;
}

}  // namespace netshuffle
