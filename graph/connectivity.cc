#include "graph/connectivity.h"

#include <cstdint>

namespace netshuffle {

std::vector<int> ConnectedComponents(const Graph& g) {
  const size_t n = g.num_nodes();
  std::vector<int> component(n, -1);
  int next = 0;
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < n; ++s) {
    if (component[s] != -1) continue;
    component[s] = next;
    stack.push_back(s);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const NodeId* v = g.neighbors_begin(u); v != g.neighbors_end(u);
           ++v) {
        if (component[*v] == -1) {
          component[*v] = next;
          stack.push_back(*v);
        }
      }
    }
    ++next;
  }
  return component;
}

bool IsBipartite(const Graph& g) {
  const size_t n = g.num_nodes();
  std::vector<int8_t> color(n, -1);
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < n; ++s) {
    if (color[s] != -1 || g.degree(s) == 0) continue;
    color[s] = 0;
    stack.push_back(s);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const NodeId* v = g.neighbors_begin(u); v != g.neighbors_end(u);
           ++v) {
        if (color[*v] == -1) {
          color[*v] = static_cast<int8_t>(1 - color[u]);
          stack.push_back(*v);
        } else if (color[*v] == color[u]) {
          return false;
        }
      }
    }
  }
  return true;
}

Ergodicity CheckErgodicity(const Graph& g) {
  const size_t n = g.num_nodes();
  if (n == 0) return Ergodicity::kBipartite;
  // Breadth-first, so the nodes to visit next are known in advance: the
  // walk prefetches the adjacency slice a few queue entries ahead instead
  // of stalling on each one.
  constexpr size_t kPrefetchAhead = 16;
  constexpr uint8_t kUnseen = 2;
  std::vector<uint8_t> color(n, kUnseen);
  std::vector<NodeId> queue;
  queue.reserve(n);
  queue.push_back(0);
  color[0] = 0;
  bool odd_cycle = false;
  for (size_t head = 0; head < queue.size(); ++head) {
    if (head + kPrefetchAhead < queue.size()) {
      __builtin_prefetch(g.neighbors_begin(queue[head + kPrefetchAhead]));
    }
    const NodeId u = queue[head];
    const uint8_t cu = color[u];
    for (const NodeId* v = g.neighbors_begin(u); v != g.neighbors_end(u);
         ++v) {
      if (color[*v] == kUnseen) {
        color[*v] = static_cast<uint8_t>(cu ^ 1);
        queue.push_back(*v);
      } else {
        odd_cycle |= color[*v] == cu;
      }
    }
  }
  if (queue.size() < n) return Ergodicity::kDisconnected;
  return odd_cycle ? Ergodicity::kErgodic : Ergodicity::kBipartite;
}

}  // namespace netshuffle
