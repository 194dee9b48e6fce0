// Connectivity / ergodicity checks for the random-walk engine.

#ifndef NETSHUFFLE_GRAPH_CONNECTIVITY_H_
#define NETSHUFFLE_GRAPH_CONNECTIVITY_H_

#include <vector>

#include "graph/graph.h"

namespace netshuffle {

/// Component id (0-based, BFS discovery order) per node.
std::vector<int> ConnectedComponents(const Graph& g);

/// True iff the graph is 2-colorable (isolated nodes don't count against it).
bool IsBipartite(const Graph& g);

/// What a random walk on g converges to, from one 2-colouring walk out of
/// node 0.  A walk has a unique stationary distribution it reaches from
/// every start iff g is connected and non-bipartite.  Disconnection takes
/// precedence: a graph that is both disconnected and bipartite (or whose
/// node-0 component is bipartite) is kDisconnected.  The empty graph counts
/// as connected and bipartite.
enum class Ergodicity { kErgodic, kDisconnected, kBipartite };
Ergodicity CheckErgodicity(const Graph& g);

inline bool IsConnected(const Graph& g) {
  return CheckErgodicity(g) != Ergodicity::kDisconnected;
}

inline bool IsErgodic(const Graph& g) {
  return CheckErgodicity(g) == Ergodicity::kErgodic;
}

}  // namespace netshuffle

#endif  // NETSHUFFLE_GRAPH_CONNECTIVITY_H_
