#include "graph/graph.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <vector>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace netshuffle;

namespace {

// The whole CSR as one word sequence: node count, degrees, adjacency.
std::vector<size_t> Flatten(const Graph& g) {
  std::vector<size_t> out{g.num_nodes()};
  for (NodeId u = 0; u < g.num_nodes(); ++u) out.push_back(g.degree(u));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    out.insert(out.end(), g.neighbors_begin(u), g.neighbors_end(u));
  }
  return out;
}

// The one-walk classification must agree with the component labelling and
// the all-components 2-colouring it replaced.
void CheckClassificationAgrees(const Graph& g) {
  const std::vector<int> comp = ConnectedComponents(g);
  const bool connected =
      std::all_of(comp.begin(), comp.end(), [](int c) { return c == 0; });
  CHECK(IsConnected(g) == connected);
  CHECK(IsErgodic(g) == (g.num_nodes() > 0 && connected && !IsBipartite(g)));
}

void WriteFile(const char* path, const char* text) {
  std::FILE* f = std::fopen(path, "w");
  CHECK(f != nullptr);
  std::fputs(text, f);
  std::fclose(f);
}

}  // namespace

int main() {
  // FromEdges dedupes, drops self-loops, and keeps isolated nodes.
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 0}, {1, 1}, {1, 2}, {2, 1}});
  CHECK(g.num_nodes() == 5);
  CHECK(g.num_edges() == 2);
  CHECK(g.degree(0) == 1);
  CHECK(g.degree(1) == 2);
  CHECK(g.degree(3) == 0);

  // Random regular: every node has degree k.
  Rng rng(1);
  Graph reg = MakeRandomRegular(2000, 8, &rng);
  CHECK(reg.num_nodes() == 2000);
  for (NodeId u = 0; u < reg.num_nodes(); ++u) CHECK(reg.degree(u) == 8);
  CHECK(reg.num_edges() == 2000 * 8 / 2);

  // Torus: 4-regular; odd side is ergodic, even side bipartite.
  Graph torus = MakeTorus(9, 9);
  for (NodeId u = 0; u < torus.num_nodes(); ++u) CHECK(torus.degree(u) == 4);
  CHECK(IsErgodic(torus));
  CHECK(IsBipartite(MakeTorus(8, 8)));
  CHECK(!IsErgodic(MakeTorus(8, 8)));

  // Circulant(n, k): k-regular and connected.
  Graph circ = MakeCirculant(101, 8);
  for (NodeId u = 0; u < circ.num_nodes(); ++u) CHECK(circ.degree(u) == 8);
  CHECK(IsConnected(circ));

  // Barabasi-Albert: connected, right edge count shape.
  Graph ba = MakeBarabasiAlbert(3000, 4, &rng);
  CHECK(ba.num_nodes() == 3000);
  CHECK(IsConnected(ba));
  CHECK(ba.max_degree() > 20);  // heavy tail exists

  // Components: two disjoint triangles.
  Graph two = Graph::FromEdges(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  const auto comp = ConnectedComponents(two);
  CHECK(comp[0] == comp[1] && comp[1] == comp[2]);
  CHECK(comp[3] == comp[4] && comp[4] == comp[5]);
  CHECK(comp[0] != comp[3]);
  CHECK(!IsConnected(two));

  for (const Graph* h : {&reg, &torus, &circ, &ba, &two}) {
    CheckClassificationAgrees(*h);
  }
  CheckClassificationAgrees(MakeTorus(8, 8));
  CheckClassificationAgrees(MakeTorus(7, 9));

  // Edge-list IO round trip preserves structure, including isolated nodes.
  const char* path = "test_graph_roundtrip.edges";
  CHECK(SaveEdgeList(g, path));
  Graph loaded;
  CHECK(LoadEdgeList(path, &loaded));
  CHECK(loaded.num_nodes() == g.num_nodes());
  CHECK(loaded.num_edges() == g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    CHECK(loaded.degree(u) == g.degree(u));
  }
  std::remove(path);

  Graph missing;
  CHECK(!LoadEdgeList("does_not_exist.edges", &missing));

  // Untrusted headers fail closed instead of aborting the process: an edge
  // count the file cannot hold used to reach reserve() (std::bad_alloc),
  // and a node count beyond the NodeId range reached the CSR offsets.
  const char* bad_header = "test_graph_bad_header.edges";
  const char* bad_headers[] = {
      "# netshuffle-edgelist 5 99999999999999999\n0 1\n",
      "# netshuffle-edgelist 99999999999999 1\n0 1\n",
      "# netshuffle-edgelist 4294967296 1\n0 1\n",
      "# netshuffle-edgelist 5 3\n0 1\n",
  };
  for (const char* text : bad_headers) {
    WriteFile(bad_header, text);
    Graph untouched = g;
    CHECK(!LoadEdgeList(bad_header, &untouched));
    CHECK(Flatten(untouched) == Flatten(g));
  }
  WriteFile(bad_header, "# netshuffle-edgelist 5 2\n0 1\n3 4");
  CHECK(LoadEdgeList(bad_header, &loaded));
  CHECK(loaded.num_nodes() == 5 && loaded.num_edges() == 2);
  std::remove(bad_header);

  // Regression: endpoints >= n used to corrupt the CSR offsets silently
  // (out-of-bounds writes).  The typed validator names the offender...
  CHECK(Graph::ValidateEdges(5, {{0, 1}, {1, 4}}).ok());
  const Status bad = Graph::ValidateEdges(5, {{0, 1}, {3, 5}});
  CHECK(bad.code() == StatusCode::kEdgeEndpointOutOfRange);
  CHECK(Graph::ValidateEdges(3, {{7, 0}}).code() ==
        StatusCode::kEdgeEndpointOutOfRange);
  CHECK(Graph::ValidateEdges(0, {}).ok());

  // ...and FromEdges aborts on exactly that instead of building garbage;
  // run the violation in a forked child and expect an abnormal exit.
  const pid_t pid = fork();
  CHECK(pid >= 0);
  if (pid == 0) {
    (void)Graph::FromEdges(3, {{0, 5}});  // must abort
    _exit(0);                             // reaching here fails the parent
  }
  int wstatus = 0;
  CHECK(waitpid(pid, &wstatus, 0) == pid);
  CHECK(!(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0));

  // Differential: the counting-sort build against a std::set-per-node
  // reference, on seeded edge lists with duplicates in both orientations,
  // self-loops, isolated nodes and a hub of degree in the thousands.  Each
  // slice is canonicalized on its own, so the CSR must be byte-identical at
  // every pool width.  The lists hold ~2.8e5 directed entries, enough for
  // FromEdges to split them over as many parts as the pool has threads.
  for (uint64_t seed : {11, 12, 13}) {
    Rng er(seed);
    const size_t n = 40000 + er.UniformInt(5000);
    const size_t linked = n - n / 10;  // the top tenth stays isolated
    const NodeId hub = static_cast<NodeId>(er.UniformInt(linked));
    std::vector<Edge> edges;
    auto any = [&] { return static_cast<NodeId>(er.UniformInt(linked)); };
    for (size_t i = 0; i < 120000; ++i) edges.push_back({any(), any()});
    for (size_t i = 0; i < 3000; ++i) edges.push_back({hub, any()});
    for (size_t i = 0; i < 500; ++i) {
      const NodeId u = any();
      edges.push_back({u, u});
    }
    const size_t distinct = edges.size();
    for (size_t i = 0; i < distinct; i += 7) {
      const Edge e = edges[er.UniformInt(distinct)];
      edges.push_back(i % 2 == 0 ? e : Edge{e.second, e.first});
    }
    er.Shuffle(&edges);

    std::vector<std::set<NodeId>> ref(n);
    for (const Edge& e : edges) {
      if (e.first == e.second) continue;
      ref[e.first].insert(e.second);
      ref[e.second].insert(e.first);
    }
    std::vector<size_t> want;
    for (int threads = 1; threads <= 4; ++threads) {
      SetThreadCount(static_cast<size_t>(threads));
      const Graph built = Graph::FromEdges(n, edges);
      CHECK(built.num_nodes() == n);
      size_t entries = 0;
      for (NodeId u = 0; u < n; ++u) {
        CHECK(built.degree(u) == ref[u].size());
        CHECK(std::equal(built.neighbors_begin(u), built.neighbors_end(u),
                         ref[u].begin()));
        entries += ref[u].size();
      }
      CHECK(built.num_edges() * 2 == entries);
      CHECK(built.degree(hub) >= 2000);
      CHECK(built.degree(static_cast<NodeId>(n - 1)) == 0);
      const std::vector<size_t> got = Flatten(built);
      if (threads == 1) want = got;
      CHECK(got == want);

      // A duplicate-free list (no slice to compact) rebuilds the same CSR.
      std::vector<Edge> simple = built.EdgeList();
      er.Shuffle(&simple);
      CHECK(Flatten(Graph::FromEdges(n, std::move(simple))) == want);
    }
  }
  SetThreadCount(0);
  return 0;
}
