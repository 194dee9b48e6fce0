#include <unordered_set>
#include <utility>

#include "graph/generators.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using netshuffle::Edge;
using netshuffle::Graph;
using netshuffle::HashCombine;
using netshuffle::NodeId;
using netshuffle::Rng;

// Sizes: cold-certify runs the paper's heavy-tailed regime at n = 5e5; the
// serving workloads use n = 1e5 so that a run sees many epoch boundaries
// (serve-churn pays a full spectral estimate at each one).
const WorkloadSpec kWorkloads[] = {
    {"cold-certify", Topology::kBarabasiAlbert, 500000, 10, 0, 0,
     /*churn=*/false, /*setups=*/3,
     /*trace_epochs=*/4},
    {"serve-steady", Topology::kRegular, 100000, 20, 2, 2,
     /*churn=*/false, /*setups=*/6,
     /*trace_epochs=*/12},
    {"serve-churn", Topology::kRegular, 100000, 20, 2, 2,
     /*churn=*/true, /*setups=*/6,
     /*trace_epochs=*/4},
};

uint64_t EdgeKey(NodeId a, NodeId b) {
  return a < b ? (static_cast<uint64_t>(a) << 32) | b
               : (static_cast<uint64_t>(b) << 32) | a;
}

// Degree-preserving double-edge swaps: (a,b),(c,d) -> (a,d),(c,b), rejected
// when it would add a self-loop or a parallel edge.  Replaces about
// `share` of the edges (two per swap).
void SwapEdges(std::vector<Edge>* edges, std::unordered_set<uint64_t>* present,
               double share, Rng* rng) {
  const size_t m = edges->size();
  const size_t swaps = static_cast<size_t>(share * static_cast<double>(m) / 2);
  size_t done = 0;
  while (done < swaps) {
    Edge& e1 = (*edges)[rng->UniformInt(m)];
    Edge& e2 = (*edges)[rng->UniformInt(m)];
    NodeId a = e1.first, b = e1.second;
    NodeId c = e2.first, d = e2.second;
    if (rng->Next() & 1) std::swap(c, d);
    if (a == c || a == d || b == c || b == d) continue;
    if (present->count(EdgeKey(a, d)) || present->count(EdgeKey(c, b))) {
      continue;
    }
    present->erase(EdgeKey(a, b));
    present->erase(EdgeKey(c, d));
    present->insert(EdgeKey(a, d));
    present->insert(EdgeKey(c, b));
    e1 = {a, d};
    e2 = {c, b};
    ++done;
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : kWorkloads) names.emplace_back(w.name);
  return names;
}

const netshuffle::KRandomizedResponse& Mechanism() {
  static const netshuffle::KRandomizedResponse rr(kCategories, kEpsilon0);
  return rr;
}

uint64_t EmitSeed(uint64_t seed, size_t epoch) {
  return HashCombine(HashCombine(seed, 0xe417), epoch);
}

void EmitAll(const std::vector<uint32_t>& values, uint64_t emit_seed,
             netshuffle::PayloadArena* arena) {
  Rng rng(emit_seed);
  for (size_t u = 0; u < values.size(); ++u) {
    Mechanism().EmitReport(static_cast<NodeId>(u), values[u], &rng, arena);
  }
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  in.n = spec.n;
  in.seed = seed;
  in.session_seed = HashCombine(seed, 0x5e55);
  Rng graph_rng(HashCombine(seed, 0x9a9f));
  const Graph g =
      spec.topology == Topology::kBarabasiAlbert
          ? netshuffle::MakeBarabasiAlbert(spec.n, spec.degree, &graph_rng)
          : netshuffle::MakeRandomRegular(spec.n, spec.degree, &graph_rng);
  in.edges = g.EdgeList();

  Rng value_rng(HashCombine(seed, 0xda7a));
  in.values.resize(kValueColumns);
  for (std::vector<uint32_t>& column : in.values) {
    column.resize(spec.n);
    for (uint32_t& v : column) {
      v = static_cast<uint32_t>(value_rng.UniformInt(kCategories));
    }
  }
  EmitAll(in.values[0], EmitSeed(seed, 0), &in.reports);

  if (spec.churn) {
    std::vector<Edge> chain = in.edges;
    std::unordered_set<uint64_t> present;
    present.reserve(2 * chain.size());
    for (const Edge& e : chain) present.insert(EdgeKey(e.first, e.second));
    in.churn.push_back(Graph::FromEdges(spec.n, chain));
    for (size_t k = 1; k <= kChurnGraphs; ++k) {
      SwapEdges(&chain, &present, kChurnEdgeShare, &graph_rng);
      in.churn.push_back(Graph::FromEdges(spec.n, chain));
    }
  }
  return in;
}

size_t ChurnIndex(size_t boundary) {
  const size_t period = 2 * kChurnGraphs;
  const size_t r = boundary % period;
  return r <= kChurnGraphs ? r : period - r;
}

}  // namespace perfbench
