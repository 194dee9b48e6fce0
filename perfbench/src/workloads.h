// The benchmark's three workloads and the seeded inputs each one runs on.
//
//   cold-certify  one-shot pipeline on a Barabasi-Albert graph: edge list
//                 and k-RR reports in hand -> Graph::FromEdges ->
//                 Session::Create -> step to the mixing time -> Guarantee ->
//                 FinalizeEpoch to the curator.  The paper's heavy-tailed
//                 social-graph regime; the spectral estimate in Create
//                 dominates.  Each certification is followed by a few
//                 seconds of reader-free epochs at full pool width, so the
//                 exchange-side metrics average over seconds, not over one
//                 certification's quarter second of rounds.
//   serve-steady  epoch serving on a fixed 20-regular graph: one mutator
//                 streams EmitReport into the pending arena between
//                 Step(1) calls and rolls each epoch while two reader
//                 threads query Guarantee.  The spectral estimate runs only
//                 at setup, so the exchange and the epoch lifecycle
//                 dominate.
//   serve-churn   serve-steady plus a Rewire at every epoch boundary to a
//                 graph ~1% of whose edges differ from the previous one
//                 (degree-preserving swaps made before timing): repeated
//                 spectral estimates under reader load.
//
// Every input is a pure function of the --seed argument and is generated
// before any timer starts; the library only ever sees the generated edge
// lists, graphs and report values.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dp/ldp.h"
#include "graph/graph.h"
#include "shuffle/payload.h"

namespace perfbench {

enum class Topology { kBarabasiAlbert, kRegular };

struct WorkloadSpec {
  const char* name;
  Topology topology;
  size_t n;
  /// Edges per arriving node (Barabasi-Albert) or the degree (regular).
  size_t degree;
  /// Exchange/spectral pool width; 0 = every hardware thread.
  size_t pool_width;
  /// Reader threads querying Guarantee while the mutator serves (0: the
  /// mutator times quiet Guarantee queries after each epoch instead).
  size_t readers;
  /// Rewire to the next swap-chain graph at each serving epoch boundary.
  bool churn;
  /// Cold certifications (each a full setup) per run, each followed by an
  /// equal slice of the serving time; setup_s and certify_s are their
  /// medians.
  size_t setups;
  /// Serving epochs the traced run replays after epoch 0.
  size_t trace_epochs;
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Fixed session parameters shared by every workload.
constexpr size_t kCategories = 16;
constexpr double kEpsilon0 = 1.0;
constexpr double kDelta = 0.5e-6;
constexpr double kDelta2 = 0.5e-6;
/// Distinct per-epoch data columns; epoch e ingests column e % kValueColumns.
constexpr size_t kValueColumns = 4;
/// Swap-chain length for serve-churn; boundaries walk it back and forth.
constexpr size_t kChurnGraphs = 8;
/// Share of edges each churn step replaces.
constexpr double kChurnEdgeShare = 0.01;

struct Inputs {
  size_t n = 0;
  /// The --seed argument; per-epoch emit streams derive from it.
  uint64_t seed = 0;
  /// SessionConfig::SetSeed value (engine and finalize streams).
  uint64_t session_seed = 0;
  /// The setup graph as an edge list (Graph::FromEdges input).
  std::vector<netshuffle::Edge> edges;
  /// Epoch 0's k-RR reports, emitted before timing from values[0].
  netshuffle::PayloadArena reports;
  /// Raw per-user category data, one column per kValueColumns.
  std::vector<std::vector<uint32_t>> values;
  /// serve-churn: the swap chain; churn[0] is the setup graph.
  std::vector<netshuffle::Graph> churn;
};

const netshuffle::KRandomizedResponse& Mechanism();

/// The mechanism RNG stream that randomizes epoch `epoch`'s reports.
uint64_t EmitSeed(uint64_t seed, size_t epoch);

/// Emits one k-RR report per user from `values` into `arena`.
void EmitAll(const std::vector<uint32_t>& values, uint64_t emit_seed,
             netshuffle::PayloadArena* arena);

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// Index into Inputs::churn of the graph rewired to at serving boundary
/// `boundary` (1, 2, ...): the chain walked back and forth, so every rewire
/// changes about kChurnEdgeShare of the edges.
size_t ChurnIndex(size_t boundary);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
