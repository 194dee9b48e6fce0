// Random-walk machinery: exact position-distribution tracking for a report
// injected at one node, plus the stationary-distribution summaries the
// amplification theorems consume.
//
// For a simple random walk on an undirected graph the stationary distribution
// is pi_v = deg(v) / 2m; Gamma_G = n * sum_v pi_v^2 is the paper's
// irregularity measure (1 for regular graphs).

#ifndef NETSHUFFLE_GRAPH_WALK_H_
#define NETSHUFFLE_GRAPH_WALK_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"

namespace netshuffle {

/// Dense distribution of a single report's position after t walk steps,
/// advanced one round at a time.  Memory O(n), step O(m).
class PositionDistribution {
 public:
  /// The graph must outlive this object.
  PositionDistribution(const Graph* graph, NodeId origin);

  /// One synchronous walk step: p <- p P, where P uv = 1/deg(u).
  /// Mass on isolated nodes stays put.
  void Step();

  /// Lazy step: with probability `laziness` the report stays put.
  /// p <- laziness * p + (1 - laziness) * p P.
  void LazyStep(double laziness);

  size_t time() const { return time_; }
  const std::vector<double>& probabilities() const { return p_; }

  /// sum_v p_v^2 — the collision mass driving the amplification bounds.
  double SumSquares() const;

  /// rho* = max_v p_v / pi_v, the worst-case overshoot over stationarity
  /// (1 at perfect mixing).  Nodes with pi_v = 0 are skipped.
  double RhoStar() const;

 private:
  const Graph* graph_;
  std::vector<double> p_;
  std::vector<double> next_;
  std::vector<double> share_;  // p_[u]/deg(u) scratch for the pull-form step
  size_t time_ = 0;
};

/// sum_v pi_v^2 for the stationary distribution pi_v = deg(v)/2m.
double StationarySumSquares(const Graph& g);

/// Gamma_G = n * StationarySumSquares — 1 for regular graphs, larger the more
/// irregular the degrees.
double StationaryGamma(const Graph& g);

/// Eq. 5/7-style geometric bound: sum_v P_v(t)^2 <= sum_v pi_v^2 +
/// (1-gap)^{2t}.
double SumSquaresBound(double stationary_sum_squares, double spectral_gap,
                       size_t t);

/// MixingTime's round cap: a vanishing gap (disconnected / bipartite /
/// degenerate graph) reports this many rounds instead of an unbounded count.
inline constexpr size_t kMaxMixingRounds = 1000000;

/// t* = ceil(log(n) / gap), the operating point used throughout the paper,
/// capped at kMaxMixingRounds.
size_t MixingTime(double spectral_gap, size_t n);

}  // namespace netshuffle

#endif  // NETSHUFFLE_GRAPH_WALK_H_
