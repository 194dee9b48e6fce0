// Certified spectral-gap estimation for the walk transition matrix: Lanczos
// on the symmetrized operator S = D^{-1/2} A D^{-1/2}, restricted to the
// complement of its trivial eigenvector sqrt(deg), with an a-posteriori
// random-start upper bound on the dominating eigenvalue magnitude
// (van Dorsselaer, Hochstenbach & van der Vorst, SIMAX 2001).  The bound
// holds except with probability kSpectralFailureProbability over the start
// vector, which the stationary-bound accountant charges to delta2
// (DESIGN.md §2).

#ifndef NETSHUFFLE_GRAPH_SPECTRAL_H_
#define NETSHUFFLE_GRAPH_SPECTRAL_H_

#include <cstddef>
#include <cstdint>

#include "graph/graph.h"
#include "graph/walk.h"  // MixingTime pairs with the estimated gap

namespace netshuffle {

/// Probability that the random Lanczos start leaves lambda_upper below the
/// true max(|lambda_2|, |lambda_n|).  A fixed library constant, carved out
/// of delta2 by StationaryBoundAccountant (core/accountant.h); Session
/// rejects delta2 <= this with kInvalidDelta.
inline constexpr double kSpectralFailureProbability = 1e-10;

struct SpectralGapEstimate {
  /// Certified absolute spectral gap 1 - lambda_upper: the alpha governing
  /// (1-alpha)^t mixing, on the safe (small) side.  0 for disconnected or
  /// bipartite graphs, and whenever nothing below 1 could be certified.
  double gap = 0.0;
  /// Ritz estimate of max(|lambda_2|, |lambda_n|): the extreme eigenvalues
  /// of the Lanczos tridiagonal.  Never above the true value in exact
  /// arithmetic, so it is NOT safe to price privacy with.
  double lambda = 1.0;
  /// Certified upper bound on max(|lambda_2|, |lambda_n|), including the
  /// finite-precision margin; 1 when nothing smaller could be certified.
  double lambda_upper = 1.0;
  /// Lanczos steps taken (one operator application each).
  size_t iterations = 0;
  /// True when a stopping rule held: the tolerance rule, lambda_upper -
  /// lambda <= tolerance * (1 - lambda_upper); the rounds rule,
  /// MixingTime(1 - lambda_upper, n) == MixingTime(1 - lambda, n) below
  /// kMaxMixingRounds, so no further step could remove a round; or an
  /// exhausted Krylov space (an exact result).  False when the iteration
  /// cap stopped the estimate first.
  bool converged = false;
};

/// Deflated Lanczos, stopped by whichever certified stopping rule above
/// holds first, with n = g.num_nodes().  The rounds rule ends the estimate
/// as soon as its round count is final; the tolerance rule is the backstop,
/// and fires first when the gap prices hundreds of rounds or more.
/// Neither rule changes the certificate, only the step it is read at.
/// Deterministic: the Gaussian start is seeded from the graph size, never
/// the caller, and every reduction sums fixed blocks in block order, so the
/// whole estimate is bit-identical at any thread count.  O(iterations * m)
/// time, five n-vectors of memory.
SpectralGapEstimate EstimateSpectralGap(const Graph& g,
                                        size_t max_iterations = 300,
                                        double tolerance = 0.02);

/// Process-wide count of EstimateSpectralGap calls, for tests that pin
/// how many estimates a code path pays for.
uint64_t SpectralEstimateCount();

}  // namespace netshuffle

#endif  // NETSHUFFLE_GRAPH_SPECTRAL_H_
