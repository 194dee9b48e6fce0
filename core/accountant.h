// The privacy accountant: the one way this repo certifies the central
// (eps, delta) of a network-shuffled deployment.  StationaryBoundAccountant
// prices the Eq.-7 geometric bound on sum P^2 (Thm 5.3 / 5.5); it needs only
// the spectral gap and the stationary collision mass, so it tracks no single
// origin's walk and also answers hypothetical what-if queries without a
// graph (bench/fig8_parameters.cc).
//
// Certify returns the *raw* theorem value, which can exceed the trivial
// (eps0, 0) LDP floor in weak regimes (or be +inf where the theorem
// certifies nothing); core/session.h Session caps against the floor.

#ifndef NETSHUFFLE_CORE_ACCOUNTANT_H_
#define NETSHUFFLE_CORE_ACCOUNTANT_H_

#include <cstddef>
#include <cstdint>

#include "graph/graph.h"
#include "shuffle/protocol.h"

namespace netshuffle {

struct PrivacyParams {
  double epsilon = 0.0;
  double delta = 0.0;
};

/// Everything the accountant consumes at query time: scalars only, so a
/// Session and a graph-free parameter study fill it the same way.
struct AccountingContext {
  /// Local DP budget of each report's randomizer.
  double epsilon0 = 1.0;
  /// Number of participating users (= reports).
  size_t n = 0;
  /// Exchange rounds accounted for.  0 certifies nothing beyond the LDP
  /// floor (Certify returns +inf, which Session caps).
  size_t rounds = 0;
  ReportingProtocol protocol = ReportingProtocol::kAll;
  /// Delta split: composition slack / report-size concentration slack.
  double delta = 0.5e-6;
  double delta2 = 0.5e-6;
  /// Absolute spectral gap alpha of the walk operator.
  double spectral_gap = 0.0;
  /// sum_v pi_v^2 of the stationary distribution (= Gamma_G / n).
  double stationary_sum_squares = 0.0;
  /// Unread: the accountant prices the graph through spectral_gap and
  /// stationary_sum_squares alone.  Its last writer is perfbench's replay
  /// (perfbench/src/replay.cc:226); the field goes once that write is
  /// dropped.
  const Graph* graph = nullptr;
  /// Unread: no accountant consumes a seed.  Its last writer is perfbench's
  /// replay (perfbench/src/replay.cc:227); the field goes once that write
  /// is dropped.
  uint64_t seed = 2022;
};

/// Context that makes the accountant consume `sum_p_squares` as-is: rounds=1
/// with spectral_gap=1 zeroes the geometric term of the Eq.-7 bound, so the
/// supplied value IS the operating-point collision mass.  The graph-free
/// parameter-study idiom (fig7/fig8 sweeps, collusion penalties).
AccountingContext FixedMassContext(size_t n, double epsilon0,
                                   double sum_p_squares, double delta,
                                   double delta2,
                                   ReportingProtocol protocol =
                                       ReportingProtocol::kAll);

/// Theorem 5.3 (kAll) / 5.5 (kSingle) at the Eq.-7 collision-mass bound
/// sum pi^2 + (1 - alpha)^{2t}.  Graph-free: a query with spectral_gap = 1
/// evaluates the pure stationary limit at any supplied collision mass.
/// Because alpha is a certified bound that can fail with probability
/// kSpectralFailureProbability (graph/spectral.h), the concentration step
/// spends delta2 minus that constant; the reported delta is still
/// delta + delta2, and delta2 at or below the constant certifies nothing.
/// An epsilon0 that is not finite and > 0 certifies nothing either (+inf).
class StationaryBoundAccountant {
 public:
  /// Stable identifier, surfaced in BENCH_*.json ("accountant" field).
  const char* name() const { return "stationary_bound"; }
  /// Raw certified central (eps, delta + delta2) at the queried operating
  /// point.  May exceed the (eps0, 0) floor; +inf epsilon when the theorem's
  /// validity regime is left.  Stateless, so safe from any thread.
  PrivacyParams Certify(const AccountingContext& ctx) const;
};

}  // namespace netshuffle

#endif  // NETSHUFFLE_CORE_ACCOUNTANT_H_
