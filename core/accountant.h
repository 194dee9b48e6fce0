// Pluggable privacy accountants: one interface over the two ways this repo
// certifies the central (eps, delta) of a network-shuffled deployment —
//
//   StationaryBoundAccountant   Eq.-7 geometric bound on sum P^2 (Thm 5.3 /
//                               5.5); needs only the spectral gap and the
//                               stationary collision mass, so it also
//                               answers hypothetical what-if queries without
//                               a graph (bench/fig8_parameters.cc).
//   SymmetricExactAccountant    exact position tracking + rho* (Thm 5.4) of
//                               a report from node 0; tighter at finite t,
//                               caches the tracked distribution across
//                               queries.
//
// Accountants return the *raw* theorem value, which can exceed the trivial
// (eps0, 0) LDP floor in weak regimes (or be +inf where a theorem certifies
// nothing); core/session.h Session caps against the floor.

#ifndef NETSHUFFLE_CORE_ACCOUNTANT_H_
#define NETSHUFFLE_CORE_ACCOUNTANT_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "graph/graph.h"
#include "graph/walk.h"
#include "shuffle/protocol.h"

namespace netshuffle {

struct PrivacyParams {
  double epsilon = 0.0;
  double delta = 0.0;
};

/// Everything an accountant may consume at query time.  A Session fills all
/// of it; standalone callers (parameter-study benches) may leave `graph`
/// null and use the scalar fields only — the graph-requiring accountants
/// document that they need it.
struct AccountingContext {
  /// Local DP budget of each report's randomizer.
  double epsilon0 = 1.0;
  /// Number of participating users (= reports).
  size_t n = 0;
  /// Exchange rounds accounted for.  0 certifies nothing beyond the LDP
  /// floor (every accountant returns +inf, which Session caps).
  size_t rounds = 0;
  ReportingProtocol protocol = ReportingProtocol::kAll;
  /// Delta split: composition slack / report-size concentration slack.
  double delta = 0.5e-6;
  double delta2 = 0.5e-6;
  /// Absolute spectral gap alpha of the walk operator.
  double spectral_gap = 0.0;
  /// sum_v pi_v^2 of the stationary distribution (= Gamma_G / n).
  double stationary_sum_squares = 0.0;
  /// The communication graph; required by SymmetricExactAccountant, ignored
  /// by StationaryBoundAccountant.
  const Graph* graph = nullptr;
  /// Unread: no accountant consumes a seed.  Its last writer is perfbench's
  /// replay (perfbench/src/replay.cc:227); the field goes once that write
  /// is dropped.
  uint64_t seed = 2022;
};

/// Context that makes an accountant consume `sum_p_squares` as-is: rounds=1
/// with spectral_gap=1 zeroes the geometric term of the Eq.-7 bound, so the
/// supplied value IS the operating-point collision mass.  The graph-free
/// parameter-study idiom (fig7/fig8 sweeps, collusion penalties).
AccountingContext FixedMassContext(size_t n, double epsilon0,
                                   double sum_p_squares, double delta,
                                   double delta2,
                                   ReportingProtocol protocol =
                                       ReportingProtocol::kAll);

class Accountant {
 public:
  virtual ~Accountant() = default;

  /// Stable identifier, surfaced in BENCH_*.json ("accountant" field).
  virtual const char* name() const = 0;

  /// Raw certified central (eps, delta_total) at the queried operating
  /// point.  May exceed the (eps0, 0) floor; +inf epsilon when the theorem's
  /// validity regime is left.  Non-const because implementations may cache
  /// walk state between queries.
  virtual PrivacyParams Certify(const AccountingContext& ctx) = 0;

  /// Invalidates any cached walk state.  Callers that mutate a graph IN
  /// PLACE (same object address — e.g. Session::Rewire) must call this;
  /// pointer-keyed caches cannot see such a change on their own.
  virtual void OnTopologyChanged() {}

  /// A fresh accountant of this one's kind (with its configuration, should
  /// it carry any) but none of its cached walk state.  Session::Create
  /// adopts a clone, never the configured instance itself: a SessionConfig is
  /// copyable, so two Creates from one config would otherwise share one
  /// mutable accountant — its cache keyed on dead graph addresses and its
  /// queries racing across sessions.
  virtual std::unique_ptr<Accountant> Clone() const = 0;
};

/// Theorem 5.3 (kAll) / 5.5 (kSingle) at the Eq.-7 collision-mass bound
/// sum pi^2 + (1 - alpha)^{2t}.  Graph-free: a query with spectral_gap = 1
/// evaluates the pure stationary limit at any supplied collision mass.
/// Because alpha is a certified bound that can fail with probability
/// kSpectralFailureProbability (graph/spectral.h), the concentration step
/// spends delta2 minus that constant; the reported delta is still
/// delta + delta2, and delta2 at or below the constant certifies nothing.
class StationaryBoundAccountant : public Accountant {
 public:
  const char* name() const override { return "stationary_bound"; }
  PrivacyParams Certify(const AccountingContext& ctx) override;
  std::unique_ptr<Accountant> Clone() const override {
    return std::make_unique<StationaryBoundAccountant>();
  }
};

/// Theorem 5.4: exact position tracking of a report injected at node 0, with
/// the rho* overshoot.  kSingle queries use Theorem 5.5 at the exact
/// collision mass.  Requires ctx.graph.  The tracked distribution is cached
/// and advanced incrementally across ascending-round queries on the same
/// graph.
///
/// Only origin 0 is tracked, so the value is a guarantee for every report
/// only when every origin's walk looks alike (as on a vertex-transitive
/// graph).  Elsewhere it can understate the worst origin's epsilon: on BA
/// n = 4000, m = 3, t = 7, node 0 gives 1.118 against 1.782 at the worst
/// origin.
class SymmetricExactAccountant : public Accountant {
 public:
  const char* name() const override { return "symmetric_exact"; }
  PrivacyParams Certify(const AccountingContext& ctx) override;
  void OnTopologyChanged() override {
    cached_graph_ = nullptr;
    dist_.reset();
  }
  /// The clone starts with an empty walk cache (it is rebuilt on first
  /// query), so cloning never leaks tracked state across sessions.
  std::unique_ptr<Accountant> Clone() const override {
    return std::make_unique<SymmetricExactAccountant>();
  }

 private:
  const Graph* cached_graph_ = nullptr;
  std::unique_ptr<PositionDistribution> dist_;
};

}  // namespace netshuffle

#endif  // NETSHUFFLE_CORE_ACCOUNTANT_H_
