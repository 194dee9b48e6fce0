#include "core/accountant.h"

#include <limits>

#include "core/status.h"
#include "dp/amplification.h"
#include "graph/spectral.h"

namespace netshuffle {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

NetworkShufflingBoundInput BoundInput(const AccountingContext& ctx,
                                      double sum_p_squares) {
  NetworkShufflingBoundInput in;
  in.epsilon0 = ctx.epsilon0;
  in.n = ctx.n;
  in.sum_p_squares = sum_p_squares;
  in.delta = ctx.delta;
  in.delta2 = ctx.delta2;
  return in;
}

}  // namespace

AccountingContext FixedMassContext(size_t n, double epsilon0,
                                   double sum_p_squares, double delta,
                                   double delta2,
                                   ReportingProtocol protocol) {
  AccountingContext ctx;
  ctx.epsilon0 = epsilon0;
  ctx.n = n;
  ctx.rounds = 1;
  ctx.spectral_gap = 1.0;
  ctx.stationary_sum_squares = sum_p_squares;
  ctx.delta = delta;
  ctx.delta2 = delta2;
  ctx.protocol = protocol;
  return ctx;
}

PrivacyParams StationaryBoundAccountant::Certify(const AccountingContext& ctx) {
  // The spectral gap this bound prices is certified except with probability
  // kSpectralFailureProbability (graph/spectral.h); that failure is paid
  // from delta2, so the reported total stays delta + delta2.
  const double concentration_delta2 = ctx.delta2 - kSpectralFailureProbability;
  if (ctx.rounds == 0 || !(concentration_delta2 > 0.0)) {
    return PrivacyParams{kInf, ctx.delta + ctx.delta2};
  }
  NetworkShufflingBoundInput in = BoundInput(
      ctx, SumSquaresBound(ctx.stationary_sum_squares, ctx.spectral_gap,
                           ctx.rounds));
  in.delta2 = concentration_delta2;
  const double eps = ctx.protocol == ReportingProtocol::kSingle
                         ? EpsilonSingle(in)
                         : EpsilonAllStationary(in);
  return PrivacyParams{eps, ctx.delta + ctx.delta2};
}

PrivacyParams SymmetricExactAccountant::Certify(const AccountingContext& ctx) {
  if (ctx.graph == nullptr) {
    NETSHUFFLE_FATAL(
        "SymmetricExactAccountant requires AccountingContext::graph");
  }
  if (ctx.rounds == 0) return PrivacyParams{kInf, ctx.delta + ctx.delta2};
  // Rebuild the tracked distribution when the graph changed or the query
  // went back in time; otherwise advance the cached one (ascending-round
  // sweeps and Session::Step patterns pay one walk step per round total).
  if (ctx.graph != cached_graph_ || dist_ == nullptr ||
      dist_->time() > ctx.rounds) {
    cached_graph_ = ctx.graph;
    dist_ = std::make_unique<PositionDistribution>(ctx.graph, NodeId{0});
  }
  while (dist_->time() < ctx.rounds) dist_->Step();

  NetworkShufflingBoundInput in = BoundInput(ctx, dist_->SumSquares());
  in.rho_star = dist_->RhoStar();
  const double eps = ctx.protocol == ReportingProtocol::kSingle
                         ? EpsilonSingle(in)
                         : EpsilonAllSymmetric(in);
  return PrivacyParams{eps, ctx.delta + ctx.delta2};
}

}  // namespace netshuffle
