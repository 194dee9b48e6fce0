#include "core/accountant.h"

#include <limits>

#include "dp/amplification.h"
#include "graph/spectral.h"
#include "graph/walk.h"

namespace netshuffle {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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

PrivacyParams StationaryBoundAccountant::Certify(
    const AccountingContext& ctx) const {
  // The spectral gap this bound prices is certified except with probability
  // kSpectralFailureProbability (graph/spectral.h); that failure is paid
  // from delta2, so the reported total stays delta + delta2.
  const double concentration_delta2 = ctx.delta2 - kSpectralFailureProbability;
  if (ctx.rounds == 0 || !(concentration_delta2 > 0.0)) {
    return PrivacyParams{kInf, ctx.delta + ctx.delta2};
  }
  NetworkShufflingBoundInput in;
  in.epsilon0 = ctx.epsilon0;
  in.n = ctx.n;
  in.sum_p_squares = SumSquaresBound(ctx.stationary_sum_squares,
                                     ctx.spectral_gap, ctx.rounds);
  in.delta = ctx.delta;
  in.delta2 = concentration_delta2;
  const double eps = ctx.protocol == ReportingProtocol::kSingle
                         ? EpsilonSingle(in)
                         : EpsilonAllStationary(in);
  return PrivacyParams{eps, ctx.delta + ctx.delta2};
}

}  // namespace netshuffle
