// Closed-form oracles for the certified spectral gap (graph/spectral.h).
// Cycles, tori and circulants have known spectra; the certified bound must
// never sit below the exact max(|lambda_2|, |lambda_n|), and once the
// tolerance rule stops the estimate it must land within 1% of the exact
// gap.  The rounds rule, which stops once no further step can remove a
// MixingTime round, gets its own cases at a round boundary and at the cap.

#include "graph/spectral.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "graph/generators.h"
#include "graph/walk.h"
#include "tests/test_util.h"
#include "util/rng.h"

using namespace netshuffle;

namespace {

constexpr double kPi = 3.14159265358979323846;

// max |mu| over the non-trivial eigenvalues of the w x h torus walk:
// (cos(2 pi a / w) + cos(2 pi b / h)) / 2 for (a, b) != (0, 0).
double TorusLambda(size_t w, size_t h) {
  double best = 0.0;
  for (size_t a = 0; a < w; ++a) {
    for (size_t b = 0; b < h; ++b) {
      if (a == 0 && b == 0) continue;
      const double mu = 0.5 * (std::cos(2.0 * kPi * a / w) +
                               std::cos(2.0 * kPi * b / h));
      best = std::max(best, std::fabs(mu));
    }
  }
  return best;
}

// The same for MakeCirculant(n, k): node i adjacent to i +- 1 .. i +- k/2,
// eigenvalues (2 / k) sum_{s=1}^{k/2} cos(2 pi j s / n) for j != 0.
double CirculantLambda(size_t n, size_t k) {
  double best = 0.0;
  for (size_t j = 1; j < n; ++j) {
    double mu = 0.0;
    for (size_t s = 1; s <= k / 2; ++s) mu += std::cos(2.0 * kPi * j * s / n);
    best = std::max(best, std::fabs(mu * 2.0 / static_cast<double>(k)));
  }
  return best;
}

// Raised cap and a 0.5% tolerance: converged estimates must be safe and
// within 1% of the exact gap.  These spectra price hundreds of rounds or
// more, so the tolerance rule fires before the rounds rule could.
SpectralGapEstimate CheckCertified(const char* name, const Graph& g,
                                   double exact) {
  const SpectralGapEstimate est = EstimateSpectralGap(g, 5000, 0.005);
  const double exact_gap = 1.0 - exact;
  std::printf("%-16s iters %-5zu ritz %.9f upper %.9f exact %.9f\n", name,
              est.iterations, est.lambda, est.lambda_upper, exact);
  CHECK(est.converged);
  CHECK(est.lambda_upper >= exact);
  CHECK(est.lambda <= exact + 1e-12);
  CHECK(est.gap == 1.0 - est.lambda_upper);
  CHECK(est.gap <= exact_gap);
  CHECK(est.gap >= 0.99 * exact_gap);
  return est;
}

}  // namespace

int main() {
  // Odd cycles C_n: lambda = cos(pi / n), the near -1 end of the spectrum,
  // which the *absolute* gap must capture.  Small ones exhaust the Krylov
  // space (beta = 0 breakdown), an exact result.
  for (size_t n : {5, 11, 101}) {
    CheckCertified("cycle", MakeCirculant(n, 2),
                   std::cos(kPi / static_cast<double>(n)));
  }
  // The 1001-cycle's Ritz value prices more than MixingTime's cap of
  // rounds, so the rounds rule stays off and the tolerance rule alone
  // stops it.
  {
    const Graph cycle = MakeCirculant(1001, 2);
    const SpectralGapEstimate est =
        CheckCertified("cycle", cycle, std::cos(kPi / 1001.0));
    CHECK(MixingTime(1.0 - est.lambda, 1001) == kMaxMixingRounds);
    CHECK(est.iterations == 1162);
    // Capped at 1000 steps, the bound is below 1 but still loose.  It and
    // the Ritz value both price the cap, which is no final round count.
    const SpectralGapEstimate capped = EstimateSpectralGap(cycle, 1000, 0.005);
    CHECK(capped.lambda_upper < 1.0);
    CHECK(MixingTime(capped.gap, 1001) == kMaxMixingRounds);
    CHECK(!capped.converged);
  }
  // Odd tori: bottom end -cos(pi / w).
  for (size_t w : {9, 51, 101}) {
    CheckCertified("torus", MakeTorus(w, w), TorusLambda(w, w));
  }
  CheckCertified("torus 51x49", MakeTorus(51, 49), TorusLambda(51, 49));
  // Circulants with triangles (non-bipartite at any n).
  CheckCertified("circulant 1000/4", MakeCirculant(1000, 4),
                 CirculantLambda(1000, 4));
  CheckCertified("circulant 2001/8", MakeCirculant(2001, 8),
                 CirculantLambda(2001, 8));
  CheckCertified("circulant 64/62", MakeCirculant(64, 62),
                 CirculantLambda(64, 62));

  // The default call on the odd 101 x 101 torus: power iteration reported
  // gap 0.00207 here, ~4x the exact 0.000484.  The certified gap is never
  // optimistic and converges inside the default cap.
  {
    const double exact = TorusLambda(101, 101);
    const SpectralGapEstimate est = EstimateSpectralGap(MakeTorus(101, 101));
    CHECK(est.gap <= 1.0 - exact);
    CHECK(est.converged);
    CHECK(est.iterations < 300);
    CHECK(est.lambda_upper - est.lambda <= 0.02 * (1.0 - est.lambda_upper));
  }

  // Bipartite graphs (lambda_n = -1): the certified gap is exactly 0.
  for (const Graph& g : {MakeTorus(8, 8), MakeTorus(10, 12),
                         MakeCirculant(100, 2), MakeCirculant(4000, 2)}) {
    const SpectralGapEstimate est = EstimateSpectralGap(g);
    CHECK(est.lambda_upper == 1.0);
    CHECK(est.gap == 0.0);
  }

  // Random 8-regular graphs are expanders: the certified gap converges
  // inside the default cap, near 1 - 2 sqrt(7) / 8 (Friedman's bound), and
  // predicts mixing: after MixingTime rounds the exact collision mass is
  // within a constant of stationary.
  Rng rng(3);
  Graph reg = MakeRandomRegular(4000, 8, &rng);
  const SpectralGapEstimate reg_est = EstimateSpectralGap(reg);
  CHECK(reg_est.converged);
  CHECK(reg_est.iterations < 300);
  CHECK(reg_est.gap > 0.3);
  CHECK(reg_est.gap < 1.0 - 2.0 * std::sqrt(7.0) / 8.0 + 0.02);
  const size_t t_mix = MixingTime(reg_est.gap, reg.num_nodes());
  PositionDistribution d(&reg, 0);
  for (size_t t = 0; t < t_mix; ++t) d.Step();
  CHECK(d.SumSquares() < 2.0 / static_cast<double>(reg.num_nodes()));

  // A capped call reports exactly the steps it ran, unconverged.
  const SpectralGapEstimate capped = EstimateSpectralGap(reg, 20);
  CHECK(capped.iterations == 20);
  CHECK(!capped.converged);
  CHECK(capped.lambda_upper >= reg_est.lambda);

  // A long odd cycle cannot be certified in 300 steps: lambda_upper = 1,
  // never a capped optimistic value.  Its Ritz value, far from converged,
  // prices fewer rounds than MixingTime's cap, so the rounds rule is live
  // here: it must not fire on an uncertified bound.
  const SpectralGapEstimate slow = EstimateSpectralGap(MakeCirculant(20001, 2));
  CHECK(!slow.converged);
  CHECK(slow.iterations == 300);
  CHECK(slow.lambda_upper == 1.0);
  CHECK(slow.gap == 0.0);
  CHECK(MixingTime(1.0 - slow.lambda, 20001) < kMaxMixingRounds);

  // The rounds rule at a round boundary.  This expander is large enough
  // that the rule is tested at every step, and it stops the estimate while
  // the tolerance rule still fails: the certified gap already prices the
  // Ritz value's round count.  One step fewer certifies exactly one round
  // more, so the stop came no later than needed.
  {
    Rng boundary_rng(3);
    const Graph g = MakeRandomRegular(20000, 20, &boundary_rng);
    const size_t n = g.num_nodes();
    const SpectralGapEstimate est = EstimateSpectralGap(g);
    std::printf("boundary         iters %-5zu ritz %.9f upper %.9f\n",
                est.iterations, est.lambda, est.lambda_upper);
    CHECK(est.converged);
    CHECK(est.iterations == 108);
    CHECK(est.lambda_upper >= est.lambda);
    CHECK(MixingTime(est.gap, n) == MixingTime(1.0 - est.lambda, n));
    CHECK(est.lambda_upper - est.lambda > 0.02 * (1.0 - est.lambda_upper));
    const SpectralGapEstimate before =
        EstimateSpectralGap(g, est.iterations - 1);
    CHECK(!before.converged);
    CHECK(MixingTime(before.gap, n) == MixingTime(est.gap, n) + 1);
  }
  return 0;
}
