// Ablation studies for the design choices called out in DESIGN.md:
//   (a) stationary upper bound (Eq. 7) vs exact tracking of sum P^2 —
//       StationaryBoundAccountant (core/accountant.h) against node 0's
//       exact Theorem-5.4 epsilon, computed here from its tracked walk
//       (PositionDistribution + EpsilonAllSymmetric, as fig5_kregular
//       does).  The "exact" column is node 0's value, a paper-reproduction
//       number: it prices one origin, not every report;
//   (b) lazy random walk (fault tolerance) — rounds needed to reach the
//       same epsilon as the fault-free walk;
//   (c) delta budget split between composition slack and report-size
//       concentration.

#include <cstdio>
#include <utility>

#include "core/accountant.h"
#include "core/session.h"
#include "dp/amplification.h"
#include "experiment_common.h"
#include "graph/generators.h"
#include "graph/walk.h"
#include "util/table.h"

using namespace netshuffle;

int main() {
  BenchRunner bench("ablation_bounds");
  const size_t n = 5000, k = 8;
  const double eps0 = 1.0;
  Rng rng(2022);

  SessionConfig config;
  config.SetGraph(MakeRandomRegular(n, k, &rng)).SetEpsilon0(eps0).SetSeed(99);
  Session session = Session::Create(std::move(config)).value();
  const Graph& g = session.graph();
  const double gap = session.spectral_gap();

  const StationaryBoundAccountant stationary;
  const auto eps_bound_at = [&](size_t rounds) {
    AccountingContext ctx;
    ctx.epsilon0 = eps0;
    ctx.n = n;
    ctx.rounds = rounds;
    ctx.spectral_gap = gap;
    ctx.stationary_sum_squares = StationarySumSquares(g);
    ctx.delta = 0.5e-6;
    ctx.delta2 = 0.5e-6;
    return stationary.Certify(ctx).epsilon;
  };

  // (a) Bound vs exact.
  std::printf("Ablation (a): Eq.7 bound vs exact sum P^2 (n=%zu, k=%zu, "
              "alpha=%.4f)\n\n", n, k, gap);
  Table a({"t", "exact sumP^2", "bound sumP^2", "eps exact", "eps bound",
           "bound/exact eps"});
  // The headline is node 0's exact epsilon, which no library accountant
  // certifies.
  bench.SetAccountant("node0_exact");
  PositionDistribution d(&g, 0);
  for (size_t t : {1u, 2u, 4u, 8u, 16u, 32u}) {
    while (d.time() < t) d.Step();
    NetworkShufflingBoundInput node0;
    node0.epsilon0 = eps0;
    node0.n = n;
    node0.sum_p_squares = d.SumSquares();
    node0.delta = 0.5e-6;
    node0.delta2 = 0.5e-6;
    node0.rho_star = d.RhoStar();
    const double eps_exact = EpsilonAllSymmetric(node0);
    const double eps_bound = eps_bound_at(t);
    if (t == 32) bench.SetHeadline("exact_eps_t32", eps_exact);
    a.NewRow()
        .AddInt(static_cast<long long>(t))
        .AddSci(d.SumSquares(), 3)
        .AddSci(SumSquaresBound(1.0 / n, gap, t), 3)
        .AddDouble(eps_exact, 4)
        .AddDouble(eps_bound, 4)
        .AddDouble(eps_bound / eps_exact, 2);
  }
  a.Print();

  // (b) Lazy walk: effective rounds to reach the fault-free epsilon.
  std::printf("\nAblation (b): lazy walk (fault model) — rounds needed for "
              "sum P^2 <= 1.05/n\n\n");
  Table b({"laziness", "rounds needed", "overhead vs beta=0"});
  size_t base_rounds = 0;
  for (double beta : {0.0, 0.2, 0.4, 0.6}) {
    PositionDistribution lazy(&g, 0);
    size_t rounds = 0;
    while (lazy.SumSquares() > 1.05 / static_cast<double>(n) &&
           rounds < 100000) {
      lazy.LazyStep(beta);
      ++rounds;
    }
    if (beta == 0.0) base_rounds = rounds;
    b.NewRow()
        .AddDouble(beta, 1)
        .AddInt(static_cast<long long>(rounds))
        .AddDouble(static_cast<double>(rounds) /
                       static_cast<double>(base_rounds),
                   2);
  }
  b.Print();
  std::printf("(expected: overhead ~ 1/(1-beta))\n");

  // (c) Delta split.
  std::printf("\nAblation (c): splitting the delta budget (total 1e-6) "
              "between delta (composition) and delta2 (report sizes)\n\n");
  Table c({"delta share", "delta", "delta2", "eps (Thm 5.3)"});
  for (double share : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const AccountingContext ctx = FixedMassContext(
        n, eps0, 1.0 / static_cast<double>(n), share * 1e-6,
        (1.0 - share) * 1e-6);
    c.NewRow()
        .AddDouble(share, 1)
        .AddSci(ctx.delta, 1)
        .AddSci(ctx.delta2, 1)
        .AddDouble(stationary.Certify(ctx).epsilon, 4);
  }
  c.Print();
  std::printf("(expected: a flat optimum — the split matters little, "
              "justifying the 50/50 default)\n");

  return 0;
}
