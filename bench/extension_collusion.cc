// Extension study (paper Section 4.5, "Collusion"): how colluding users
// degrade network shuffling's anonymity.
//
// For a victim report on a random 8-regular graph we sweep the colluder
// fraction and report (a) the probability the report is sighted within the
// mixing time and (b) the anonymity-set shrinkage of unsighted reports
// (inflation of sum P^2 feeding the amplification theorems), plus the
// resulting central epsilon for unsighted reports.  The clean guarantee is
// the validated Session's; the degraded one re-queries the same accountant
// at the inflated collision mass (spectral_gap pinned to 1).

#include <cstdio>
#include <utility>

#include "core/accountant.h"
#include "core/session.h"
#include "experiment_common.h"
#include "graph/generators.h"
#include "graph/walk.h"
#include "shuffle/adversary.h"
#include "util/table.h"

using namespace netshuffle;

int main() {
  BenchRunner bench("extension_collusion");
  const size_t n = 2000, k = 8;
  const double eps0 = 1.0;
  Rng rng(2022);

  SessionConfig config;
  config.SetGraph(MakeRandomRegular(n, k, &rng)).SetEpsilon0(eps0);
  Expected<Session> created = Session::Create(std::move(config));
  if (!created.ok()) {
    std::fprintf(stderr, "session rejected: %s\n",
                 created.status().ToString().c_str());
    bench.MarkFailed();
    return 1;
  }
  Session session = std::move(created).value();
  const StationaryBoundAccountant accountant;
  bench.SetAccountant(accountant.name());
  const Graph& g = session.graph();
  const double gap = session.spectral_gap();
  const size_t t = session.mixing_rounds();

  std::printf(
      "Collusion extension: random %zu-regular graph, n=%zu, t=t_mix=%zu, "
      "eps0=%.1f\n\n",
      k, n, t, eps0);

  Table table({"colluder %", "sighting prob", "end-at-colluder %",
               "sumP^2 inflation", "eps (unsighted)", "eps (no collusion)"});
  const double base_mass =
      SumSquaresBound(1.0 / static_cast<double>(n), gap, t);
  const double eps_clean = session.RawGuaranteeAt(t, eps0).epsilon;

  // One real exchange over the flat store: the fraction of all n reports
  // resting at a colluder at submission time is the empirical (end-of-walk)
  // counterpart of the analytic cumulative sighting probability.
  ExchangeOptions ex_opts;
  ex_opts.rounds = t;
  ex_opts.seed = 2022;
  const ExchangeResult exchange = RunExchange(g, ex_opts);

  // Re-certify at an inflated collision mass through the same accountant.
  const auto eps_inflated = [&](double inflation) {
    return accountant
        .Certify(FixedMassContext(n, eps0, base_mass * inflation, 0.5e-6,
                                  0.5e-6))
        .epsilon;
  };

  Rng crng(7);
  for (double frac : {0.0, 0.01, 0.05, 0.10, 0.25, 0.50}) {
    const size_t count = static_cast<size_t>(frac * n);
    const auto colluders = SampleColluders(g, count, /*victim=*/0, &crng);
    const auto a = AnalyzeCollusion(g, colluders, /*origin=*/0, t);
    const double end_at_colluder =
        100.0 * static_cast<double>(EndOfWalkSightings(exchange, colluders)) /
        static_cast<double>(n);
    bench.SetHeadline("sighting_prob_f50", a.sighting_probability);
    table.NewRow()
        .AddDouble(100.0 * frac, 0)
        .AddDouble(a.sighting_probability, 4)
        .AddDouble(end_at_colluder, 1)
        .AddDouble(a.sum_squares_inflation, 3)
        .AddDouble(eps_inflated(a.sum_squares_inflation), 4)
        .AddDouble(eps_clean, 4);
  }
  table.Print();

  std::printf(
      "\nReading: with f colluders the victim's report is sighted with "
      "probability ~ 1-(1-f)^t (near 1 at the\nmixing time even for small "
      "f) — unsighted reports keep most of their amplification, but the "
      "sighting\nprobability itself is the dominant risk, supporting the "
      "paper's non-collusion assumption and its\npointer to pseudo-random "
      "peer selection / collusion detection as mitigations.\n");
  return 0;
}
