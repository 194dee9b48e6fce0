// Figure 8 — stationary-limit parameter study without any dataset
// assumption: central eps vs eps0 (0.2 .. 2.0) for Gamma in {1, 10},
// n in {10^4, 10^6}, both protocols; the eps = eps0 diagonal is the
// no-amplification reference.  A graph-free use of
// StationaryBoundAccountant: the context carries only scalars (n, Gamma/n
// as the collision mass, spectral_gap pinned to 1).

#include <cstdio>

#include "core/accountant.h"
#include "experiment_common.h"
#include "util/table.h"

using namespace netshuffle;

int main() {
  BenchRunner bench("fig8_parameters");
  const double delta = 0.5e-6, delta2 = 0.5e-6;
  std::printf(
      "Figure 8 reproduction: stationary-limit dependence on Gamma, n and "
      "protocol\n\n");

  const size_t ns[] = {10000, 1000000};
  const double gammas[] = {1.0, 10.0};

  StationaryBoundAccountant accountant;
  bench.SetAccountant(accountant.name());

  for (size_t n : ns) {
    Table t({"eps0", "eps0 (no amp)", "A_all G=1", "A_all G=10",
             "A_single G=1", "A_single G=10"});
    for (double eps0 = 0.2; eps0 <= 2.001; eps0 += 0.2) {
      t.NewRow().AddDouble(eps0, 1).AddDouble(eps0, 4);
      for (bool single : {false, true}) {
        for (double gamma : gammas) {
          const double eps =
              accountant
                  .Certify(FixedMassContext(
                      n, eps0, gamma / static_cast<double>(n), delta, delta2,
                      single ? ReportingProtocol::kSingle
                             : ReportingProtocol::kAll))
                  .epsilon;
          if (!single && gamma == 1.0) {
            bench.SetHeadline("a_all_G1_eps_at_eps0_2_n1e6", eps);
          }
          t.AddDouble(eps, 4);
        }
      }
    }
    std::printf("n = %zu\n", n);
    t.Print();
    std::printf("\n");
  }

  std::printf(
      "Expected shape: curves with Gamma=10 sit above Gamma=1; n=10^6 sits "
      "far below n=10^4;\nat large eps0 the A_all curves cross above the "
      "eps=eps0 line sooner than A_single.\n");
  return 0;
}
