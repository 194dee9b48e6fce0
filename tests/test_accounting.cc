// Anonymity-set size and collusion adversary analysis.

#include "graph/anonymity.h"
#include "graph/generators.h"
#include "graph/spectral.h"
#include "graph/walk.h"
#include "shuffle/adversary.h"
#include "tests/test_util.h"
#include "util/rng.h"

using namespace netshuffle;

int main() {
  const size_t n = 2000, k = 8;
  Rng rng(2022);
  Graph g = MakeRandomRegular(n, k, &rng);
  const double gap = EstimateSpectralGap(g).gap;

  // Anonymity-set size: uniform = n, point mass = 1.
  std::vector<double> uniform(100, 0.01);
  CHECK_NEAR(EffectiveAnonymitySetSize(uniform), 100.0, 1e-9);
  std::vector<double> point(100, 0.0);
  point[3] = 1.0;
  CHECK_NEAR(EffectiveAnonymitySetSize(point), 1.0, 1e-9);

  // Collusion: sampling respects the victim exclusion and count.
  Rng crng(7);
  const auto colluders = SampleColluders(g, 100, /*victim=*/0, &crng);
  CHECK(colluders.size() == 100);
  for (NodeId c : colluders) CHECK(c != 0);

  // Sighting probability grows with the colluder fraction; the no-collusion
  // audit is clean.
  const size_t t = MixingTime(gap, n);
  const auto clean = AnalyzeCollusion(g, {}, 0, t);
  CHECK_NEAR(clean.sighting_probability, 0.0, 1e-9);
  CHECK_NEAR(clean.sum_squares_inflation, 1.0, 0.1);
  CHECK_NEAR(EffectiveAnonymitySetSize(clean.unseen_position),
             static_cast<double>(n), 0.1 * static_cast<double>(n));

  double prev_sighting = -1.0;
  for (double frac : {0.01, 0.05, 0.25}) {
    const auto cs = SampleColluders(
        g, static_cast<size_t>(frac * static_cast<double>(n)), 0, &crng);
    const auto audit = AnalyzeCollusion(g, cs, 0, t);
    CHECK(audit.sighting_probability > prev_sighting);
    CHECK(audit.sighting_probability <= 1.0);
    CHECK(audit.sum_squares_inflation >= 0.99);
    prev_sighting = audit.sighting_probability;
    // Unsighted reports keep a smaller but real anonymity set.
    if (audit.sighting_probability < 1.0) {
      const double anon = EffectiveAnonymitySetSize(audit.unseen_position);
      CHECK(anon > 1.0);
      CHECK(anon < static_cast<double>(n));
    }
  }

  // A colluding origin is sighted immediately.
  const auto origin_colludes = AnalyzeCollusion(g, {0}, 0, t);
  CHECK_NEAR(origin_colludes.sighting_probability, 1.0, 1e-12);
  return 0;
}
