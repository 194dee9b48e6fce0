// google-benchmark micro suite: local randomizers and accounting.

#include <benchmark/benchmark.h>

#include "micro_common.h"

#include "dp/amplification.h"
#include "dp/composition.h"
#include "dp/ldp.h"
#include "dp/privunit.h"
#include "util/rng.h"

namespace netshuffle {
namespace {

void BM_KRandomizedResponse(benchmark::State& state) {
  KRandomizedResponse rr(16, 1.0);
  Rng rng(1);
  uint32_t v = 0;
  for (auto _ : state) {
    v = rr.Randomize(v % 16, &rng);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_KRandomizedResponse);

void BM_PrivUnitConstruction(benchmark::State& state) {
  for (auto _ : state) {
    PrivUnit pu(static_cast<size_t>(state.range(0)), 1.0);
    benchmark::DoNotOptimize(pu.scale());
  }
}
BENCHMARK(BM_PrivUnitConstruction)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_PrivUnitRandomize(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  PrivUnit pu(dim, 1.0);
  Rng rng(2);
  std::vector<double> v(dim, 0.0);
  v[0] = 1.0;
  for (auto _ : state) {
    auto out = pu.Randomize(v, &rng);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_PrivUnitRandomize)->Arg(64)->Arg(200);

void BM_TheoremAllStationary(benchmark::State& state) {
  NetworkShufflingBoundInput in;
  in.epsilon0 = 1.0;
  in.n = 100000;
  in.sum_p_squares = 1e-5;
  in.delta = in.delta2 = 0.5e-6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EpsilonAllStationary(in));
  }
}
BENCHMARK(BM_TheoremAllStationary);

void BM_AdvancedComposition(benchmark::State& state) {
  std::vector<double> eps(static_cast<size_t>(state.range(0)), 0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AdvancedComposition(eps, 1e-6));
  }
}
BENCHMARK(BM_AdvancedComposition)->Arg(100)->Arg(10000);

}  // namespace
}  // namespace netshuffle

int main(int argc, char** argv) {
  return netshuffle::RunMicroSuite("micro_dp", "BM_TheoremAllStationary",
                                   argc, argv);
}
