// google-benchmark micro suite: graph construction, walk-step and spectral
// primitives.

#include <benchmark/benchmark.h>

#include "micro_common.h"

#include "graph/generators.h"
#include "graph/spectral.h"
#include "graph/walk.h"
#include "util/rng.h"

namespace netshuffle {
namespace {

void BM_MakeRandomRegular(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    Graph g = MakeRandomRegular(n, 8, &rng);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_MakeRandomRegular)->Arg(1000)->Arg(10000);

void BM_WalkStep(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  Graph g = MakeRandomRegular(n, 8, &rng);
  PositionDistribution d(&g, 0);
  for (auto _ : state) {
    d.Step();
    benchmark::DoNotOptimize(d.probabilities().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges() * 2));
}
BENCHMARK(BM_WalkStep)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_LazyWalkStep(benchmark::State& state) {
  Rng rng(3);
  Graph g = MakeRandomRegular(10000, 8, &rng);
  PositionDistribution d(&g, 0);
  for (auto _ : state) {
    d.LazyStep(0.3);
    benchmark::DoNotOptimize(d.probabilities().data());
  }
}
BENCHMARK(BM_LazyWalkStep);

// Lanczos steps to the certified stopping rule, whether a rule fired before
// the cap (1) or the cap stopped it (0), and the MixingTime rounds the
// certified gap prices.
void RunSpectralGap(benchmark::State& state, const Graph& g) {
  SpectralGapEstimate r;
  for (auto _ : state) {
    r = EstimateSpectralGap(g);
    // The whole struct: benchmark 1.7's register form of DoNotOptimize
    // garbles a lone double that is read again below.
    benchmark::DoNotOptimize(r);
  }
  state.counters["iterations"] = static_cast<double>(r.iterations);
  state.counters["converged"] = r.converged ? 1.0 : 0.0;
  state.counters["rounds"] =
      static_cast<double>(MixingTime(r.gap, g.num_nodes()));
}

void BM_SpectralGap(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  RunSpectralGap(state, MakeRandomRegular(n, 8, &rng));
}
BENCHMARK(BM_SpectralGap)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

// Heavy-tailed degrees (Barabasi-Albert, m = 10), the cold-certify shape.
void BM_SpectralGapBA(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  RunSpectralGap(state, MakeBarabasiAlbert(n, 10, &rng));
}
BENCHMARK(BM_SpectralGapBA)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_StationaryGamma(benchmark::State& state) {
  Rng rng(5);
  Graph g = MakeBarabasiAlbert(50000, 4, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(StationaryGamma(g));
  }
}
BENCHMARK(BM_StationaryGamma);

}  // namespace
}  // namespace netshuffle

int main(int argc, char** argv) {
  return netshuffle::RunMicroSuite("micro_walk", "BM_WalkStep/100000", argc,
                                   argv);
}
