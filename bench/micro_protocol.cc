// google-benchmark micro suite: protocol engine throughput and the secure
// relay (crypto) path.

#include <benchmark/benchmark.h>

#include "micro_common.h"

#include "graph/generators.h"
#include "shuffle/engine.h"
#include "shuffle/pki.h"
#include "shuffle/protocol.h"
#include "util/rng.h"

namespace netshuffle {
namespace {

void BM_ExchangeRound(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Graph g = MakeRandomRegular(n, 8, &rng);
  uint64_t seed = 0;
  for (auto _ : state) {
    ExchangeOptions opts;
    opts.rounds = 1;
    opts.seed = ++seed;
    auto r = RunExchange(g, opts);
    benchmark::DoNotOptimize(r.holdings.arena_data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ExchangeRound)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_FullProtocolAll(benchmark::State& state) {
  Rng rng(2);
  Graph g = MakeRandomRegular(10000, 8, &rng);
  uint64_t seed = 0;
  for (auto _ : state) {
    ExchangeOptions opts;
    opts.rounds = 20;
    opts.seed = ++seed;
    auto r = RunProtocol(g, ReportingProtocol::kAll, opts);
    benchmark::DoNotOptimize(r.server_inbox.data());
  }
  state.SetLabel("10k users x 20 rounds");
}
BENCHMARK(BM_FullProtocolAll)->Unit(benchmark::kMillisecond);

void BM_FullProtocolSingle(benchmark::State& state) {
  Rng rng(3);
  Graph g = MakeRandomRegular(10000, 8, &rng);
  uint64_t seed = 0;
  for (auto _ : state) {
    ExchangeOptions opts;
    opts.rounds = 20;
    opts.seed = ++seed;
    auto r = RunProtocol(g, ReportingProtocol::kSingle, opts);
    benchmark::DoNotOptimize(r.server_inbox.data());
  }
}
BENCHMARK(BM_FullProtocolSingle)->Unit(benchmark::kMillisecond);

// The finalize step alone, on cold-certify's graph shape: the exchange is
// built once, outside every timed loop, and shared by both cases.
const ExchangeResult& FinalizeInput() {
  static const ExchangeResult* const kState = [] {
    Rng rng(4);
    const Graph g = MakeBarabasiAlbert(500000, 10, &rng);
    ExchangeOptions opts;
    opts.rounds = 24;
    opts.seed = 5;
    return new ExchangeResult(RunExchange(g, opts));
  }();
  return *kState;
}

void BM_FinalizeAll(benchmark::State& state) {
  const ExchangeResult& ex = FinalizeInput();
  for (auto _ : state) {
    auto r = FinalizeProtocol(ex, ReportingProtocol::kAll, 6);
    benchmark::DoNotOptimize(r.server_inbox.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel("BA n=5e5 m=10 after 24 rounds");
}
BENCHMARK(BM_FinalizeAll)->Unit(benchmark::kMillisecond);

void BM_FinalizeSingle(benchmark::State& state) {
  const ExchangeResult& ex = FinalizeInput();
  for (auto _ : state) {
    auto r = FinalizeProtocol(ex, ReportingProtocol::kSingle, 6);
    benchmark::DoNotOptimize(r.server_inbox.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel("BA n=5e5 m=10 after 24 rounds");
}
BENCHMARK(BM_FinalizeSingle)->Unit(benchmark::kMillisecond);

void BM_SecureRelayRound(benchmark::State& state) {
  const size_t n = 256;
  Graph g = MakeCirculant(n, 8);
  Pki pki(4);
  pki.RegisterUsers(n);
  pki.RegisterServer();
  std::vector<Bytes> payloads(n, Bytes{1, 2, 3, 4, 5, 6, 7, 8});
  uint64_t seed = 0;
  for (auto _ : state) {
    auto r = RunSecureRelaySession(g, &pki, payloads, /*rounds=*/1, ++seed);
    benchmark::DoNotOptimize(r.delivered_payloads.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SecureRelayRound)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace netshuffle

int main(int argc, char** argv) {
  return netshuffle::RunMicroSuite("micro_protocol", "BM_ExchangeRound/100000",
                                   argc, argv);
}
