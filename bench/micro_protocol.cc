// google-benchmark micro suite: protocol engine throughput and the secure
// relay (crypto) path.

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "micro_common.h"

#include "graph/generators.h"
#include "shuffle/engine.h"
#include "shuffle/payload.h"
#include "shuffle/pki.h"
#include "shuffle/protocol.h"
#include "shuffle/server.h"
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

// The epoch seal alone (the check + injection of Session::BeginEpoch): n
// four-byte k-RR reports (third range; 5e5 is cold-certify's population,
// 1e5 and 2e5 straddle the pool cutoff kMinReportsPerScanPart) arriving in
// ascending user order (first range 0, how perfbench ingests) or in a
// fixed random order (1).  Second range 1 seals into a workspace whose
// partner store is handed back after each seal, as a serving Session does;
// 0 allocates a fresh store each time.  Each iteration seals a fresh copy
// of the arena; the copy and the freeing of the sealed state are not
// timed.
constexpr size_t kSealUsers = 500000;

std::vector<NodeId> Origins(size_t n, bool shuffled) {
  std::vector<NodeId> origins(n);
  for (size_t u = 0; u < n; ++u) origins[u] = static_cast<NodeId>(u);
  if (shuffled) {
    Rng rng(7);
    for (size_t i = n - 1; i > 0; --i) {
      std::swap(origins[i], origins[rng.UniformInt(i + 1)]);
    }
  }
  return origins;
}

const PayloadArena& SealInput(size_t n, bool shuffled) {
  static std::map<std::pair<size_t, bool>, PayloadArena>* const kInputs =
      new std::map<std::pair<size_t, bool>, PayloadArena>();
  PayloadArena& arena = (*kInputs)[{n, shuffled}];
  if (arena.num_reports() == 0) {
    const std::vector<NodeId> origins = Origins(n, shuffled);
    arena.Reserve(n, 4 * n);
    for (size_t r = 0; r < n; ++r) {
      arena.AppendBucket(origins[r], static_cast<uint32_t>(r % 8));
    }
  }
  return arena;
}

void BM_SealInject(benchmark::State& state) {
  const bool shuffled = state.range(0) != 0;
  const bool recycled = state.range(1) != 0;
  const size_t n = static_cast<size_t>(state.range(2));
  const PayloadArena& input = SealInput(n, shuffled);
  ExchangeWorkspace workspace;
  for (auto _ : state) {
    state.PauseTiming();
    PayloadArena pending = input;
    state.ResumeTiming();
    ExchangeResult sealed =
        SealExchange(n, &pending, recycled ? &workspace : nullptr).value();
    benchmark::DoNotOptimize(sealed.holdings.arena_data());
    benchmark::ClobberMemory();
    if (recycled) workspace.Recycle(std::move(sealed.holdings));
    state.PauseTiming();
    sealed = ExchangeResult();
    state.ResumeTiming();
  }
  state.SetLabel("n=" + std::to_string(n) + ", " +
                 (shuffled ? "shuffled" : "ascending") + " arrival, " +
                 (recycled ? "recycled" : "fresh") + " store");
}
BENCHMARK(BM_SealInject)
    ->Args({0, 0, kSealUsers})
    ->Args({1, 0, kSealUsers})
    ->Args({0, 1, kSealUsers})
    ->Args({1, 1, kSealUsers})
    ->Args({0, 1, 100000})
    ->Args({1, 1, 100000})
    ->Args({0, 1, 200000})
    ->Args({1, 1, 200000})
    ->Unit(benchmark::kMillisecond);

// The curator's per-epoch receive: ReceiveAll of a kAll inbox of n reports
// (the range), each origin once in a fixed random order, as the rounds
// leave them mixed, plus the BeginEpoch that archives and resets its
// counters.  The inbox copy is not timed.
void BM_ServerReceiveAll(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<FinalReport> mixed(n);
  const std::vector<NodeId> origins = Origins(n, true);
  for (size_t i = 0; i < n; ++i) mixed[i].origin = origins[i];
  Server server(n);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<FinalReport> inbox = mixed;
    state.ResumeTiming();
    server.ReceiveAll(std::move(inbox));
    server.BeginEpoch();
  }
  state.SetLabel("n=" + std::to_string(n) + ", mixed inbox");
}
BENCHMARK(BM_ServerReceiveAll)
    ->Arg(100000)
    ->Arg(200000)
    ->Arg(500000)
    ->Unit(benchmark::kMillisecond);

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
