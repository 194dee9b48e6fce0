// Differential harness for the sharded exchange (shuffle/sharded.cc,
// DESIGN.md §11): for ANY shard count and EITHER transport, the final
// (origin, payload, holder) state must be BIT-IDENTICAL to the serial
// engine — which tests/test_kernel_differential.cc in turn pins against the
// naive scalar schedule.  This test closes the chain end-to-end: the scalar
// reference (tests/reference_exchange.h) is recomputed here and the sharded
// engine is compared against it element-by-element, over
//
//   worker counts {1, 2, 4} (1 + loopback is the
//   delegation fast path — the seam must be free when unused),
//   x thread counts {1, 4} (shard partitioning and thread partitioning are
//     independent axes; neither may leak into placement),
//   x graph shapes {k-regular, Barabasi-Albert, star, isolated users,
//     tiny n < shards (the clamp), n == 1, n == 0},
//   x fault schedules {none, LazyFaultModel} (Awake coins shift every
//     subsequent draw of the per-user stream),
//   x BOTH transports (loopback threads and forked process workers carry
//     the same frames),
//   x one-shot AND Start/Resume splits (round streams are keyed on the
//     absolute round, so chunking cannot change coins),
//
// plus communication-cost invariants (messages == shards * (shards - 1) *
// rounds, split-invariant stats) and the seam's storage contract: an
// mmap-hosted state is a typed kInvalidArgument that leaves the state
// unchanged.  Traffic counts are not the engines' business: they come from
// observing states (tests/test_engine.cc), and the states are identical
// here.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "shuffle/backend.h"
#include "shuffle/engine.h"
#include "shuffle/fault.h"
#include "shuffle/payload.h"
#include "shuffle/sharded.h"
#include "shuffle/transport.h"
#include "tests/reference_exchange.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace netshuffle;
using namespace netshuffle_test;

namespace {

void CheckStatsEqual(const ShardedStats& a, const ShardedStats& b) {
  CHECK(a.shards == b.shards);
  CHECK(a.rounds == b.rounds);
  CHECK(a.messages == b.messages);
  CHECK(a.cross_shard_reports == b.cross_shard_reports);
  CHECK(a.cross_shard_bytes == b.cross_shard_bytes);
}

// One differential case: serial engine + scalar reference once, then the
// sharded engine over the shard x thread matrix — one-shot AND split into
// Start/Resume chunks, with communication-cost checks.
void RunCase(const char* name, const Graph& g, size_t rounds, uint64_t seed,
             const FaultModel* faults, TransportKind transport) {
  const size_t n = g.num_nodes();

  // Scalar reference through every round, and the serial engine.
  std::vector<std::vector<ReportId>> ref = ReferenceInit(n);
  for (size_t r = 0; r < rounds; ++r) ReferenceRound(g, r, seed, faults, &ref);
  ExchangeResult serial = StartExchange(g, PatternArena(n));
  {
    ExchangeOptions whole;
    whole.rounds = rounds;
    whole.seed = seed;
    whole.faults = faults;
    serial = ResumeExchange(g, std::move(serial), whole);
  }
  CheckIdentical(serial, ref);

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    // The engine clamps to the population (and kMaxTransportShards, far
    // away here); the stats invariants below are in terms of the clamp.
    const size_t eff = std::max<size_t>(1, std::min(shards, n));
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SetThreadCount(threads);

      // One-shot sharded run.
      ExchangeResult state = StartExchange(g, PatternArena(n));
      ShardedOptions sop;
      sop.shards = shards;
      sop.transport = transport;
      ShardedStats stats;
      ExchangeOptions whole;
      whole.rounds = rounds;
      whole.seed = seed;
      whole.faults = faults;
      Status st = ShardedResumeExchange(g, &state, whole, sop, &stats);
      CHECK(st.ok());
      CHECK(state.rounds == rounds);
      CheckIdentical(state, ref);

      // Communication-cost invariants: every ordered shard pair exchanges
      // exactly one frame per round (empty or not), and nothing crosses
      // the wire at one shard.
      CHECK(stats.shards == eff);
      CHECK(stats.rounds == rounds);
      CHECK(stats.messages ==
            static_cast<uint64_t>(eff) * (eff - 1) * rounds);
      if (eff == 1) {
        CHECK(stats.cross_shard_reports == 0);
        CHECK(stats.cross_shard_bytes == 0);
      } else {
        // Every frame carries at least a header and a count word.
        CHECK(stats.cross_shard_bytes >=
              stats.messages * (wire::kHeaderBytes + 4));
        CHECK(stats.cross_shard_reports <=
              static_cast<uint64_t>(n) * rounds);
      }

      // Start/Resume split: chunked resumes of the same run must land on
      // the same state AND the same accumulated stats (routing — hence
      // cross-shard traffic — is deterministic).  Loopback steps
      // round-by-round with an identity check per round; process splits
      // into two uneven chunks (forking per round for every case would
      // dominate the test's runtime without adding coverage).
      std::vector<size_t> chunks;
      if (transport == TransportKind::kLoopback) {
        chunks.assign(rounds, 1);
      } else if (rounds > 1) {
        chunks = {1, rounds - 1};
      } else {
        chunks = {1};
      }
      ExchangeResult split = StartExchange(g, PatternArena(n));
      ShardedStats split_stats;
      std::vector<std::vector<ReportId>> split_ref = ReferenceInit(n);
      size_t done = 0;
      for (size_t chunk : chunks) {
        ExchangeOptions step;
        step.rounds = chunk;
        step.first_round = done;
        step.seed = seed;
        step.faults = faults;
        CHECK(ShardedResumeExchange(g, &split, step, sop, &split_stats).ok());
        for (size_t r = 0; r < chunk; ++r) {
          ReferenceRound(g, done + r, seed, faults, &split_ref);
        }
        done += chunk;
        CheckIdentical(split, split_ref);
      }
      CHECK(done == rounds);
      CheckIdentical(split, ref);
      CheckStatsEqual(split_stats, stats);
    }
  }
  SetThreadCount(0);
  std::printf("ok: %-16s n=%zu rounds=%zu faults=%s transport=%s\n", name, n,
              rounds, faults != nullptr ? "yes" : "no",
              TransportKindName(transport));
}

// The out-of-core tier and the multi-process tier are separate scaling
// axes: a forked worker cannot splice into a parent-owned mapped column.
// The seam refuses an mmap-hosted state with a typed kInvalidArgument and
// leaves it unchanged — mid-exchange, on both transports — so the caller
// can keep resuming it on the serial engine.
void TestHostedStateRejected() {
  Expected<std::shared_ptr<StorageBackend>> backend =
      StorageBackend::Create(StorageBackendConfig{});
  CHECK(backend.ok());
  Rng gen(424242);
  const Graph g = MakeRandomRegular(120, 4, &gen);
  const size_t n = g.num_nodes();
  const uint64_t seed = 777;

  ExchangeOptions first;
  first.rounds = 2;
  first.seed = seed;
  ExchangeResult state =
      ResumeExchange(g, StartExchange(g, PatternArena(n, backend.value())),
                     first);
  CHECK(state.holdings.hosted());
  std::vector<std::vector<ReportId>> ref = ReferenceInit(n);
  for (size_t r = 0; r < first.rounds; ++r) {
    ReferenceRound(g, r, seed, nullptr, &ref);
  }
  CheckIdentical(state, ref);

  ExchangeOptions next;
  next.rounds = 3;
  next.first_round = first.rounds;
  next.seed = seed;
  for (TransportKind transport :
       {TransportKind::kLoopback, TransportKind::kProcess}) {
    ShardedOptions sop;
    sop.shards = 2;
    sop.transport = transport;
    ShardedStats stats;
    const Status st = ShardedResumeExchange(g, &state, next, sop, &stats);
    CHECK(!st.ok());
    CHECK(st.code() == StatusCode::kInvalidArgument);
    CHECK(state.rounds == first.rounds);
    CHECK(state.holdings.hosted());
    CheckIdentical(state, ref);
    CHECK(stats.rounds == 0);
    CHECK(stats.messages == 0);
    std::printf("ok: shards=2 transport=%s refuses an mmap-hosted state\n",
                TransportKindName(transport));
  }

  // The refused state still resumes on the serial engine.
  state = ResumeExchange(g, std::move(state), next);
  for (size_t r = first.rounds; r < first.rounds + next.rounds; ++r) {
    ReferenceRound(g, r, seed, nullptr, &ref);
  }
  CheckIdentical(state, ref);
}

}  // namespace

int main() {
  const LazyFaultModel lazy(0.3);
  Rng meta(20220808);

  for (TransportKind transport :
       {TransportKind::kLoopback, TransportKind::kProcess}) {
    // k-regular: even per-user load, degree class on the pow2 fast path.
    {
      Rng gen(meta.Next());
      const Graph g = MakeRandomRegular(120, 4, &gen);
      const uint64_t seed = meta.Next();
      RunCase("k-regular", g, /*rounds=*/6, seed, nullptr, transport);
      RunCase("k-regular", g, /*rounds=*/6, seed, &lazy, transport);
    }
    // Odd population: uneven contiguous shard ranges (121 over 2 and 4).
    {
      Rng gen(meta.Next());
      const Graph g = MakeRandomRegular(121, 4, &gen);
      RunCase("k-regular-odd", g, /*rounds=*/5, meta.Next(), &lazy, transport);
    }
    // Barabasi-Albert: power-law hubs concentrate traffic in one shard.
    {
      Rng gen(meta.Next());
      const Graph g = MakeBarabasiAlbert(150, 3, &gen);
      const uint64_t seed = meta.Next();
      RunCase("barabasi-albert", g, /*rounds=*/6, seed, nullptr, transport);
      RunCase("barabasi-albert", g, /*rounds=*/6, seed, &lazy, transport);
    }
    // Star: after one round the hub (shard 0) holds nearly everything, so
    // almost every report crosses a shard boundary every round.
    {
      const Graph g = MakeStar(301);
      const uint64_t seed = meta.Next();
      RunCase("star-301", g, /*rounds=*/4, seed, nullptr, transport);
      RunCase("star-301", g, /*rounds=*/4, seed, &lazy, transport);
    }
    // Isolated users (deg == 0 keep-in-place) split across shard borders.
    {
      const Graph g = Graph::FromEdges(
          11, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}, {8, 9}});
      RunCase("with-isolated", g, /*rounds=*/6, meta.Next(), &lazy, transport);
    }
    // Fewer users than requested shards: the clamp (eff = n).
    {
      const Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {2, 0}});
      RunCase("tiny-n3", g, /*rounds=*/5, meta.Next(), nullptr, transport);
    }
    // Single isolated user: the smallest sharded exchange there is.
    {
      const Graph g = Graph::FromEdges(1, {});
      RunCase("single-user", g, /*rounds=*/3, meta.Next(), nullptr, transport);
    }
    // Empty population: nothing to route or fork for, but the rounds and
    // the stats accumulate exactly as on every other path.  Fixed seed, so
    // the meta stream of the cases above is the same on both transports.
    {
      const Graph g = Graph::FromEdges(0, {});
      RunCase("empty-n0", g, /*rounds=*/3, /*seed=*/1, nullptr, transport);
    }
  }

  TestHostedStateRejected();
  return 0;
}
