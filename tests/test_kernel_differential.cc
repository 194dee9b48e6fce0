// Differential/property harness for the batched exchange kernels
// (shuffle/engine.cc, DESIGN.md §4e): the determinism contract says every
// coin comes from a per-(seed, round, user) stream — Awake first, then one
// destination per held report in holding order — and every destination's
// slice is filled in ascending sender order.  The batched path (tiled coin
// columns, degree-class dispatch, prefetched claim/place scatter) must
// reproduce that contract BIT-IDENTICALLY, so this test pins the engine
// against the obvious scalar schedule (tests/reference_exchange.h)
// element-by-element, every round, over randomized graph shapes:
//
//   - k-regular for k in {2, 3, 4, 8, 16, 20} (pow2 and general degree
//     classes, including the deg-pair fast paths),
//   - Barabasi-Albert power-law tails (m in {1, 2, 5, 8}),
//   - graphs with isolated users (the deg == 0 keep-in-place path),
//   - n == 0, n == 1, n == 3 (fewer users than parts: one user per part)
//     and a 6000-leaf star whose hub accumulates far more than one coin
//     tile (kCoinTile = 4096) of reports — the grown-tile path,
//   - fault schedules (LazyFaultModel: Awake consumes stream draws) and
//     fault-free runs (the batched FirstRawDraw/FillStreamRaw fast path),
//
// at NS_THREADS 1/2/3/4/33 (3 gives uneven part bounds, so the bucket's
// owner fixups run; 33 exceeds the engine's 32-part cap) and under BOTH
// storage backends (heap and the file-backed mmap tier, DESIGN.md §9 — the
// kernels must be bit-identical over mapped memory), stepped round-by-round
// through ONE persistent ExchangeWorkspace reused across every shape,
// thread count, AND backend (stale scratch from a previous, differently-sized
// or differently-hosted exchange must be invisible; crossing backends
// exercises the workspace's Unhost/Host re-matching in ResumeExchange), plus
// a whole-run one-shot comparison through the workspace-free overload.
//
// Every checked state is also finalized, kAll and kSingle, and compared
// with the serial oracle (ReferenceFinalize): mid-run after every round, at
// every width, over both backends — n == 0 and n == 3 included, and the
// star, whose hub part holds most of the inbox.  A BA n = 2*10^4 case
// splits into parts of hundreds of users at every width above 1 and
// finalizes over a hosted arena whose stream is still unmapped.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "shuffle/backend.h"
#include "shuffle/engine.h"
#include "shuffle/fault.h"
#include "tests/reference_exchange.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace netshuffle;
using namespace netshuffle_test;

namespace {

// FinalizeProtocol against the serial oracle, both protocols, at the
// current pool width.
void CheckFinalize(const ExchangeResult& state, uint64_t seed) {
  for (ReportingProtocol protocol :
       {ReportingProtocol::kAll, ReportingProtocol::kSingle}) {
    CheckSameInbox(FinalizeProtocol(state, protocol, seed),
                   ReferenceFinalize(state, protocol, seed));
  }
}

// One differential case: step the engine round-by-round (rounds = 1,
// first_round = r) through the SHARED persistent workspace, checking
// element identity after every round, then replay the whole run one-shot
// through the workspace-free overload and check the final state again.
void RunCase(const char* name, const Graph& g, size_t rounds, uint64_t seed,
             const FaultModel* faults, ExchangeWorkspace* ws,
             const std::shared_ptr<StorageBackend>& mmap_backend) {
  const size_t n = g.num_nodes();
  // Backend axis outside the thread axis: the SHARED workspace crosses from
  // heap-hosted state to file-hosted state (and back, on the next case), so
  // ResumeExchange's backend re-matching of the reused partner store runs
  // on every transition.
  for (const std::shared_ptr<StorageBackend>& backend :
       {std::shared_ptr<StorageBackend>(), mmap_backend}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                           size_t{33}}) {
      SetThreadCount(threads);
      std::vector<std::vector<ReportId>> ref = ReferenceInit(n);
      ExchangeResult state = StartExchange(g, PatternArena(n, backend));
      CHECK(state.holdings.hosted() == (backend != nullptr));
      CheckIdentical(state, ref);
      CheckFinalize(state, seed);
      for (size_t r = 0; r < rounds; ++r) {
        ExchangeOptions step;
        step.rounds = 1;
        step.first_round = r;
        step.seed = seed;
        step.faults = faults;
        state = ResumeExchange(g, std::move(state), step, ws);
        ReferenceRound(g, r, seed, faults, &ref);
        CheckIdentical(state, ref);
        CheckFinalize(state, seed + r);
      }
      CHECK(state.rounds == rounds);

      ExchangeOptions whole;
      whole.rounds = rounds;
      whole.seed = seed;
      whole.faults = faults;
      ExchangeResult oneshot =
          ResumeExchange(g, StartExchange(g, PatternArena(n, backend)), whole);
      CheckIdentical(oneshot, ref);
      CheckFinalize(oneshot, seed);
      CHECK(oneshot.rounds == rounds);
    }
  }
  SetThreadCount(0);
  std::printf("ok: %-28s n=%zu rounds=%zu faults=%s\n", name, n, rounds,
              faults != nullptr ? "yes" : "no");
}

// SealExchange, with and without a recycled workspace store, and
// ValidateOnePerUser against the serial oracle at every width: the same
// status code and message, and on success the same store (report r in slot
// origin(r), offsets[u] == u).  A failed seal leaves the arena mutable.
void CheckInjection(const char* name, const PayloadArena& arena, size_t n,
                    ExchangeWorkspace* ws) {
  std::vector<ReportId> slots;
  const Status ref = ReferenceInject(arena, n, &slots);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                         size_t{33}}) {
    SetThreadCount(threads);
    const Status validated = arena.ValidateOnePerUser(n);
    CHECK(validated.code() == ref.code());
    CHECK(validated.message() == ref.message());
    for (ExchangeWorkspace* workspace :
         {static_cast<ExchangeWorkspace*>(nullptr), ws}) {
      PayloadArena pending = arena;
      Expected<ExchangeResult> sealed = SealExchange(n, &pending, workspace);
      CHECK(sealed.ok() == ref.ok());
      if (!ref.ok()) {
        CHECK(sealed.status().code() == ref.code());
        CHECK(sealed.status().message() == ref.message());
        CHECK(!pending.frozen());
        CHECK(pending.num_reports() == arena.num_reports());
        continue;
      }
      ExchangeResult state = std::move(sealed).value();
      CHECK(state.rounds == 0);
      CHECK(state.payloads->frozen());
      const ReportStore& store = state.holdings;
      CHECK(store.num_users() == n && store.num_reports() == n);
      for (size_t u = 0; u < n; ++u) {
        CHECK(store.offsets_data()[u] == u);
        CHECK(store.arena_data()[u] == slots[u]);
      }
      CHECK(store.offsets_data()[n] == n);
      if (workspace != nullptr) workspace->Recycle(std::move(state.holdings));
    }
  }
  SetThreadCount(0);
  std::printf("ok: inject %s (%s)\n", name,
              ref.ok() ? "valid" : ref.message().c_str());
}

}  // namespace

int main() {
  // One workspace for the WHOLE test: every case below re-enters it with a
  // different graph size, thread count, and fault mode, so any read of
  // stale scratch would show up as a differential failure.
  ExchangeWorkspace ws;
  // One shared backend for every mmap-axis run; every hosted column file
  // lives (and dies) in its tmpdir.
  Expected<std::shared_ptr<StorageBackend>> be =
      StorageBackend::Create(StorageBackendConfig{});
  CHECK(be.ok());
  const std::shared_ptr<StorageBackend>& backend = be.value();
  const LazyFaultModel lazy(0.3);
  Rng meta(20220607);

  // A scan pass nested in a parallel region (an accountant trial's
  // injection) is one part, on the thread that runs it: RunChunks would
  // run more parts one after another there, each scanning every report.
  {
    SetThreadCount(4);
    CHECK(ScanParts(8 * kMinReportsPerScanPart) == 4);
    std::vector<size_t> nested(4, 0);
    ParallelFor(nested.size(), 1, [&](size_t begin, size_t end) {
      for (size_t t = begin; t < end; ++t) {
        nested[t] = ScanParts(8 * kMinReportsPerScanPart);
      }
    });
    for (const size_t parts : nested) CHECK(parts == 1);
    SetThreadCount(0);
  }

  // Injection (PayloadArena::InjectOnePerUser) on five parts' worth of
  // reports, so every width above 1 splits the slots: ascending and
  // shuffled arrival, a duplicate at the first, middle and last report,
  // origins past the population (the largest NodeId included), two
  // violations in either order, and short and long arenas.  Heap arenas,
  // and a hosted one per arrival order.
  {
    const size_t n = 5 * kMinReportsPerScanPart + 17;
    for (const bool shuffled : {false, true}) {
      std::vector<NodeId> base(n);
      for (size_t u = 0; u < n; ++u) base[u] = static_cast<NodeId>(u);
      if (shuffled) {
        Rng perm(20221021);
        for (size_t i = n - 1; i > 0; --i) {
          std::swap(base[i], base[perm.UniformInt(i + 1)]);
        }
      }
      // Report k takes the origin of report (k + 1) % n.
      const auto dup = [&](std::vector<NodeId> o, size_t k) {
        o[k] = o[(k + 1) % n];
        return o;
      };
      const auto past = [&](std::vector<NodeId> o, size_t k, NodeId origin) {
        o[k] = origin;
        return o;
      };
      std::vector<NodeId> shorter(base.begin(), base.end() - 1);
      std::vector<NodeId> longer = base;
      longer.push_back(0);
      const std::vector<std::pair<const char*, std::vector<NodeId>>> cases = {
          {"valid", base},
          {"dup-first", dup(base, 0)},
          {"dup-middle", dup(base, n / 2)},
          {"dup-last", dup(base, n - 1)},
          {"past-middle", past(base, n / 2, static_cast<NodeId>(n))},
          {"past-last", past(base, n - 1, ~NodeId{0})},
          {"past-then-dup", dup(past(base, n / 4, static_cast<NodeId>(n + 7)),
                                3 * n / 4)},
          {"dup-then-past", past(dup(base, n / 4), 3 * n / 4,
                                 static_cast<NodeId>(n + 7))},
          {"short", shorter},
          {"long", longer},
      };
      for (const auto& [name, origins] : cases) {
        CheckInjection(name, ArenaFromOrigins(origins), n, &ws);
      }
      CheckInjection("hosted-valid", ArenaFromOrigins(base, backend), n, &ws);
      CheckInjection("hosted-dup-middle",
                     ArenaFromOrigins(dup(base, n / 2), backend), n, &ws);
    }
  }

  // k-regular: degree classes 2/4/8/16 take the pow2 shift path, 3/20 the
  // general multiply-shift path.  Randomized n per degree.
  for (size_t k : {size_t{2}, size_t{3}, size_t{4}, size_t{8}, size_t{16},
                   size_t{20}}) {
    const size_t n = k + 2 + 2 * meta.UniformInt(150);  // n*k even: n even
    Rng gen(meta.Next());
    const Graph g = MakeRandomRegular(n % 2 == 0 ? n : n + 1, k, &gen);
    const uint64_t seed = meta.Next();
    RunCase("k-regular", g, /*rounds=*/8, seed, nullptr, &ws, backend);
    RunCase("k-regular", g, /*rounds=*/8, seed, &lazy, &ws, backend);
  }

  // Barabasi-Albert power-law tails: mixed degrees per round, hubs holding
  // multi-report batches (the FillStreamRaw > 1 path).
  for (size_t m : {size_t{1}, size_t{2}, size_t{5}, size_t{8}}) {
    Rng gen(meta.Next());
    const size_t n = 50 + meta.UniformInt(250);
    const Graph g = MakeBarabasiAlbert(n < m + 2 ? m + 2 : n, m, &gen);
    const uint64_t seed = meta.Next();
    RunCase("barabasi-albert", g, /*rounds=*/8, seed, nullptr, &ws, backend);
    RunCase("barabasi-albert", g, /*rounds=*/8, seed, &lazy, &ws, backend);
  }

  // Isolated users (deg == 0 keep-in-place) mixed with a routed component.
  {
    const Graph g = Graph::FromEdges(
        11, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}, {8, 9}});
    RunCase("with-isolated", g, /*rounds=*/10, meta.Next(), nullptr, &ws, backend);
    RunCase("with-isolated", g, /*rounds=*/10, meta.Next(), &lazy, &ws, backend);
  }

  // Single isolated user: the smallest exchange there is.
  {
    const Graph g = Graph::FromEdges(1, {});
    RunCase("single-user", g, /*rounds=*/5, meta.Next(), nullptr, &ws, backend);
  }

  // Fewer users than parts: at every width above 1, RoutingParts clamps to
  // n = 3, one user per part.  Fixed seeds keep the meta stream of the
  // cases below unchanged.
  {
    const Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {2, 0}});
    RunCase("tiny-n3", g, /*rounds=*/5, /*seed=*/3, nullptr, &ws, backend);
    RunCase("tiny-n3", g, /*rounds=*/5, /*seed=*/4, &lazy, &ws, backend);
  }

  // Empty population: nothing to route, but the rounds still accumulate.
  {
    const Graph g = Graph::FromEdges(0, {});
    RunCase("empty-n0", g, /*rounds=*/3, /*seed=*/1, nullptr, &ws, backend);
    RunCase("empty-n0", g, /*rounds=*/3, /*seed=*/2, &lazy, &ws, backend);
  }

  // 6000-leaf star: after one round the hub holds ~n reports — far past one
  // kCoinTile (4096) of coins — so its batch takes the lone-user grown-tile
  // path; leaves exercise the deg == 1 general-path draw (always 0).
  {
    const Graph g = MakeStar(6000);
    RunCase("star-6000", g, /*rounds=*/3, meta.Next(), nullptr, &ws, backend);
    RunCase("star-6000", g, /*rounds=*/3, meta.Next(), &lazy, &ws, backend);
  }

  // Resume-split property: an arbitrary 3-way split of the same run through
  // the shared workspace equals the reference (splits beyond the per-round
  // loop above; here the chunks are uneven multi-round calls).
  {
    Rng gen(meta.Next());
    const Graph g = MakeRandomRegular(240, 6, &gen);
    const uint64_t seed = meta.Next();
    for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                           size_t{33}}) {
      SetThreadCount(threads);
      std::vector<std::vector<ReportId>> ref = ReferenceInit(240);
      for (size_t r = 0; r < 13; ++r) ReferenceRound(g, r, seed, &lazy, &ref);
      ExchangeResult state = StartExchange(g, PatternArena(240, backend));
      size_t done = 0;
      for (size_t chunk : {size_t{1}, size_t{7}, size_t{5}}) {
        ExchangeOptions opts;
        opts.rounds = chunk;
        opts.first_round = done;
        opts.seed = seed;
        opts.faults = &lazy;
        state = ResumeExchange(g, std::move(state), opts, &ws);
        done += chunk;
      }
      CHECK(done == 13);
      CheckIdentical(state, ref);
    }
    SetThreadCount(0);
    std::printf("ok: resume-split 1+7+5 rounds, faults=yes\n");
  }

  // Finalize at scale: at every width above 1 each part owns hundreds of
  // users, and the first part holds the hubs.  The hosted arenas are
  // appended after the exchange ran and never sealed, so each stream is
  // still unmapped when FinalizeProtocol starts and must be mapped once,
  // before any pool thread reads the origins column.
  {
    Rng gen(20220608);
    const size_t n = 20000;
    const Graph g = MakeBarabasiAlbert(n, 5, &gen);
    ExchangeOptions opts;
    opts.rounds = 6;
    opts.seed = 61;
    ExchangeResult state =
        ResumeExchange(g, StartExchange(g, PatternArena(n)), opts, &ws);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                           size_t{33}}) {
      SetThreadCount(threads);
      CheckFinalize(state, threads);
      for (ReportingProtocol protocol :
           {ReportingProtocol::kAll, ReportingProtocol::kSingle}) {
        ExchangeResult hosted;
        hosted.holdings = state.holdings;
        hosted.rounds = state.rounds;
        hosted.payloads =
            std::make_shared<const PayloadArena>(PatternArena(n, backend));
        const ProtocolResult fin = FinalizeProtocol(hosted, protocol, 9);
        CheckSameInbox(fin, ReferenceFinalize(hosted, protocol, 9));
        CheckSameInbox(fin, FinalizeProtocol(state, protocol, 9));
      }
    }
    SetThreadCount(0);
    std::printf("ok: finalize BA n=%zu, heap and unmapped hosted arenas\n",
                n);
  }
  return 0;
}
