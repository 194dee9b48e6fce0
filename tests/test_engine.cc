#include "shuffle/engine.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "shuffle/engine_internal.h"
#include "shuffle/fault.h"
#include "shuffle/server.h"
#include "tests/reference_exchange.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace netshuffle;
using netshuffle_test::ExpectDeath;
using netshuffle_test::ObservedExchange;

namespace {

// The traffic observer against the scalar oracle: per-user sends and
// holdings peaks over `rounds` observed rounds, with and without lazy
// users, at 1 and 4 threads.
void CheckObserverMatchesOracle(const char* name, const Graph& g) {
  const size_t n = g.num_nodes(), rounds = 12;
  const uint64_t seed = 31337;
  LazyFaultModel lazy(0.3);
  for (const FaultModel* faults : {static_cast<const FaultModel*>(nullptr),
                                   static_cast<const FaultModel*>(&lazy)}) {
    std::vector<std::vector<ReportId>> ref = netshuffle_test::ReferenceInit(n);
    std::vector<uint64_t> sends(n, 0);
    std::vector<size_t> peaks(n, 1);
    for (size_t r = 0; r < rounds; ++r) {
      netshuffle_test::ReferenceRound(g, r, seed, faults, &ref, &sends);
      for (NodeId u = 0; u < n; ++u) {
        peaks[u] = std::max(peaks[u], ref[u].size());
      }
    }
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SetThreadCount(threads);
      ExchangeOptions opts;
      opts.rounds = rounds;
      opts.seed = seed;
      opts.faults = faults;
      ShuffleMetrics metrics(n);
      const ExchangeResult ex = ObservedExchange(g, opts, &metrics);
      for (NodeId u = 0; u < n; ++u) {
        const ReportSpan held = ex.holdings.reports(u);
        CHECK(std::vector<ReportId>(held.begin(), held.end()) == ref[u]);
      }
      CHECK(metrics.user_traffic() == sends);
      CHECK(metrics.user_peak_holdings() == peaks);
    }
  }
  SetThreadCount(0);
  std::printf("ok: observer == oracle on %s (n=%zu)\n", name, n);
}

}  // namespace

int main() {
  // The part-count rule: one part at width 1, four per pool slot above it,
  // clamped to the user count and to the routing-table cap.
  {
    using engine_internal::kMaxRoutingParts;
    using engine_internal::RoutingParts;
    CHECK(RoutingParts(1, 1000000) == 1);
    CHECK(RoutingParts(2, 1000000) == 8);
    CHECK(RoutingParts(4, 1000000) == 16);
    CHECK(kMaxRoutingParts == 32);
    CHECK(RoutingParts(8, 1000000) == kMaxRoutingParts);
    CHECK(RoutingParts(33, 1000000) == kMaxRoutingParts);
    CHECK(RoutingParts(4, 11) == 11);
  }

  const size_t n = 3000, k = 8, rounds = 20;
  Rng rng(5);
  Graph g = MakeRandomRegular(n, k, &rng);

  // Report conservation through the exchange.
  ExchangeOptions opts;
  opts.rounds = rounds;
  opts.seed = 99;
  ShuffleMetrics metrics(n);
  ExchangeResult ex = ObservedExchange(g, opts, &metrics);
  CHECK(ex.rounds == rounds);
  size_t total = 0;
  std::vector<bool> seen(n, false);
  CHECK(ex.holdings.num_users() == n);
  for (NodeId u = 0; u < n; ++u) {
    for (const ReportId id : ex.holdings.reports(u)) {
      ++total;
      const NodeId origin = ex.payloads->origin(id);
      CHECK(!seen[origin]);
      seen[origin] = true;
    }
  }
  CHECK(total == n);
  CHECK(ex.holdings.num_reports() == n);

  // Every user forwards each held report once per round: mean traffic ==
  // rounds exactly (no faults), and holdings stay O(1)-ish.
  CHECK_NEAR(metrics.mean_user_traffic(), static_cast<double>(rounds), 1e-9);
  CHECK(metrics.max_user_memory() >= 1);
  CHECK(metrics.max_user_memory() < 30);
  CHECK(metrics.peak_entity_memory() == 0);  // no central entity

  // Report conservation through FinalizeProtocol, for EVERY protocol: each
  // of the n injected reports is either delivered exactly once or counted
  // as dropped, and dummies account for the empty-handed users.
  for (ReportingProtocol protocol :
       {ReportingProtocol::kAll, ReportingProtocol::kSingle}) {
    const ProtocolResult fin = FinalizeProtocol(ex, protocol, 1);
    std::vector<bool> delivered(n, false);
    for (const FinalReport& fr : fin.server_inbox) {
      CHECK(!delivered[fr.origin]);  // no duplication, ever
      CHECK(fin.payloads->origin(fr.id) == fr.origin);  // denormalization
      delivered[fr.origin] = true;
    }
    CHECK(fin.server_inbox.size() + fin.dropped_reports == n);
    size_t holders = 0;
    for (NodeId u = 0; u < n; ++u) holders += ex.holdings.count(u) > 0;
    CHECK(fin.dummy_reports == n - holders);
    if (protocol == ReportingProtocol::kAll) {
      CHECK(fin.dropped_reports == 0);  // kAll submits everything held
    } else {
      CHECK(fin.server_inbox.size() == holders);  // one per holding user
    }
  }

  // kAll delivers all n reports; the server sees full coverage.
  ProtocolResult all = FinalizeProtocol(ex, ReportingProtocol::kAll, 1);
  CHECK(all.server_inbox.size() == n);
  CHECK(all.dropped_reports == 0);
  Server server(n);
  server.ReceiveAll(all.server_inbox);
  CHECK(server.num_received() == n);
  CHECK_NEAR(server.PayloadCoverage(), 1.0, 1e-12);

  // After 20 rounds on an expander nearly every report moved.
  size_t moved = 0;
  for (const auto& fr : server.inbox()) {
    moved += fr.final_holder != fr.origin;
  }
  CHECK(moved > n / 2);

  // kSingle: one submission per holding user; genuine + dummies == n users;
  // dropped = surplus.
  ProtocolResult single = RunProtocol(g, ReportingProtocol::kSingle, opts);
  CHECK(single.server_inbox.size() + single.dummy_reports == n);
  CHECK(single.server_inbox.size() + single.dropped_reports == n);
  CHECK(single.dummy_reports > 0);  // Poisson(1)-ish occupancy: empties exist
  Server sserver(n);
  sserver.ReceiveAll(single.server_inbox);
  CHECK(sserver.PayloadCoverage() < 1.0);

  // Fault model: lazy users forward less, but reports are still conserved.
  LazyFaultModel lazy(0.5);
  ShuffleMetrics lazy_metrics(n);
  ExchangeOptions lazy_opts;
  lazy_opts.rounds = rounds;
  lazy_opts.seed = 123;
  lazy_opts.faults = &lazy;
  ExchangeResult lex = ObservedExchange(g, lazy_opts, &lazy_metrics);
  size_t lazy_total = 0;
  for (NodeId u = 0; u < n; ++u) lazy_total += lex.holdings.count(u);
  CHECK(lazy_total == n);
  CHECK(lazy_metrics.mean_user_traffic() < 0.7 * rounds);
  CHECK(lazy_metrics.mean_user_traffic() > 0.3 * rounds);

  // Determinism: same seed, same final holdings.
  ExchangeResult ex2 = RunExchange(g, opts);
  for (NodeId u = 0; u < n; ++u) {
    CHECK(ex2.holdings.count(u) == ex.holdings.count(u));
  }

  // The observer counts exactly the oracle's sends: a hub holding many
  // reports, a heavy-tailed graph, and an isolated user that never sends.
  CheckObserverMatchesOracle("star", netshuffle_test::MakeStar(64));
  {
    Rng ba_rng(17);
    CheckObserverMatchesOracle("barabasi-albert",
                               MakeBarabasiAlbert(2000, 3, &ba_rng));
    Rng reg_rng(23);
    const Graph reg = MakeRandomRegular(1000, 20, &reg_rng);
    CheckObserverMatchesOracle("20-regular+isolated",
                               Graph::FromEdges(1001, reg.EdgeList()));
  }

  // Observation is per round: skipping one, observing a different
  // population, or starting mid-exchange is fatal.  The exchanges run here,
  // so the forked children only observe.
  const ExchangeResult round0 = StartExchange(g);
  ExchangeOptions one;
  const ExchangeResult round1 = RunExchange(g, one);
  ExchangeOptions two;
  two.rounds = 2;
  const ExchangeResult round2 = RunExchange(g, two);
  ExpectDeath([&] {
    ShuffleMetrics m(n);
    m.Observe(round0);
    m.Observe(round2);
  });
  ExpectDeath([&] {
    ShuffleMetrics m(n + 1);
    m.Observe(round0);
  });
  ExpectDeath([&] {
    ShuffleMetrics m(n);
    m.Observe(round1);
  });
  {
    ShuffleMetrics m(n);
    m.Observe(round0);
    m.Observe(round1);
    m.Observe(round0);  // a new injection restarts the holders
    m.Observe(round1);
    CHECK(m.mean_user_traffic() == 2.0);
  }
  // The baselines' mutators are bounds-checked.
  ExpectDeath([] {
    ShuffleMetrics m(4);
    m.AddUserTraffic(4, 1);
  });
  ExpectDeath([] {
    ShuffleMetrics m(4);
    m.ObserveUserHoldings(7, 1);
  });
  {
    ShuffleMetrics m(4);
    m.AddUserTraffic(3, 5);
    m.ObserveUserHoldings(3, 2);
    CHECK(m.max_user_traffic() == 5 && m.max_user_memory() == 2);
  }
  return 0;
}
