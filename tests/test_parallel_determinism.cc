// The determinism guarantee of the parallel hot paths (DESIGN.md "Parallel
// execution model"): for a fixed seed, the exchange engine, the Monte-Carlo
// accountant, the walk step, and the spectral sweep are bit-identical at any
// thread count.

#include <vector>

#include "core/accounting.h"
#include "graph/generators.h"
#include "graph/spectral.h"
#include "graph/walk.h"
#include "shuffle/engine.h"
#include "shuffle/fault.h"
#include "tests/reference_exchange.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace netshuffle;
using netshuffle_test::CheckSameInbox;

namespace {

// Materializes the flat store as per-user id vectors for easy comparison
// (ids are total state: the payload columns are immutable and shared).
std::vector<std::vector<ReportId>> Flatten(const ReportStore& store) {
  std::vector<std::vector<ReportId>> out(store.num_users());
  for (NodeId u = 0; u < store.num_users(); ++u) {
    for (const ReportId id : store.reports(u)) out[u].push_back(id);
  }
  return out;
}

struct Snapshot {
  std::vector<std::vector<ReportId>> holdings;
  std::vector<std::vector<ReportId>> faulty_holdings;
  uint64_t max_traffic = 0;
  double mean_traffic = 0.0;
  size_t max_memory = 0;
  double mc_mean = 0.0;
  double mc_quantile = 0.0;
  SpectralGapEstimate spectral;
  std::vector<double> walk_p;
  double walk_sum_squares = 0.0;
};

Snapshot RunAll(const Graph& g, size_t threads) {
  SetThreadCount(threads);
  Snapshot s;

  ExchangeOptions opts;
  opts.rounds = 12;
  opts.seed = 2022;
  ShuffleMetrics metrics(g.num_nodes());
  s.holdings =
      Flatten(netshuffle_test::ObservedExchange(g, opts, &metrics).holdings);
  CHECK(s.holdings == Flatten(RunExchange(g, opts).holdings));
  s.max_traffic = metrics.max_user_traffic();
  s.mean_traffic = metrics.mean_user_traffic();
  s.max_memory = metrics.max_user_memory();

  // Fault models draw from the same per-(round, user) streams.
  LazyFaultModel lazy(0.3);
  ExchangeOptions faulty = opts;
  faulty.faults = &lazy;
  s.faulty_holdings = Flatten(RunExchange(g, faulty).holdings);

  const auto mc = MonteCarloEpsilonAll(g, /*rounds=*/8, /*epsilon0=*/1.0,
                                       /*delta_total=*/1e-6, /*trials=*/24,
                                       /*quantile=*/0.95, /*seed=*/7);
  s.mc_mean = mc.epsilon_mean;
  s.mc_quantile = mc.epsilon_quantile;

  s.spectral = EstimateSpectralGap(g);

  PositionDistribution d(&g, 0);
  for (int i = 0; i < 6; ++i) d.LazyStep(i % 2 == 0 ? 0.0 : 0.25);
  s.walk_p = d.probabilities();
  s.walk_sum_squares = d.SumSquares();
  return s;
}

void CheckIdentical(const Snapshot& a, const Snapshot& b) {
  CHECK(a.holdings.size() == b.holdings.size());
  for (size_t u = 0; u < a.holdings.size(); ++u) {
    CHECK(a.holdings[u] == b.holdings[u]);
  }
  for (size_t u = 0; u < a.faulty_holdings.size(); ++u) {
    CHECK(a.faulty_holdings[u] == b.faulty_holdings[u]);
  }
  CHECK(a.max_traffic == b.max_traffic);
  CHECK(a.mean_traffic == b.mean_traffic);  // exact: integer-valued sums
  CHECK(a.max_memory == b.max_memory);
  // Bit-identical epsilons, not merely close.
  CHECK(a.mc_mean == b.mc_mean);
  CHECK(a.mc_quantile == b.mc_quantile);
  // The whole certified estimate: every Lanczos reduction sums fixed
  // blocks in block order, so the Ritz value, the bound, and the step at
  // which the stopping rule fires cannot move with the thread count.
  CHECK(a.spectral.gap == b.spectral.gap);
  CHECK(a.spectral.lambda == b.spectral.lambda);
  CHECK(a.spectral.lambda_upper == b.spectral.lambda_upper);
  CHECK(a.spectral.iterations == b.spectral.iterations);
  CHECK(a.spectral.converged == b.spectral.converged);
  CHECK(a.walk_sum_squares == b.walk_sum_squares);
  CHECK(a.walk_p.size() == b.walk_p.size());
  for (size_t v = 0; v < a.walk_p.size(); ++v) {
    CHECK(a.walk_p[v] == b.walk_p[v]);
  }
}

// The exchange half of the heavy-tailed case: the flat holdings (CSR
// offsets and arena) and the finalized inboxes of a 12-round exchange.
struct HeavyTailedRun {
  std::vector<uint32_t> offsets;
  std::vector<ReportId> arena;
  ProtocolResult all;
  ProtocolResult single;
};

HeavyTailedRun RunHeavyTailed(const Graph& g) {
  ExchangeOptions opts;
  opts.rounds = 12;
  opts.seed = 2022;
  const ExchangeResult ex = RunExchange(g, opts);
  const ReportStore& store = ex.holdings;
  HeavyTailedRun run;
  run.offsets.assign(store.offsets_data(),
                     store.offsets_data() + store.num_users() + 1);
  run.arena.assign(store.arena_data(),
                   store.arena_data() + store.num_reports());
  run.all = FinalizeProtocol(ex, ReportingProtocol::kAll, 11);
  run.single = FinalizeProtocol(ex, ReportingProtocol::kSingle, 11);
  CHECK(run.all.server_inbox.size() == g.num_nodes());
  return run;
}

}  // namespace

int main() {
  Rng rng(5);
  Graph regular = MakeRandomRegular(3000, 8, &rng);
  Graph skewed = MakeBarabasiAlbert(2000, 4, &rng);

  for (const Graph* g : {&regular, &skewed}) {
    const Snapshot t1 = RunAll(*g, 1);
    const Snapshot t2 = RunAll(*g, 2);
    const Snapshot t4 = RunAll(*g, 4);
    CheckIdentical(t1, t2);
    CheckIdentical(t1, t4);

    // Sanity besides equality: reports conserved, accountant finite.
    size_t total = 0;
    for (const auto& held : t4.holdings) total += held.size();
    CHECK(total == g->num_nodes());
    // The part cap (routing-table bound) must not break identity above it
    // either.
    const Snapshot t64 = RunAll(*g, 64);
    CheckIdentical(t1, t64);
    CHECK(t4.spectral.converged);
    CHECK(t4.spectral.gap > 0.0);
    CHECK(t4.mc_mean > 0.0);
    CHECK(t4.mc_mean <= t4.mc_quantile + 1e-12);
  }

  // A graph large enough that the stopping rules are tested at every
  // Lanczos step, where a thread-dependent last bit would move the stop.
  // Its hubs sit at the lowest ids and hold reports in proportion to their
  // degree, so the exchange's contiguous parts carry very unequal loads:
  // widths 1/2/3/4/64 run 1/8/12/16/32 parts, and the holdings and both
  // protocols' inboxes must not change a bit.
  {
    Rng ba_rng(7);
    const Graph big = MakeBarabasiAlbert(20000, 10, &ba_rng);
    SetThreadCount(1);
    const SpectralGapEstimate s1 = EstimateSpectralGap(big);
    CHECK(s1.converged);
    CHECK(s1.gap > 0.0);
    const HeavyTailedRun e1 = RunHeavyTailed(big);
    for (size_t threads : {2, 3, 4, 64}) {
      SetThreadCount(threads);
      const SpectralGapEstimate s = EstimateSpectralGap(big);
      CHECK(s.gap == s1.gap);
      CHECK(s.lambda == s1.lambda);
      CHECK(s.lambda_upper == s1.lambda_upper);
      CHECK(s.iterations == s1.iterations);
      CHECK(s.converged == s1.converged);
      const HeavyTailedRun e = RunHeavyTailed(big);
      CHECK(e.offsets == e1.offsets);
      CHECK(e.arena == e1.arena);
      CheckSameInbox(e.all, e1.all);
      CheckSameInbox(e.single, e1.single);
    }
  }

  SetThreadCount(0);
  return 0;
}
