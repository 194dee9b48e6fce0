// Figure 9 — privacy-utility trade-off of private mean estimation on the
// Twitch-like graph: expected squared l2 error vs the central epsilon, for
// A_all and A_single (PrivUnit, d = 200, N(1,1)/N(10,1) halves,
// uniform-direction dummies).
//
// Reproduced finding: for a fixed central epsilon, A_all's error stays below
// A_single's in the studied region.

#include <cstdio>
#include <utility>
#include <vector>

#include "core/accountant.h"
#include "core/session.h"
#include "estimation/mean_estimation.h"
#include "experiment_common.h"
#include "util/stats.h"
#include "util/table.h"

using namespace netshuffle;

int main() {
  BenchRunner bench("fig9_mean_estimation");
  const double scale = EnvScale();
  auto ds = LoadOrMakeDataset("twitch", 2022, scale);
  const size_t n = ds.graph.num_nodes();
  const size_t dim = 200;
  const int kTrials = 3;

  std::printf(
      "Figure 9 reproduction: mean-estimation utility vs central eps on the "
      "twitch graph\n(n=%zu, d=%zu, PrivUnit, %d trials per point, "
      "scale=%.2f)\n\n",
      n, dim, kTrials, scale);

  // One accounting session per protocol (the operating point is the mixing
  // time); Create validates the dataset graph once.  Rejections return from
  // main (not std::exit, which would skip BenchRunner's destructor and drop
  // this harness's JSON off the perf trajectory).
  const auto make_session = [&](ReportingProtocol protocol) {
    SessionConfig config;
    config.SetGraph(Graph(ds.graph)).SetProtocol(protocol);
    return Session::Create(std::move(config));
  };
  Expected<Session> all_created = make_session(ReportingProtocol::kAll);
  Expected<Session> single_created = make_session(ReportingProtocol::kSingle);
  if (!all_created.ok() || !single_created.ok()) {
    const Status& status = !all_created.ok() ? all_created.status()
                                             : single_created.status();
    std::fprintf(stderr, "session rejected: %s\n",
                 status.ToString().c_str());
    bench.MarkFailed();
    return 1;
  }
  Session& all_acct = all_created.value();
  Session& single_acct = single_created.value();
  bench.SetAccountant(StationaryBoundAccountant().name());
  const size_t rounds = all_acct.target_rounds();
  std::printf("operating point: t = %zu rounds (alpha = %.5f)\n\n", rounds,
              all_acct.spectral_gap());

  Table t({"eps0", "A_all central eps", "A_all sq err", "A_single central eps",
           "A_single sq err", "dummies"});
  for (double eps0 : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0}) {
    RunningStats err_all, err_single;
    size_t dummies = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      MeanEstimationConfig config;
      config.dim = dim;
      config.epsilon0 = eps0;
      config.rounds = rounds;
      config.seed = 1000 + static_cast<uint64_t>(trial);
      config.protocol = ReportingProtocol::kAll;
      err_all.Add(RunMeanEstimation(ds.graph, config).squared_error);
      config.protocol = ReportingProtocol::kSingle;
      const auto r = RunMeanEstimation(ds.graph, config);
      err_single.Add(r.squared_error);
      dummies = r.dummy_reports;
    }
    bench.SetHeadline("a_all_sq_err_eps0_4", err_all.mean());
    t.NewRow()
        .AddDouble(eps0, 2)
        .AddDouble(all_acct.RawGuaranteeAt(rounds, eps0).epsilon, 4)
        .AddSci(err_all.mean(), 3)
        .AddDouble(single_acct.RawGuaranteeAt(rounds, eps0).epsilon, 4)
        .AddSci(err_single.mean(), 3)
        .AddInt(static_cast<long long>(dummies));
  }
  t.Print();

  std::printf(
      "\nExpected shape: at any eps0, A_all's squared error is below "
      "A_single's (dummies + dropped\nreports hurt utility), even though "
      "A_single certifies a smaller central eps at large eps0 —\nmatching "
      "the paper's counter-example discussion.  The dummy count reflects "
      "the degree-skewed\nstationary placement of reports (paper: 7080 of "
      "9498 users; low-degree users rarely hold a\nreport), well above the "
      "1/e of a regular graph.\n");
  return 0;
}
