// Extension — private frequency estimation (histogram release) end-to-end
// through the Session API over the index-routed exchange: k-RR randomizes
// each user's category into a 4-byte bucket payload in the write-once
// PayloadArena, the session routes the 4-byte report ids for t = mixing-time
// rounds, and the curator counts buckets straight from the arena slices of
// the delivered ids before k-RR debiasing (DESIGN.md §4d).
//
// The second estimation scenario next to Figure 9's PrivUnit mean: same
// privacy pipeline, different payload type — the scenario diversity the
// ROADMAP's north star asks the payload arena to unlock.

#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/accountant.h"
#include "core/session.h"
#include "dp/ldp.h"
#include "estimation/frequency_estimation.h"
#include "experiment_common.h"
#include "util/stats.h"
#include "util/table.h"

using namespace netshuffle;

namespace {

constexpr size_t kCategories = 16;

// Zipf(1) ground truth; returns the sampled per-user categories.
std::vector<uint32_t> SampleCategories(size_t n, Rng* rng,
                                       std::vector<double>* true_freq) {
  std::vector<double> weights(kCategories);
  for (size_t c = 0; c < kCategories; ++c) {
    weights[c] = 1.0 / static_cast<double>(c + 1);
  }
  std::vector<uint32_t> categories(n);
  true_freq->assign(kCategories, 0.0);
  for (size_t u = 0; u < n; ++u) {
    categories[u] = static_cast<uint32_t>(rng->Discrete(weights));
    (*true_freq)[categories[u]] += 1.0;
  }
  for (double& f : *true_freq) f /= static_cast<double>(n);
  return categories;
}

}  // namespace

int main() {
  BenchRunner bench("extension_frequency");
  const double scale = EnvScale();
  auto ds = LoadOrMakeDataset("twitch", 2022, scale);
  const size_t n = ds.graph.num_nodes();
  const int kTrials = 3;

  std::printf(
      "Extension: k-RR frequency estimation through Session on the twitch "
      "graph\n(n=%zu, k=%zu categories, %d trials per point, scale=%.2f)\n\n",
      n, kCategories, kTrials, scale);

  Table t({"eps0", "central eps", "A_all L1 err", "A_single L1 err",
           "dummies"});
  for (double eps0 : {0.5, 1.0, 2.0, 3.0}) {
    const KRandomizedResponse rr(kCategories, eps0);
    RunningStats err_all, err_single;
    size_t dummies = 0;
    double central_eps = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      Rng rng(4000 + static_cast<uint64_t>(trial));
      std::vector<double> true_freq;
      const auto categories = SampleCategories(n, &rng, &true_freq);

      for (ReportingProtocol protocol :
           {ReportingProtocol::kAll, ReportingProtocol::kSingle}) {
        // Local randomization into the write-once arena.
        PayloadArena arena;
        arena.Reserve(n, n * rr.payload_size());
        for (size_t u = 0; u < n; ++u) {
          rr.EmitReport(static_cast<NodeId>(u), categories[u], &rng, &arena);
        }

        // One validated Session owns the whole pipeline.
        SessionConfig config;
        config.SetGraph(Graph(ds.graph))
            .SetMechanism(rr)
            .SetPayloads(std::move(arena))
            .SetProtocol(protocol)
            .SetSeed(100 + static_cast<uint64_t>(trial));
        Expected<Session> created = Session::Create(std::move(config));
        if (!created.ok()) {
          std::fprintf(stderr, "session rejected: %s\n",
                       created.status().ToString().c_str());
          bench.MarkFailed();
          return 1;
        }
        Session session = std::move(created).value();
        if (session.StepToTarget().ok() == false) {
          bench.MarkFailed();
          return 1;
        }
        const ProtocolResult pr = session.Finalize();
        central_eps = session.TargetGuarantee().epsilon;
        if (protocol == ReportingProtocol::kSingle) dummies = pr.dummy_reports;

        // Curator-side: count + debias straight from the arena slices (the
        // shared estimation/frequency_estimation.h aggregation).
        const auto estimate = AggregateFrequency(pr, rr, protocol, &rng);
        double l1 = 0.0;
        for (size_t c = 0; c < kCategories; ++c) {
          l1 += std::fabs(estimate[c] - true_freq[c]);
        }
        (protocol == ReportingProtocol::kAll ? err_all : err_single).Add(l1);
      }
    }
    t.NewRow()
        .AddDouble(eps0, 2)
        .AddDouble(central_eps, 4)
        .AddSci(err_all.mean(), 3)
        .AddSci(err_single.mean(), 3)
        .AddInt(static_cast<long long>(dummies));
    char key[64];
    std::snprintf(key, sizeof(key), "a_all_l1_err_eps0_%.1f", eps0);
    bench.AddMetric(key, err_all.mean());
    bench.SetHeadline("a_all_l1_err_largest_eps0", err_all.mean());
  }
  bench.SetAccountant(StationaryBoundAccountant().name());
  t.Print();

  std::printf(
      "\nExpected shape: A_all's L1 error is below A_single's at every eps0 "
      "(dummies + dropped reports\nhurt utility), and both shrink as eps0 "
      "grows.  The payload path is the real one: 4-byte k-RR\nbuckets ride "
      "the write-once arena while the exchange routes 4-byte ids "
      "(DESIGN.md §4d).\n");
  return 0;
}
