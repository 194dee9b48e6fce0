// Incremental-execution acceptance: splitting a Session run into Step()
// chunks — with mid-run Finalize calls in between — is bit-identical to the
// equivalent one-shot engine run, for both reporting protocols, with the
// traffic observed per step, and at 1 vs 4 threads (the engine keys every
// coin on the absolute round index; see shuffle/engine.h
// ExchangeOptions::first_round).
// Also pins the ExchangeWorkspace reuse contract: steady-state Step(1)
// calls allocate nothing (counted via a global operator new override).

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"
#include "dp/amplification.h"
#include "graph/generators.h"
#include "graph/spectral.h"
#include "graph/walk.h"
#include "shuffle/engine.h"
#include "tests/reference_exchange.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace netshuffle;
using netshuffle_test::CheckSameInbox;

namespace {

// Heap instrumentation for the workspace-reuse regression test below: when
// armed, every global allocation — on the stepping thread or a pool worker —
// adds its size to the counter.  Relaxed atomics: only totals matter, and
// the pool's round barriers order the workers' adds before the read.
std::atomic<bool> g_count_allocs{false};
std::atomic<size_t> g_alloc_bytes{0};

}  // namespace

// None of the replacements is inlined: GCC's -Wmismatched-new-delete fires
// when it inlines one side of a new/delete pair and not the other, and
// which side it inlines changes with the optimization level.
__attribute__((noinline)) void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) std::abort();
  return p;
}

__attribute__((noinline)) void* operator new[](std::size_t size) {
  return operator new(size);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace {

constexpr size_t kUsers = 800;
constexpr size_t kRounds = 15;
constexpr uint64_t kSeed = 4242;

Graph TestGraph() {
  Rng rng(9);
  return MakeRandomRegular(kUsers, 8, &rng);
}

struct MetricsSnapshot {
  uint64_t max_traffic;
  double mean_traffic;
  size_t max_memory;
};

MetricsSnapshot Snapshot(const ShuffleMetrics& m) {
  return {m.max_user_traffic(), m.mean_user_traffic(), m.max_user_memory()};
}

Session MakeSession(const Graph& g, ReportingProtocol protocol) {
  SessionConfig config;
  config.SetGraph(Graph(g))
      .SetProtocol(protocol)
      .SetRounds(kRounds)
      .SetSeed(kSeed);
  Expected<Session> created = Session::Create(std::move(config));
  CHECK(created.ok());
  return std::move(created).value();
}

void CheckIncrementalEqualsOneShot(const Graph& g,
                                   ReportingProtocol protocol) {
  // Ground truth: the one-shot engine run the deprecated facade performed,
  // and the traffic of the same exchange observed round by round.
  ExchangeOptions opts;
  opts.rounds = kRounds;
  opts.seed = kSeed;
  const ProtocolResult oneshot = RunProtocol(g, protocol, opts);
  ShuffleMetrics oneshot_metrics(kUsers);
  CheckSameInbox(
      FinalizeProtocol(
          netshuffle_test::ObservedExchange(g, opts, &oneshot_metrics),
          protocol, kSeed),
      oneshot);
  const MetricsSnapshot oneshot_m = Snapshot(oneshot_metrics);

  // Session::Run (step-to-target + finalize).
  Session whole = MakeSession(g, protocol);
  CheckSameInbox(whole.Run(), oneshot);

  // Uneven Step() chunks with a mid-run Finalize (which must not disturb
  // the stream) — still bit-identical.
  Session chunked = MakeSession(g, protocol);
  CHECK(chunked.Step(1).ok());
  CHECK(chunked.Step(4).ok());
  const ProtocolResult midrun = chunked.Finalize();
  CHECK(midrun.rounds == 5);
  CHECK(chunked.Step(10).ok());
  CHECK(chunked.current_round() == kRounds);
  CheckSameInbox(chunked.Finalize(), oneshot);

  // One round at a time, checking the incremental accounting curve against
  // the closed form the facade reported at every prefix.
  // Observing the session's state after every step measures what the
  // one-shot run measured.
  Session single_steps = MakeSession(g, protocol);
  ShuffleMetrics step_metrics(kUsers);
  step_metrics.Observe(single_steps.exchange());
  const double pi_sq = StationarySumSquares(g);
  for (size_t t = 1; t <= kRounds; ++t) {
    CHECK(single_steps.Step(1).ok());
    CHECK(single_steps.current_round() == t);
    step_metrics.Observe(single_steps.exchange());
    NetworkShufflingBoundInput in;
    in.epsilon0 = 1.0;
    in.n = kUsers;
    // The stationary bound pays the spectral failure probability from
    // delta2 (core/accountant.h).
    in.delta2 -= kSpectralFailureProbability;
    in.sum_p_squares =
        SumSquaresBound(pi_sq, single_steps.spectral_gap(), t);
    const double closed = protocol == ReportingProtocol::kSingle
                              ? EpsilonSingle(in)
                              : EpsilonAllStationary(in);
    const PrivacyParams raw = single_steps.RawGuaranteeAt(t, 1.0);
    if (std::isfinite(closed)) {
      CHECK_NEAR(raw.epsilon, closed, 1e-12);
    } else {
      CHECK(!std::isfinite(raw.epsilon));
    }
  }
  CheckSameInbox(single_steps.Finalize(), oneshot);
  const MetricsSnapshot step_m = Snapshot(step_metrics);
  CHECK(step_m.max_traffic == oneshot_m.max_traffic);
  CHECK_NEAR(step_m.mean_traffic, oneshot_m.mean_traffic, 0.0);
  CHECK(step_m.max_memory == oneshot_m.max_memory);
  CHECK(step_metrics.user_traffic() == oneshot_metrics.user_traffic());
}

// Workspace reuse: a serving loop stepping one round at a time must not
// re-pay the O(n) routing-table allocation every call — Session keeps one
// ExchangeWorkspace and ResumeExchange sizes it idempotently, so once the
// buffers have reached steady-state capacity a Step(1) allocates
// (essentially) nothing.  Pin that with a byte counter on global operator
// new: a regression back to per-call allocation costs ~hundreds of KB per
// step at this n and trips the bound immediately.  Run at width 1 (one
// part, no batch columns) and at width 4 (sixteen parts with bucketed
// batch columns and per-part scratch).
void CheckSteadyStateStepsAllocationFree(size_t threads) {
  SetThreadCount(threads);
  Rng rng(77);
  SessionConfig config;
  config.SetGraph(MakeRandomRegular(20000, 8, &rng))
      .SetProtocol(ReportingProtocol::kAll)
      .SetRounds(64)
      .SetSeed(5);
  Expected<Session> created = Session::Create(std::move(config));
  CHECK(created.ok());
  Session session = std::move(created).value();

  // Warm up until every workspace buffer (including the hop tiles, whose
  // high-water mark depends on the holdings distribution) has settled.
  for (int i = 0; i < 8; ++i) CHECK(session.Step(1).ok());

  g_alloc_bytes.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < 4; ++i) CHECK(session.Step(1).ok());
  g_count_allocs.store(false);
  CHECK(g_alloc_bytes.load() < 4096);
}

// Epoch rolls reuse the retired holdings: BeginEpoch seals into the
// workspace's partner store and hands the replaced epoch's holdings back to
// it (ExchangeWorkspace::Recycle), so once a session has rolled and
// stepped, neither a roll nor the round after it allocates an n-sized
// column.  At width 4 the
// population is two scan parts' worth, so the seal runs on the pool.
void CheckSteadyStateRollAllocationFree(size_t threads) {
  SetThreadCount(threads);
  const size_t n = 2 * kMinReportsPerScanPart + 2;
  Rng rng(78);
  SessionConfig config;
  config.SetGraph(MakeRandomRegular(n, 4, &rng)).SetRounds(64).SetSeed(6);
  Expected<Session> created = Session::Create(std::move(config));
  CHECK(created.ok());
  Session session = std::move(created).value();
  const auto fill = [&] {
    for (size_t u = 0; u < n; ++u) {
      session.pending_arena()->AppendBucket(static_cast<NodeId>(u),
                                            static_cast<uint32_t>(u % 8));
    }
  };
  fill();
  CHECK(session.BeginEpoch().ok());
  CHECK(session.Step(2).ok());
  fill();

  // The roll and the new epoch's first round: a partner store that the
  // seal took and nothing gave back would be re-allocated by the Step.
  g_alloc_bytes.store(0);
  g_count_allocs.store(true);
  CHECK(session.BeginEpoch().ok());
  CHECK(session.Step(1).ok());
  g_count_allocs.store(false);
  CHECK(g_alloc_bytes.load() < 4096);
  CHECK(session.epoch() == 2);
}

}  // namespace

int main() {
  const Graph g = TestGraph();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    CheckSteadyStateStepsAllocationFree(threads);
    CheckSteadyStateRollAllocationFree(threads);
  }

  // The thread count must not change a single bit of any of this (the CI
  // matrix additionally runs the whole suite under NS_THREADS=1 and 4).
  std::vector<ProtocolResult> per_thread_results;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SetThreadCount(threads);
    CheckIncrementalEqualsOneShot(g, ReportingProtocol::kAll);
    CheckIncrementalEqualsOneShot(g, ReportingProtocol::kSingle);

    Session s = MakeSession(g, ReportingProtocol::kAll);
    CHECK(s.Step(kRounds).ok());
    per_thread_results.push_back(s.Finalize());
  }
  SetThreadCount(0);  // restore the NS_THREADS / hardware default
  CheckSameInbox(per_thread_results[0], per_thread_results[1]);
  return 0;
}
