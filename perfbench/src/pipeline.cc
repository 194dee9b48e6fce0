#include "pipeline.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "core/session.h"
#include "shuffle/server.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using netshuffle::Expected;
using netshuffle::Graph;
using netshuffle::NodeId;
using netshuffle::PayloadArena;
using netshuffle::PrivacyParams;
using netshuffle::ProtocolResult;
using netshuffle::Server;
using netshuffle::Session;
using netshuffle::SessionConfig;
using netshuffle::Status;

constexpr double kDeltaSplit = kDelta + kDelta2;
/// Quiet Guarantee calls timed per serving epoch on a reader-free workload.
constexpr size_t kQuietQueries = 1000;
/// A reader's think time between queries.  Readers that spin flat out on
/// a machine with nproc threads already busy leave no headroom, and the
/// step and query tails then measure the host's preemptions instead of
/// the session.
constexpr auto kReaderThink = std::chrono::microseconds(20);
/// No new cold certification starts after this much wall time, so a slow
/// machine still ends a run well inside its time limit.
constexpr double kLastStartSeconds = 120.0;

double UsSince(Clock::time_point t0) { return 1e6 * Seconds(t0, Clock::now()); }

// Hands the pages of the previous session, freed but kept by the
// allocator's arenas, back to the kernel, so that every cold certification
// starts from the heap the first one saw.  Without it, how much of an
// earlier session's memory the next one reuses depends on which pool
// thread freed what, and peak_rss_mb on cold-certify varied from 158 to
// 196 MB between runs of the same code.
void ReleaseFreedMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

// Reader threads: closed-loop Guarantee queries from construction until
// Stop().  Every answer must be a valid certificate, and the published
// (epoch, round) progress must never run backwards.  The destructor stops
// and joins, so no exit path leaves a thread running.
class ReaderPool {
 public:
  ReaderPool(const Session* session, size_t readers, Ledger* ledger)
      : latency_us_(readers) {
    for (size_t i = 0; i < readers; ++i) {
      threads_.emplace_back(&ReaderPool::Loop, this, session,
                            &latency_us_[i], ledger);
    }
  }
  ~ReaderPool() { Stop(); }
  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;

  /// Stops and joins the readers; appends their sampled latencies.
  void Stop(std::vector<double>* latency_us = nullptr) {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    if (latency_us == nullptr) return;
    for (const std::vector<double>& v : latency_us_) {
      latency_us->insert(latency_us->end(), v.begin(), v.end());
    }
  }

 private:
  void Loop(const Session* session, std::vector<double>* latency_us,
            Ledger* ledger) {
    size_t prev_epoch = 0, prev_round = 0;
    uint64_t count = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      const size_t e1 = session->epoch();
      const size_t r = session->current_round();
      const size_t e2 = session->epoch();
      const Clock::time_point t0 = Clock::now();
      const PrivacyParams g = session->Guarantee();
      latency_us->push_back(UsSince(t0));
      if (!GuaranteeValid(g, kEpsilon0, kDeltaSplit)) {
        ledger->Fail("reader: invalid guarantee eps=" +
                     std::to_string(g.epsilon) +
                     " delta=" + std::to_string(g.delta));
      }
      // (e1, r) is a consistent pair only when no epoch roll interleaved.
      if (e1 == e2) {
        if (e1 < prev_epoch || (e1 == prev_epoch && r < prev_round)) {
          ledger->Fail("reader: (epoch, round) progress went backwards");
        }
        prev_epoch = e1;
        prev_round = r;
      }
      ++count;
      std::this_thread::sleep_for(kReaderThink);
    }
    ledger->Attempt(count);
  }

  std::atomic<bool> stop_{false};
  std::vector<std::vector<double>> latency_us_;
  std::vector<std::thread> threads_;
};

class PathRunner {
 public:
  PathRunner(const WorkloadSpec& spec, const Inputs& in, Mode mode,
             Ledger* ledger)
      : spec_(spec), in_(in), mode_(mode), ledger_(ledger), server_(in.n) {}

  // Each cold certification is followed by a serving slice of
  // seconds / spec.setups, so that setup and serving samples both spread
  // over the whole run rather than sitting in one window of it.  Reference
  // mode certifies once and serves spec.trace_epochs epochs.
  SessionRun Run(double seconds) {
    const Clock::time_point start = Clock::now();
    const double slice = seconds / static_cast<double>(spec_.setups);
    for (size_t rep = 1;; ++rep) {
      ReleaseFreedMemory();
      std::optional<Session> session = ColdCertify();
      if (!session || !Serve(&*session, slice)) break;
      if (mode_ == Mode::kReference) {
        QuietCertify(*session);
        break;
      }
      const bool enough = rep >= spec_.setups && run_.delivery_s >= seconds;
      if (enough || Seconds(start, Clock::now()) >= kLastStartSeconds) break;
    }
    return std::move(run_);
  }

 private:
  // One cold certification: edge list and reports in hand -> a ready
  // Session -> target rounds -> Guarantee -> inbox at the curator.  Steps
  // one round per call: the same rounds StepToTarget runs in one call,
  // bit-identical (tests/test_session_incremental.cc).
  std::optional<Session> ColdCertify() {
    std::vector<netshuffle::Edge> edges = in_.edges;  // inputs in hand
    PayloadArena reports = in_.reports;
    const Clock::time_point t0 = Clock::now();
    Graph graph = Graph::FromEdges(in_.n, std::move(edges));
    SessionConfig config;
    config.SetGraph(std::move(graph))
        .SetMechanism(Mechanism())
        .SetPayloads(std::move(reports))
        .SetSeed(in_.session_seed)
        .SetDeltaSplit(kDelta, kDelta2)
        .SetShards(1);
    Expected<Session> created = Session::Create(std::move(config));
    const Clock::time_point t1 = Clock::now();
    if (!ledger_->Check(created.ok(), "Session::Create: " +
                                          created.status().ToString())) {
      return std::nullopt;
    }
    Session session = std::move(created).value();
    run_.setup_s.push_back(Seconds(t0, t1));
    run_.session_s += Seconds(t0, t1);

    const size_t rounds = session.target_rounds();
    for (size_t i = 0; i < rounds; ++i) {
      if (!StepOnce(&session, nullptr)) return std::nullopt;
    }
    const PrivacyParams guarantee = CheckedGuarantee(session);
    const Clock::time_point r0 = Clock::now();
    ProtocolResult inbox = session.FinalizeEpoch();
    const Clock::time_point f1 = Clock::now();
    const uint64_t digest = Digest(inbox);  // reference mode; not timed
    const Clock::time_point r1 = Clock::now();
    server_.ReceiveAll(std::move(inbox.server_inbox));
    server_.BeginEpoch();
    const Clock::time_point t2 = Clock::now();
    run_.session_s += Seconds(r0, f1) + Seconds(r1, t2);
    run_.certify_s.push_back(Seconds(t0, t2) - Seconds(f1, r1));
    CloseEpoch(rounds, guarantee, digest);
    ++run_.cold_certifications;
    return session;
  }

  // Epoch serving on a just-certified session: epoch 1's reports are
  // ingested and sealed first, then each epoch e streams epoch e+1's
  // reports into the pending arena between its rounds and rolls the
  // boundary.  Timed mode serves for `seconds` (reader threads running, or
  // quiet Guarantee queries after each epoch on a reader-free workload).
  bool Serve(Session* session, double seconds) {
    const Clock::time_point p0 = Clock::now();
    EmitAll(in_.values[1 % kValueColumns], EmitSeed(in_.seed, 1),
            session->pending_arena());
    const Status begun = session->BeginEpoch();
    run_.session_s += Seconds(p0, Clock::now());
    if (!ledger_->Check(begun.ok(), "BeginEpoch: " + begun.ToString())) {
      return false;
    }
    const size_t readers = mode_ == Mode::kTimed ? spec_.readers : 0;
    ReaderPool pool(session, readers, ledger_);
    const bool quiet_queries = mode_ == Mode::kTimed && readers == 0;
    const Clock::time_point start = Clock::now();
    bool ok = true;
    for (size_t epoch = 1; ok; ++epoch) {
      ok = ServeEpoch(session, epoch, quiet_queries);
      if (mode_ == Mode::kReference ? epoch >= spec_.trace_epochs
                                    : Seconds(start, Clock::now()) >= seconds) {
        break;
      }
    }
    pool.Stop(&run_.query_us);
    return ok;
  }

  // Step(1), its latency recorded in `ms` when given.
  bool StepOnce(Session* session, std::vector<double>* ms) {
    const Clock::time_point t0 = Clock::now();
    const Status s = session->Step(1);
    const double dt = Seconds(t0, Clock::now());
    if (ms != nullptr) ms->push_back(1e3 * dt);
    run_.session_s += dt;
    return ledger_->Check(s.ok(), "Session::Step: " + s.ToString());
  }

  PrivacyParams CheckedGuarantee(const Session& session) {
    const Clock::time_point t0 = Clock::now();
    const PrivacyParams g = session.Guarantee();
    run_.session_s += Seconds(t0, Clock::now());
    ledger_->Check(GuaranteeValid(g, kEpsilon0, kDeltaSplit),
                   "certified guarantee eps=" + std::to_string(g.epsilon) +
                       " delta=" + std::to_string(g.delta));
    return g;
  }

  uint64_t Digest(const ProtocolResult& inbox) const {
    return mode_ == Mode::kReference ? InboxDigest(inbox) : 0;
  }

  // The curator must have received every report of the closed epoch.
  void CloseEpoch(size_t rounds, PrivacyParams guarantee, uint64_t digest) {
    const std::vector<Server::EpochStats>& closed = server_.epochs_received();
    ledger_->Check(!closed.empty() && EpochDelivered(closed.back(), in_.n),
                   "epoch delivery: report conservation / coverage 1.0");
    run_.outputs.push_back(EpochOutput{rounds, guarantee, digest});
  }

  void QuietQueries(const Session& session) {
    for (size_t i = 0; i < kQuietQueries; ++i) {
      const Clock::time_point t0 = Clock::now();
      const PrivacyParams g = session.Guarantee();
      run_.query_us.push_back(UsSince(t0));
      ledger_->Check(GuaranteeValid(g, kEpsilon0, kDeltaSplit),
                     "quiet Guarantee");
    }
  }

  // GuaranteeAt(target) with no other load: core.certify_us.
  void QuietCertify(const Session& session) {
    const size_t target = session.target_rounds();
    for (size_t i = 0; i < kQuietQueries; ++i) {
      const Clock::time_point t0 = Clock::now();
      const PrivacyParams g = session.GuaranteeAt(target, kEpsilon0);
      run_.quiet_certify_us.push_back(UsSince(t0));
      ledger_->Check(GuaranteeValid(g, kEpsilon0, kDeltaSplit),
                     "quiet GuaranteeAt");
    }
  }

  // One serving epoch, plus quiet Guarantee queries at its target round
  // when `quiet_queries`.  The epoch's wall time, less the benchmark's own
  // work inside it (quiet queries, the churn graph copy, the digest), is
  // its serving time.
  bool ServeEpoch(Session* session, size_t epoch, bool quiet_queries) {
    const Clock::time_point epoch_start = Clock::now();
    double own_s = 0.0;
    const size_t n = in_.n;
    const size_t rounds = session->target_rounds();
    const size_t per_step = (n + rounds - 1) / rounds;
    const std::vector<uint32_t>& values =
        in_.values[(epoch + 1) % kValueColumns];
    netshuffle::Rng emit_rng(EmitSeed(in_.seed, epoch + 1));
    size_t steps = 0;
    for (size_t begin = 0; begin < n; begin += per_step) {
      const size_t end = std::min(n, begin + per_step);
      const Clock::time_point t0 = Clock::now();
      for (size_t u = begin; u < end; ++u) {
        Mechanism().EmitReport(static_cast<NodeId>(u), values[u], &emit_rng,
                               session->pending_arena());
      }
      run_.session_s += Seconds(t0, Clock::now());
      if (steps < rounds) {
        if (!StepOnce(session, &run_.step_ms)) return false;
        ++steps;
      }
    }
    for (; steps < rounds; ++steps) {
      if (!StepOnce(session, &run_.step_ms)) return false;
    }
    const PrivacyParams guarantee = CheckedGuarantee(*session);
    const Clock::time_point q0 = Clock::now();
    if (quiet_queries) QuietQueries(*session);
    Graph next;
    if (spec_.churn) next = in_.churn[ChurnIndex(epoch)];
    own_s += Seconds(q0, Clock::now());

    // The boundary: close the epoch out to the curator, roll the curator,
    // (serve-churn) rewire, seal the streamed ingest into the next epoch.
    const Clock::time_point r0 = Clock::now();
    ProtocolResult inbox = session->FinalizeEpoch();
    const double finalize_s = Seconds(r0, Clock::now());
    const Clock::time_point d0 = Clock::now();
    const uint64_t digest = Digest(inbox);  // reference mode only
    const Clock::time_point r1 = Clock::now();
    own_s += Seconds(d0, r1);
    server_.ReceiveAll(std::move(inbox.server_inbox));
    server_.BeginEpoch();
    bool ok = true;
    if (spec_.churn) {
      const Status s = session->Rewire(std::move(next));
      ok = ledger_->Check(s.ok(), "Session::Rewire: " + s.ToString());
    }
    if (ok) {
      const Status s = session->BeginEpoch();
      ok = ledger_->Check(s.ok(), "Session::BeginEpoch: " + s.ToString());
    }
    const double roll_s = finalize_s + Seconds(r1, Clock::now());
    run_.roll_ms.push_back(1e3 * roll_s);
    run_.session_s += roll_s;
    const double epoch_s = Seconds(epoch_start, Clock::now()) - own_s;
    CloseEpoch(rounds, guarantee, digest);
    run_.epoch_rate.push_back(static_cast<double>(n) / epoch_s);
    run_.reports_delivered += n;
    run_.delivery_s += epoch_s;
    ++run_.serving_epochs;
    return ok;
  }

  const WorkloadSpec& spec_;
  const Inputs& in_;
  const Mode mode_;
  Ledger* ledger_;
  Server server_;
  SessionRun run_;
};

}  // namespace

SessionRun RunSession(const WorkloadSpec& spec, const Inputs& in, Mode mode,
                      double seconds, Ledger* ledger) {
  return PathRunner(spec, in, mode, ledger).Run(seconds);
}

}  // namespace perfbench
