#include "replay.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/accountant.h"
#include "core/session.h"
#include "graph/spectral.h"
#include "graph/walk.h"
#include "shuffle/engine.h"
#include "shuffle/server.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {

// ---- Tracer -----------------------------------------------------------------

Tracer::Tracer(std::string run_id)
    : run_id_(std::move(run_id)), origin_(Clock::now()) {
  spans_.reserve(1u << 14);
}

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer), index_(tracer->spans_.size()) {
  const int parent = tracer->open_.empty() ? -1 : tracer->open_.back();
  tracer->open_.push_back(static_cast<int>(index_));
  tracer->spans_.push_back(Span{name, tracer->Now(), 0.0, parent});
}

Tracer::Scope::~Scope() {
  tracer_->spans_[index_].end_s = tracer_->Now();
  tracer_->open_.pop_back();
}

std::vector<double> Tracer::Durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::string(s.name) == name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

double Tracer::LeafSeconds() const {
  std::vector<bool> has_child(spans_.size(), false);
  for (const Span& s : spans_) {
    if (s.parent >= 0) has_child[static_cast<size_t>(s.parent)] = true;
  }
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (!has_child[i]) total += spans_[i].end_s - spans_[i].start_s;
  }
  return total;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"otherData\":{\"run_id\":\"%s\"},\"traceEvents\":[",
               run_id_.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"run\":\"%s\"}}",
                 i == 0 ? "" : ",", s.name, 1e6 * s.start_s,
                 1e6 * (s.end_s - s.start_s), i, s.parent, run_id_.c_str());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---- Replay -----------------------------------------------------------------

namespace {

using netshuffle::ExchangeOptions;
using netshuffle::ExchangeResult;
using netshuffle::ExchangeWorkspace;
using netshuffle::Graph;
using netshuffle::HashCombine;
using netshuffle::NodeId;
using netshuffle::PayloadArena;
using netshuffle::PrivacyParams;
using netshuffle::ProtocolResult;
using netshuffle::ReportingProtocol;
using netshuffle::Server;
using netshuffle::Session;
using netshuffle::SessionConfig;
using netshuffle::Status;

/// Spectral iterations the speedup pass times at each width.
constexpr size_t kSpeedupIterations = 20;

// Adds the scope's wall time to *total.
class Stopwatch {
 public:
  explicit Stopwatch(double* total) : total_(total), t0_(Clock::now()) {}
  ~Stopwatch() { *total_ += Seconds(t0_, Clock::now()); }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  double* total_;
  Clock::time_point t0_;
};

// Session's state, held directly: what Create, Step, Guarantee, Finalize,
// Rewire and BeginEpoch read and write (core/session.cc).
class Replayer {
 public:
  Replayer(const WorkloadSpec& spec, const Inputs& in, Tracer* tracer,
           Ledger* ledger)
      : spec_(spec), in_(in), tracer_(tracer), ledger_(ledger),
        server_(in.n), epoch_seed_(in.session_seed) {}

  ReplayRun Run() {
    // Epoch 0's reports are inputs the Session run had in hand; emitting
    // them again here times the mechanism on the cold path and feeds the
    // replay a freshly emitted arena.
    PayloadArena reports;
    {
      Stopwatch sw(&run_.input_emit_s);
      netshuffle::Rng rng(EmitSeed(in_.seed, 0));
      Emit(in_.values[0], 0, in_.n, &rng, &reports);
    }
    if (!Setup(std::move(reports))) return std::move(run_);
    for (size_t i = 0; i < target_; ++i) Round();
    run_.epoch0_rounds = state_.rounds;
    bool ok = CloseEpoch();
    if (ok) {
      {
        Stopwatch sw(&run_.replay_s);
        netshuffle::Rng rng(EmitSeed(in_.seed, 1));
        Emit(in_.values[1 % kValueColumns], 0, in_.n, &rng, &pending_);
        ok = BeginEpoch();
      }
      for (size_t epoch = 1; ok && epoch <= spec_.trace_epochs; ++epoch) {
        ok = ServeEpoch(epoch);
      }
    }
    run_.workspace_bytes = ws_.MemoryBytes();
    run_.routing_bytes = state_.holdings.MemoryBytes() + ws_.MemoryBytes();
    return std::move(run_);
  }

 private:
  // Session::Create: Validate, then the constructor's spectral estimate,
  // stationary mass, mixing time and report injection.
  bool Setup(PayloadArena reports) {
    std::vector<netshuffle::Edge> edges = in_.edges;
    Stopwatch sw(&run_.replay_s);
    Tracer::Scope setup(tracer_, "core.setup");
    Graph graph;
    {
      Tracer::Scope s(tracer_, "graph.from_edges");
      graph = Graph::FromEdges(in_.n, std::move(edges));
    }
    SessionConfig config;
    config.SetGraph(std::move(graph))
        .SetMechanism(Mechanism())
        .SetPayloads(std::move(reports))
        .SetSeed(in_.session_seed)
        .SetDeltaSplit(kDelta, kDelta2)
        .SetShards(1);
    Status valid;
    {
      Tracer::Scope s(tracer_, "graph.validate");
      valid = Session::Validate(config);
    }
    if (!ledger_->Check(valid.ok(), "replay Validate: " + valid.ToString())) {
      return false;
    }
    graph_ = config.ReleaseGraph();
    Structure(graph_, &gap_, &stationary_, &mixing_);
    target_ = mixing_;
    Tracer::Scope s(tracer_, "shuffle.inject");
    state_ = netshuffle::StartExchange(graph_, config.ReleasePayloads());
    return true;
  }

  void Structure(const Graph& g, double* gap, double* stationary,
                 size_t* mixing) {
    netshuffle::SpectralGapEstimate est;
    {
      Tracer::Scope s(tracer_, "graph.spectral");
      est = netshuffle::EstimateSpectralGap(g);
    }
    run_.spectral_iterations.push_back(static_cast<double>(est.iterations));
    *gap = est.gap;
    {
      Tracer::Scope s(tracer_, "graph.stationary");
      *stationary = netshuffle::StationarySumSquares(g);
    }
    *mixing = netshuffle::MixingTime(*gap, g.num_nodes());
  }

  // Session::Step(1).
  void Round() {
    Stopwatch sw(&run_.replay_s);
    Tracer::Scope s(tracer_, "shuffle.round");
    ExchangeOptions opts;
    opts.rounds = 1;
    opts.first_round = state_.rounds;
    opts.seed = epoch_seed_;
    state_ = netshuffle::ResumeExchange(graph_, std::move(state_), opts, &ws_);
    ++run_.rounds;
  }

  // Session::Guarantee: GuaranteeAt(current round), capped at the LDP floor.
  PrivacyParams Certify() {
    Stopwatch sw(&run_.replay_s);
    Tracer::Scope s(tracer_, "core.certify");
    netshuffle::AccountingContext ctx;
    ctx.epsilon0 = kEpsilon0;
    ctx.n = graph_.num_nodes();
    ctx.rounds = state_.rounds;
    ctx.protocol = ReportingProtocol::kAll;
    ctx.delta = kDelta;
    ctx.delta2 = kDelta2;
    ctx.spectral_gap = gap_;
    ctx.stationary_sum_squares = stationary_;
    ctx.graph = &graph_;
    ctx.seed = epoch_seed_;
    const PrivacyParams raw = accountant_.Certify(ctx);
    if (!(raw.epsilon < kEpsilon0)) return PrivacyParams{kEpsilon0, 0.0};
    return raw;
  }

  // Guarantee, FinalizeEpoch, and the curator's ReceiveAll + BeginEpoch.
  bool CloseEpoch() {
    const PrivacyParams guarantee = Certify();
    ledger_->Check(GuaranteeValid(guarantee, kEpsilon0, kDelta + kDelta2),
                   "replay guarantee");
    ProtocolResult inbox;
    {
      Stopwatch sw(&run_.replay_s);
      Tracer::Scope s(tracer_, "shuffle.finalize");
      inbox = netshuffle::FinalizeProtocol(state_, ReportingProtocol::kAll,
                                           epoch_seed_);
    }
    const uint64_t digest = InboxDigest(inbox);
    {
      Stopwatch sw(&run_.replay_s);
      Tracer::Scope s(tracer_, "shuffle.receive");
      server_.ReceiveAll(std::move(inbox.server_inbox));
      server_.BeginEpoch();
    }
    run_.outputs.push_back(EpochOutput{state_.rounds, guarantee, digest});
    return ledger_->Check(EpochDelivered(server_.epochs_received().back(),
                                         in_.n),
                          "replay epoch delivery");
  }

  // Session::Rewire: Validate the replacement, estimate its structure
  // outside the swap, then swap and re-resolve the mixing-time target.
  bool Rewire(Graph next) {
    Tracer::Scope rewire(tracer_, "core.rewire");
    SessionConfig probe;
    probe.SetGraph(std::move(next))
        .SetEpsilon0(kEpsilon0)
        .SetDeltaSplit(kDelta, kDelta2)
        .SetRounds(0);
    Status valid;
    {
      Tracer::Scope s(tracer_, "graph.validate");
      valid = Session::Validate(probe);
    }
    if (!ledger_->Check(valid.ok(), "replay rewire: " + valid.ToString())) {
      return false;
    }
    Structure(probe.graph(), &gap_, &stationary_, &mixing_);
    graph_ = probe.ReleaseGraph();
    target_ = mixing_;
    return true;
  }

  // Session::BeginEpoch: seal the pending arena, inject it as the next
  // epoch under that epoch's stream seed.
  bool BeginEpoch() {
    Tracer::Scope begin(tracer_, "core.begin_epoch");
    Status sealed;
    {
      Tracer::Scope s(tracer_, "shuffle.seal");
      sealed = pending_.Seal(in_.n);
    }
    if (!ledger_->Check(sealed.ok(), "replay seal: " + sealed.ToString())) {
      return false;
    }
    ++epoch_;
    epoch_seed_ = HashCombine(in_.session_seed, static_cast<uint64_t>(epoch_));
    Tracer::Scope s(tracer_, "shuffle.inject");
    state_ = netshuffle::StartExchange(graph_, std::move(pending_));
    pending_ = PayloadArena();
    return true;
  }

  // Mechanism::EmitReport for users [begin, end).
  void Emit(const std::vector<uint32_t>& values, size_t begin, size_t end,
            netshuffle::Rng* rng, PayloadArena* arena) {
    Tracer::Scope s(tracer_, "dp.emit");
    for (size_t u = begin; u < end; ++u) {
      Mechanism().EmitReport(static_cast<NodeId>(u), values[u], rng, arena);
    }
    run_.reports_emitted += end - begin;
  }

  // One serving epoch of pipeline.cc's ServeEpoch: epoch+1's ingest
  // interleaved with this epoch's rounds, then the boundary.
  bool ServeEpoch(size_t epoch) {
    const size_t n = in_.n;
    const size_t rounds = target_;
    const size_t per_step = (n + rounds - 1) / rounds;
    const std::vector<uint32_t>& values =
        in_.values[(epoch + 1) % kValueColumns];
    netshuffle::Rng emit_rng(EmitSeed(in_.seed, epoch + 1));
    size_t steps = 0;
    for (size_t begin = 0; begin < n; begin += per_step) {
      {
        Stopwatch sw(&run_.replay_s);
        Emit(values, begin, std::min(n, begin + per_step), &emit_rng,
             &pending_);
      }
      if (steps < rounds) {
        Round();
        ++steps;
      }
    }
    for (; steps < rounds; ++steps) Round();
    if (!CloseEpoch()) return false;
    Graph next;
    if (spec_.churn) next = in_.churn[ChurnIndex(epoch)];
    Stopwatch sw(&run_.replay_s);
    if (spec_.churn && !Rewire(std::move(next))) return false;
    return BeginEpoch();
  }

  const WorkloadSpec& spec_;
  const Inputs& in_;
  Tracer* tracer_;
  Ledger* ledger_;
  Server server_;
  netshuffle::StationaryBoundAccountant accountant_;
  Graph graph_;
  double gap_ = 0.0;
  double stationary_ = 0.0;
  size_t mixing_ = 0;
  size_t target_ = 0;
  ExchangeResult state_;
  ExchangeWorkspace ws_;
  size_t epoch_ = 0;
  uint64_t epoch_seed_;
  PayloadArena pending_;
  ReplayRun run_;
};

}  // namespace

ReplayRun RunReplay(const WorkloadSpec& spec, const Inputs& in,
                    Tracer* tracer, Ledger* ledger) {
  return Replayer(spec, in, tracer, ledger).Run();
}

double SpanCostSeconds() {
  constexpr int kSpans = 10000;
  Tracer tracer("span-cost");
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) Tracer::Scope s(&tracer, "probe");
  return Seconds(t0, Clock::now()) / kSpans;
}

double SpectralSpeedup(const Inputs& in, size_t width) {
  const Graph g = Graph::FromEdges(in.n, in.edges);
  double seconds[2] = {0.0, 0.0};
  const size_t widths[2] = {1, width};
  for (int i = 0; i < 2; ++i) {
    netshuffle::SetThreadCount(widths[i]);
    const Clock::time_point t0 = Clock::now();
    const netshuffle::SpectralGapEstimate est =
        netshuffle::EstimateSpectralGap(g, kSpeedupIterations);
    seconds[i] = Seconds(t0, Clock::now());
    // An early stop would time different work at the two widths.
    if (est.iterations != kSpeedupIterations) seconds[i] = std::nan("");
  }
  netshuffle::SetThreadCount(width);
  return seconds[0] / seconds[1];
}

double ExchangeSpeedup(const Inputs& in, size_t rounds, size_t width) {
  const Graph g = Graph::FromEdges(in.n, in.edges);
  double seconds[2] = {0.0, 0.0};
  const size_t widths[2] = {1, width};
  for (int i = 0; i < 2; ++i) {
    netshuffle::SetThreadCount(widths[i]);
    ExchangeWorkspace ws;
    ExchangeResult state = netshuffle::StartExchange(g, in.reports);
    ExchangeOptions opts;
    opts.rounds = rounds;
    opts.seed = in.session_seed;
    const Clock::time_point t0 = Clock::now();
    state = netshuffle::ResumeExchange(g, std::move(state), opts, &ws);
    seconds[i] = Seconds(t0, Clock::now());
  }
  netshuffle::SetThreadCount(width);
  return seconds[0] / seconds[1];
}

}  // namespace perfbench
