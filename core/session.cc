#include "core/session.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/connectivity.h"
#include "graph/spectral.h"
#include "graph/walk.h"
#include "util/rng.h"

// The mutator-only entry points (Step/BeginEpoch/Rewire) each hold an
// ns::RoleScope on Sync::mutator — the annotated successor of the PR 6
// MutationScope: two overlapping mutations, or a Finalize that observes
// one in flight (Sync::AssertQuiescent), are a contract violation that
// would silently produce a torn exchange state, so they abort loudly.
// Detection is best-effort (a racing pair may interleave before the
// exchange), but every deterministic misuse and the common racing ones
// die there — and the NS_GUARDED_BY(sync_->mutator) annotations make the
// discipline a compile-time check under clang -Wthread-safety.

namespace netshuffle {

namespace {

bool ValidSlack(double d) { return std::isfinite(d) && d > 0.0 && d < 1.0; }

}  // namespace

Status Session::Validate(const SessionConfig& config) {
  return ValidateWith(config, nullptr, nullptr);
}

Status Session::ValidateWith(const SessionConfig& config,
                             SpectralGapEstimate* estimate,
                             ReportStore* holdings) {
  if (config.graph().num_nodes() == 0) {
    return Status::Error(StatusCode::kEmptyGraph,
                         "the communication graph has zero users");
  }
  if (config.shards() != 1) {
    return Status::Error(
        StatusCode::kInvalidArgument,
        "SetShards(" + std::to_string(config.shards()) +
            "): a Session runs one exchange path and accepts only 1");
  }
  if (!std::isfinite(config.epsilon0()) || config.epsilon0() <= 0.0) {
    return Status::Error(StatusCode::kInvalidEpsilon,
                         "epsilon0 must be finite and > 0 (got " +
                             std::to_string(config.epsilon0()) + ")");
  }
  if (!ValidSlack(config.delta()) || !ValidSlack(config.delta2()) ||
      config.delta() + config.delta2() >= 1.0 ||
      config.delta2() <= kSpectralFailureProbability) {
    // delta2 also pays the spectral estimate's failure probability
    // (graph/spectral.h), so it must exceed that constant.
    return Status::Error(
        StatusCode::kInvalidDelta,
        "delta and delta2 must each lie in (0, 1) with delta + delta2 < 1 "
        "and delta2 > the spectral failure probability " +
            std::to_string(kSpectralFailureProbability) +
            " (got delta=" + std::to_string(config.delta()) +
            ", delta2=" + std::to_string(config.delta2()) + ")");
  }
  if (!config.allow_non_ergodic()) {
    switch (CheckErgodicity(config.graph())) {
      case Ergodicity::kErgodic:
        break;
      case Ergodicity::kDisconnected:
        return Status::Error(
            StatusCode::kDisconnectedGraph,
            "the graph is disconnected: reports can never mix across "
            "components (SessionConfig::AllowNonErgodic overrides)");
      case Ergodicity::kBipartite:
        return Status::Error(
            StatusCode::kNonErgodicGraph,
            "the graph is bipartite: the walk has no unique stationary limit "
            "(SessionConfig::AllowNonErgodic overrides)");
    }
  }
  if (config.has_payloads()) {
    if (config.payloads().hosted()) {
      // Epoch 0 would run on the arena's backend and every later epoch on
      // the heap; a Session runs on the heap only.
      return Status::Error(
          StatusCode::kInvalidArgument,
          "SetPayloads: the arena is hosted on a storage backend; a Session "
          "runs on the heap (run out-of-core exchanges with StartExchange / "
          "ResumeExchange)");
    }
    // The same invariant BeginEpoch enforces at each per-epoch seal
    // (shuffle/payload.h); the one-shot path is epoch 0 of that lifecycle.
    // Create checks it by injecting the arena into the holdings it adopts.
    const size_t n = config.graph().num_nodes();
    const Status one_per_user =
        holdings != nullptr
            ? InjectHoldings(config.payloads(), n, holdings)
            : config.payloads().ValidateOnePerUser(n);
    if (!one_per_user.ok()) return one_per_user;
  }
  const bool floor_check =
      config.require_mixed_rounds() && config.rounds() > 0;
  if (estimate == nullptr && !floor_check) return Status::Ok();
  const SpectralGapEstimate spectral = EstimateSpectralGap(config.graph());
  if (!config.allow_non_ergodic() && spectral.lambda_upper >= 1.0) {
    // Connected and non-bipartite, so the true gap is positive, but the
    // capped estimate certified none of it: fail closed rather than price
    // the walk at MixingTime's round cap.
    return Status::Error(
        StatusCode::kSpectralGapUncertified,
        "the spectral estimate certified no gap in " +
            std::to_string(spectral.iterations) +
            " Lanczos steps (Ritz lambda " +
            std::to_string(spectral.lambda) + ")");
  }
  if (floor_check) {
    const size_t floor =
        MixingTime(spectral.gap, config.graph().num_nodes());
    if (config.rounds() < floor) {
      return Status::Error(
          StatusCode::kRoundsBelowMixingFloor,
          "fixed rounds " + std::to_string(config.rounds()) +
              " is below the mixing floor alpha^-1 log n = " +
              std::to_string(floor));
    }
  }
  if (estimate != nullptr) *estimate = spectral;
  return Status::Ok();
}

Expected<Session> Session::Create(SessionConfig config) {
  SpectralGapEstimate spectral;
  // Epoch 0's exchange state: Validate's payload check injects configured
  // payloads into its holdings, so they are checked and injected once.
  ExchangeResult state;
  const Status status = ValidateWith(config, &spectral, &state.holdings);
  if (!status.ok()) return status;
  if (config.has_payloads()) {
    PayloadArena payloads = config.ReleasePayloads();
    payloads.Freeze();
    state.payloads = std::make_shared<const PayloadArena>(std::move(payloads));
  } else {
    state = StartExchange(config.graph());
  }
  return Session(std::move(config), spectral, std::move(state));
}

Session::Session(SessionConfig config, const SpectralGapEstimate& spectral,
                 ExchangeResult state)
    : graph_(config.ReleaseGraph()),
      protocol_(config.protocol()),
      epsilon0_(config.epsilon0()),
      mechanism_name_(config.mechanism_name()),
      delta_(config.delta()),
      delta2_(config.delta2()),
      seed_(config.seed()),
      faults_(config.faults()),
      allow_non_ergodic_(config.allow_non_ergodic()),
      require_mixed_rounds_(config.require_mixed_rounds()),
      // graph_ is initialized (and config's graph moved out) above, so the
      // cached population reads the adopted member.
      num_users_(graph_.num_nodes()),
      spectral_(spectral),
      epoch_seed_(config.seed()),
      sync_(std::make_unique<Sync>()) {
  stationary_sum_squares_ = StationarySumSquares(graph_);
  mixing_rounds_ = MixingTime(spectral_.gap, graph_.num_nodes());
  rounds_fixed_ = config.rounds() > 0;
  target_rounds_ = rounds_fixed_ ? config.rounds() : mixing_rounds_;
  state_ = std::move(state);
}

double Session::Gamma() const {
  ns::ReaderMutexLock structure(&sync_->structure);
  return static_cast<double>(graph_.num_nodes()) *
         SumSquaresBound(stationary_sum_squares_, spectral_.gap,
                         target_rounds_);
}

Status Session::Step(size_t k) {
  if (k == 0) {
    return Status::Error(StatusCode::kZeroRounds,
                         "Session::Step(0): advancing zero rounds is a no-op "
                         "the engine rejects; pass k >= 1");
  }
  ns::RoleScope scope(&sync_->mutator, "Session::Step");
  // Shared around the graph/seed reads: the only exclusive takers
  // (BeginEpoch/Rewire) are mutator calls the role already excludes, so
  // this is one uncontended shared acquisition per Step — it exists so the
  // structure-guarded reads below are visible to the static analysis, and
  // it additionally closes the (contract-violating) window where a racing
  // Rewire could swap the graph under a running exchange.
  ns::ReaderMutexLock structure(&sync_->structure);
  ExchangeOptions opts;
  opts.rounds = k;
  opts.first_round = state_.rounds;
  opts.seed = epoch_seed_;
  opts.faults = faults_;
  state_ = ResumeExchange(graph_, std::move(state_), opts, &exchange_ws_);
  // Publish AFTER the exchange lands: a reader that observes the new round
  // count may immediately certify a guarantee at it.
  sync_->progress.store(PackProgress(epoch_, state_.rounds),
                        std::memory_order_release);
  return Status::Ok();
}

Status Session::StepToTarget() {
  // Reads the round/target state the mutator owns, then Steps; the role is
  // acquired inside Step, so here quiescence is asserted instead (fatal if
  // another mutator call is in flight — previously this read was
  // unchecked).
  sync_->AssertQuiescent("Session::StepToTarget");
  if (state_.rounds >= target_rounds_) return Status::Ok();
  return Step(target_rounds_ - state_.rounds);
}

Expected<size_t> Session::StepUntil(double target_epsilon, size_t max_rounds) {
  if (!std::isfinite(target_epsilon) || target_epsilon <= 0.0) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "StepUntil: target_epsilon must be finite and > 0");
  }
  sync_->AssertQuiescent("Session::StepUntil");
  while (state_.rounds < max_rounds &&
         Guarantee().epsilon > target_epsilon) {
    const Status s = Step(1);
    if (!s.ok()) return s;
  }
  return state_.rounds;
}

ProtocolResult Session::Finalize(ReportingProtocol protocol) const {
  // Reads the exchange state the mutator calls own: fatal if one is in
  // flight, and the assert grants the analysis the capabilities the reads
  // below require (see Sync::AssertQuiescent).
  sync_->AssertQuiescent("Session::Finalize");
  return FinalizeProtocol(state_, protocol, epoch_seed_);
}

ProtocolResult Session::Run() {
  const Status s = StepToTarget();
  if (!s.ok()) NETSHUFFLE_FATAL("Session::Run: " + s.ToString());
  return Finalize();
}

Status Session::Ingest(NodeId origin, const uint8_t* data, size_t size) {
  // Bounds-checks against the cached immutable population (num_users_), not
  // the structure-guarded graph_: Rewire only admits same-node-count graphs,
  // so the ingest hot path stays lock-free per report.
  if (static_cast<size_t>(origin) >= num_users_) {
    return Status::Error(
        StatusCode::kPayloadMismatch,
        "Ingest: origin " + std::to_string(origin) + " is outside the " +
            std::to_string(num_users_) + "-user population");
  }
  pending_.Append(origin, data, size);
  return Status::Ok();
}

Status Session::BeginEpoch() {
  ns::RoleScope scope(&sync_->mutator, "Session::BeginEpoch");
  // The next epoch's empty pending arena, built here so nothing allocates
  // under the exclusive lock.
  PayloadArena next_pending;
  // Seal by injecting, on the pool and outside the exclusive lock: the
  // injection reads only the pending arena and the immutable population,
  // and readers never read the exchange state.  On a short epoch or a
  // duplicate origin this returns the typed kPayloadMismatch and the epoch
  // does NOT roll — the pending arena stays mutable (short epochs keep
  // ingesting; duplicates DiscardPending).
  Expected<ExchangeResult> sealed =
      SealExchange(num_users_, &pending_, &exchange_ws_);
  if (!sealed.ok()) return sealed.status();

  // The replaced epoch's state leaves after the exclusive section: its
  // holdings become the workspace's partner store, its arena is released.
  ExchangeResult retired = std::move(sealed).value();
  {
    // Exclusive vs accounting readers: the epoch and its seed change
    // together (rounds restart, fresh streams).  The writer-priority gate
    // that kept a continuous query load from starving this rollover lives
    // inside ns::SharedMutex::WriterLock.  Only O(1) swaps run here.
    ns::WriterMutexLock structure(&sync_->structure);
    ++epoch_;
    // Fresh engine/finalize streams per epoch; epoch 0 keeps seed_ itself
    // so the one-shot path is bit-identical to the pre-epoch engine.
    epoch_seed_ = HashCombine(seed_, static_cast<uint64_t>(epoch_));
    std::swap(state_, retired);
    pending_ = std::move(next_pending);
    sync_->progress.store(PackProgress(epoch_, 0), std::memory_order_release);
  }
  exchange_ws_.Recycle(std::move(retired.holdings));
  return Status::Ok();
}

Status Session::Rewire(Graph graph) {
  ns::RoleScope scope(&sync_->mutator, "Session::Rewire");
  if (graph.num_nodes() != num_users_) {
    return Status::Error(
        StatusCode::kGraphMismatch,
        "Rewire: replacement graph has " + std::to_string(graph.num_nodes()) +
            " nodes, session has " + std::to_string(num_users_));
  }
  // Re-validate with the session's own policy knobs: a fixed rounds target
  // must re-pass the mixing-floor check against the NEW topology when the
  // user opted into RequireMixedRounds.
  SessionConfig probe;
  {
    // Shared only around the target_rounds_ read; the scope closes before
    // the exclusive acquisition below (no shared->exclusive upgrade), and
    // the mutator role keeps any other writer out of the gap.
    ns::ReaderMutexLock structure(&sync_->structure);
    probe.SetGraph(std::move(graph))
        .SetEpsilon0(epsilon0_)
        .SetDeltaSplit(delta_, delta2_)
        .SetRounds(rounds_fixed_ ? target_rounds_ : 0)
        .RequireMixedRounds(require_mixed_rounds_)
        .AllowNonErgodic(allow_non_ergodic_);
  }
  // Spectral work happens OUTSIDE the exclusive lock (it is O(n * walk)):
  // readers keep answering against the old topology until the O(1) swap.
  // Validation's estimate is the one adopted.
  SpectralGapEstimate new_spectral;
  const Status status = ValidateWith(probe, &new_spectral, nullptr);
  if (!status.ok()) return status;
  const double new_sss = StationarySumSquares(probe.graph());
  const size_t new_mixing =
      MixingTime(new_spectral.gap, probe.graph().num_nodes());

  // The replaced graph is freed after the exclusive section.
  Graph retired = probe.ReleaseGraph();
  {
    // Exclusive vs accounting readers, who read every field swapped here
    // (writer-priority: built into ns::SharedMutex, see BeginEpoch).
    ns::WriterMutexLock structure(&sync_->structure);
    std::swap(graph_, retired);
    spectral_ = new_spectral;
    stationary_sum_squares_ = new_sss;
    mixing_rounds_ = new_mixing;
    // A mixing-time rounds policy re-resolves against the new topology; an
    // explicit SetRounds target is the caller's to keep.
    if (!rounds_fixed_) target_rounds_ = mixing_rounds_;
  }
  return Status::Ok();
}

AccountingContext Session::ContextAt(size_t rounds, double epsilon0) const {
  AccountingContext ctx;
  ctx.epsilon0 = epsilon0;
  ctx.n = graph_.num_nodes();
  ctx.rounds = rounds;
  ctx.protocol = protocol_;
  ctx.delta = delta_;
  ctx.delta2 = delta2_;
  ctx.spectral_gap = spectral_.gap;
  ctx.stationary_sum_squares = stationary_sum_squares_;
  return ctx;
}

PrivacyParams Session::RawGuaranteeAt(size_t rounds, double epsilon0) const {
  // Shared vs BeginEpoch/Rewire (which swap the graph/spectral fields this
  // reads) — Step only takes the shared side, so queries overlap stepping
  // freely.  The back-off that kept reader-preferring rwlocks from starving
  // epoch rollovers under continuous query load now lives inside
  // ns::SharedMutex::ReaderLock.
  ns::ReaderMutexLock structure(&sync_->structure);
  return StationaryBoundAccountant().Certify(ContextAt(rounds, epsilon0));
}

PrivacyParams Session::GuaranteeAt(size_t rounds, double epsilon0) const {
  const PrivacyParams raw = RawGuaranteeAt(rounds, epsilon0);
  // An invalid eps0 has no LDP floor to fall back to; raw is then +inf.
  if (!std::isfinite(epsilon0) || epsilon0 <= 0.0) return raw;
  if (!(raw.epsilon < epsilon0)) {
    // The amplification argument certifies nothing beyond the LDP floor,
    // which costs no delta.
    return PrivacyParams{epsilon0, 0.0};
  }
  return raw;
}

}  // namespace netshuffle
