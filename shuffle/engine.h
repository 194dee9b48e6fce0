// The network-shuffling exchange engine: every user injects one report, and
// each round every held report takes one random-walk hop to a uniformly
// chosen neighbor of its holder.

#ifndef NETSHUFFLE_SHUFFLE_ENGINE_H_
#define NETSHUFFLE_SHUFFLE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/status.h"
#include "graph/graph.h"
#include "shuffle/fault.h"
#include "shuffle/payload.h"
#include "shuffle/protocol.h"
#include "shuffle/store.h"

namespace netshuffle {

struct ExchangeOptions {
  /// Number of exchange rounds executed by this call.  Must be positive:
  /// the engine has no mixing-time default and rejects 0 with a fatal error
  /// (see ValidateExchangeOptions).  The accountant-driven default — rounds
  /// = 0 meaning "the mixing time alpha^-1 log n" — lives in ONE place:
  /// core/session.h SessionConfig::SetRounds.
  size_t rounds = 1;
  uint64_t seed = 1;
  /// Absolute index of the first round this call executes.  Every coin is
  /// drawn from a stream keyed on (seed, first_round + i, user), so a run
  /// split into Session::Step chunks draws exactly the coins of the
  /// equivalent one-shot run.  RunExchange starts fresh exchanges at 0.
  size_t first_round = 0;
  /// Optional availability model; nullptr = everyone always awake.
  const FaultModel* faults = nullptr;
};

struct ExchangeResult {
  /// Flat routing store: user u's holdings after the last round are the
  /// contiguous ReportId slice holdings.reports(u) (see shuffle/store.h).
  /// Reports are conserved, so holdings.num_reports() == n for the whole
  /// run.
  ReportStore holdings;
  /// The immutable origin/payload columns the routed ids index into
  /// (shuffle/payload.h), frozen at injection and shared with every
  /// ProtocolResult finalized from this state.
  std::shared_ptr<const PayloadArena> payloads;
  /// Total rounds this state has been advanced (across resumed chunks).
  size_t rounds = 0;
};

/// Complexity counters (the paper's Table 3): reports each user sent and
/// the most it held at once.  They measure a run from outside; the engine
/// never writes them.
///
/// The network exchange is measured by Observe-ing its state at round 0
/// and after every later round, one round at a time.  The Table-3
/// baselines (baselines/prochlo.h, baselines/mixnet.h) call the mutators
/// directly.  Not synchronized: one thread observes.
class ShuffleMetrics {
 public:
  explicit ShuffleMetrics(size_t num_users)
      : traffic_(num_users, 0), peak_holdings_(num_users, 0) {}

  /// At state.rounds == 0 (a fresh StartExchange, or the one a new epoch
  /// injects) records every report's holder; the accumulated totals are
  /// kept.  At each later round adds one send to the previous holder of
  /// every report whose holder changed.  Graphs have no self-loops, so a
  /// sent report always changes holder, and an asleep or isolated holder's
  /// reports stay put: the counts are exactly the reports sent.  Either
  /// way the holdings peaks are updated.  Fatal unless state.rounds is 0 or
  /// the last observed round + 1, and on a user or report count other
  /// than the observed exchange's.
  void Observe(const ExchangeResult& state);

  void AddUserTraffic(NodeId u, uint64_t sends) {
    traffic_[BoundsCheck(u, "AddUserTraffic")] += sends;
  }
  void ObserveUserHoldings(NodeId u, size_t held) {
    size_t& peak = peak_holdings_[BoundsCheck(u, "ObserveUserHoldings")];
    if (held > peak) peak = held;
  }
  void ObserveEntityBuffer(size_t buffered) {
    if (buffered > peak_entity_memory_) peak_entity_memory_ = buffered;
  }

  /// Peak reports buffered at any dedicated shuffling entity (0 for the
  /// entity-free network protocol).
  size_t peak_entity_memory() const { return peak_entity_memory_; }
  uint64_t max_user_traffic() const;
  double mean_user_traffic() const;
  /// Peak reports simultaneously held by any single user.
  size_t max_user_memory() const;
  /// Per-user columns: reports sent, and the most held at once.
  const std::vector<uint64_t>& user_traffic() const { return traffic_; }
  const std::vector<size_t>& user_peak_holdings() const {
    return peak_holdings_;
  }

 private:
  size_t BoundsCheck(NodeId u, const char* op) const;

  std::vector<uint64_t> traffic_;
  std::vector<size_t> peak_holdings_;
  size_t peak_entity_memory_ = 0;
  // holder_[r]: report r's holder at the last observation.
  std::vector<NodeId> holder_;
  // The round the next Observe may see besides 0 (0 = none observed yet).
  size_t next_round_ = 0;
};

class ExchangeWorkspace;
namespace engine_internal {
struct PartScratch;  // shuffle/engine.cc
}  // namespace engine_internal

ExchangeResult ResumeExchange(const Graph& g, ExchangeResult prior,
                              const ExchangeOptions& options,
                              ExchangeWorkspace* workspace);

/// Reusable scratch for ResumeExchange (DESIGN.md §4e): the double-buffer
/// partner store plus the per-round routing tables — destination column,
/// bucketed batch columns, one counting row sliced by part, the holder
/// lists the batched hop kernels iterate, and one part scratch (coin/address
/// tiles, batch views) per part.  Hoisted out of the engine so a
/// serving loop stepping one round at a time (Session::Step(1)) pays the
/// O(n) allocation once per session instead of once per call; buffer
/// sizing is idempotent, so the steady state allocates nothing (pinned by
/// an allocation-count regression test in tests/test_session_incremental.cc).
///
/// Purely scratch: no routing decision ever reads workspace contents from a
/// previous round, so reusing one workspace across exchanges (or graphs of
/// different sizes) cannot change results.  Not thread-safe — one workspace
/// per concurrently executing exchange.
class ExchangeWorkspace {
 public:
  ExchangeWorkspace();
  ~ExchangeWorkspace();
  ExchangeWorkspace(const ExchangeWorkspace&) = delete;
  ExchangeWorkspace& operator=(const ExchangeWorkspace&) = delete;
  ExchangeWorkspace(ExchangeWorkspace&&) noexcept;
  ExchangeWorkspace& operator=(ExchangeWorkspace&&) noexcept;

  /// Heap footprint of the scratch buffers (benches report this; the
  /// dominant terms are the ~8 B/user partner store, the 4 B/report
  /// destination column, the 8 B/report batch columns when there is more
  /// than one part, and the 4 B/user counting row).
  size_t MemoryBytes() const;

 private:
  friend ExchangeResult ResumeExchange(const Graph&, ExchangeResult,
                                       const ExchangeOptions&,
                                       ExchangeWorkspace*);

  ReportStore next_;              // double-buffer scatter partner
  std::vector<uint32_t> dests_;   // per-slot destination
  std::vector<ReportId> batch_ids_;    // bucketed batches (parts > 1)
  std::vector<uint32_t> batch_dests_;  // their dests, then claimed slots
  std::vector<uint32_t> counts_;  // n counting/cursor entries
  std::vector<uint32_t> bounds_;  // part user boundaries (parts + 1)
  // Part c's holder list at bounds[c] + c: users holding >= 1 report
  // (ascending), where each one's arena run begins, and a sentinel — the
  // branch-free iteration structure of the batched hop (DESIGN.md §4e).
  std::vector<uint32_t> holder_v_;  // holder user ids (n + parts)
  std::vector<uint32_t> holder_b_;  // holder arena-run starts (n + parts)
  std::vector<engine_internal::PartScratch> parts_;  // per-part scratch
};

/// Typed pre-flight check for the exchange entry points below; they fatal on
/// exactly the configurations this rejects.  Today that is the zero-round
/// footgun (silently returning unshuffled holdings would certify privacy
/// that was never delivered).
Status ValidateExchangeOptions(const ExchangeOptions& options);

/// Injects one report per user (holdings[u] = {u's report id}) over an
/// identity PayloadArena (origin(r) == r, zero payload bytes) — round 0 of
/// an exchange.  Advance the returned state with ResumeExchange.
ExchangeResult StartExchange(const Graph& g);

/// Injection over an explicit payload arena: freezes it, then hands each
/// report id to its origin (holdings[u] = {the id with origin(id) == u}).
/// The protocol injects exactly one report per user, so the arena must hold
/// g.num_nodes() reports whose origins are the users, each once — fatal
/// otherwise (Session::Validate surfaces the same condition as a typed
/// kPayloadMismatch first).
ExchangeResult StartExchange(const Graph& g, PayloadArena payloads);

/// Advances `prior` (from StartExchange or a previous call) by
/// options.rounds further rounds.  options.first_round must equal
/// prior.rounds — that is what makes the incremental run bit-identical to a
/// one-shot RunExchange over the combined rounds.  Fatal on
/// options.rounds == 0 and on a first_round/prior mismatch (a wrong offset
/// would silently draw coins from the wrong per-round streams).
///
/// This overload allocates its scratch internally; incremental callers
/// (Session::Step) pass a persistent ExchangeWorkspace to the 4-argument
/// overload above so repeated short calls reuse the routing tables.
/// Results are bit-identical either way.
ExchangeResult ResumeExchange(const Graph& g, ExchangeResult prior,
                              const ExchangeOptions& options);

/// Runs a fresh report exchange (StartExchange + ResumeExchange).  Reports
/// are conserved: every one of the n injected reports is held by exactly one
/// user afterwards.  Fatal on options.rounds == 0.
ExchangeResult RunExchange(const Graph& g, const ExchangeOptions& options);

/// Applies a reporting protocol to finished holdings, producing the
/// curator's inbox.  Read-only on the exchange state, so mid-run audits can
/// finalize repeatedly without copying it.
ProtocolResult FinalizeProtocol(const ExchangeResult& exchange,
                                ReportingProtocol protocol, uint64_t seed);

/// RunExchange + FinalizeProtocol.
ProtocolResult RunProtocol(const Graph& g, ReportingProtocol protocol,
                           const ExchangeOptions& options);

}  // namespace netshuffle

#endif  // NETSHUFFLE_SHUFFLE_ENGINE_H_
