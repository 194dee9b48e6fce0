// The one reference oracle every differential test pins the exchange
// engine against (tests/test_kernel_differential.cc, test_flat_store.cc,
// and test_engine.cc for the traffic observer): a naive scalar
// implementation of the protocol's injection, of its round schedule and
// of its finalize step, plus the patterned
// payloads, the round-by-round observed run and the element-by-element
// comparisons the tests share.
//
// The schedule, kept deliberately naive: users in ascending order, one fresh
// Rng per (seed, round, user), the Awake coin before any destination draw,
// one UniformInt(degree) per held report in holding order, push_back into
// per-destination vectors.  Ascending-user push order IS the engine's
// canonical ascending-(part, sender) placement for contiguous parts, so the
// two layouts must match slot for slot.

#ifndef NETSHUFFLE_TESTS_REFERENCE_EXCHANGE_H_
#define NETSHUFFLE_TESTS_REFERENCE_EXCHANGE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "shuffle/backend.h"
#include "shuffle/engine.h"
#include "shuffle/fault.h"
#include "shuffle/payload.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace netshuffle_test {

using netshuffle::Bytes;
using netshuffle::ExchangeResult;
using netshuffle::FaultModel;
using netshuffle::Graph;
using netshuffle::NodeId;
using netshuffle::PayloadArena;
using netshuffle::ReportId;
using netshuffle::StorageBackend;

/// Variable-length patterned payload for user u: (u % 5) bytes keyed on u,
/// so an id swapped for a neighbor's changes both the origin column and the
/// payload bytes the comparison reads back.
inline Bytes PatternPayload(NodeId u) {
  Bytes b;
  for (size_t i = 0; i < u % 5; ++i) {
    b.push_back(static_cast<uint8_t>((u * 131 + i * 17) & 0xff));
  }
  return b;
}

/// One PatternPayload row per user, origin(u) == u.  `backend` null = heap;
/// non-null = file-backed on that backend (the storage axis: same rows,
/// different tier).
inline PayloadArena PatternArena(
    size_t n, const std::shared_ptr<StorageBackend>& backend = nullptr) {
  PayloadArena arena;
  if (backend != nullptr) {
    netshuffle::Expected<PayloadArena> hosted =
        PayloadArena::Hosted(backend);
    CHECK(hosted.ok());
    arena = std::move(hosted).value();
  }
  for (NodeId u = 0; u < n; ++u) {
    CHECK(arena.Append(u, PatternPayload(u)) == u);
  }
  return arena;
}

/// One row per entry of `origins`: report r has origin origins[r] and
/// PatternPayload(origins[r])'s bytes, heap or file-backed like
/// PatternArena.  Origins may repeat or fall outside any population.
inline PayloadArena ArenaFromOrigins(
    const std::vector<NodeId>& origins,
    const std::shared_ptr<StorageBackend>& backend = nullptr) {
  PayloadArena arena;
  if (backend != nullptr) {
    netshuffle::Expected<PayloadArena> hosted =
        PayloadArena::Hosted(backend);
    CHECK(hosted.ok());
    arena = std::move(hosted).value();
  }
  for (const NodeId o : origins) arena.Append(o, PatternPayload(o));
  return arena;
}

/// The serial seal every PayloadArena::InjectOnePerUser is pinned against:
/// the report count first, then one pass over the reports in order with a
/// seen-origin bitmap, writing report r into (*slots)[origin(r)] and
/// stopping at the first origin outside the population or seen before.
/// The messages are the typed errors' exact text.
inline netshuffle::Status ReferenceInject(const PayloadArena& arena, size_t n,
                                          std::vector<ReportId>* slots) {
  using netshuffle::Status;
  using netshuffle::StatusCode;
  if (arena.num_reports() != n) {
    return Status::Error(
        StatusCode::kPayloadMismatch,
        "the payload arena holds " + std::to_string(arena.num_reports()) +
            " reports for " + std::to_string(n) +
            " users; the protocol injects exactly one report per user");
  }
  slots->assign(n, 0);
  std::vector<bool> seen(n, false);
  for (ReportId r = 0; r < n; ++r) {
    const NodeId o = arena.origin(r);
    if (o >= n) {
      return Status::Error(
          StatusCode::kPayloadMismatch,
          "report " + std::to_string(r) + " has origin " + std::to_string(o) +
              " outside the " + std::to_string(n) + "-user population");
    }
    if (seen[o]) {
      return Status::Error(
          StatusCode::kPayloadMismatch,
          "origin " + std::to_string(o) + " injects more than one report; "
              "the protocol (and its accounting) is one report per user");
    }
    seen[o] = true;
    (*slots)[o] = r;
  }
  return Status::Ok();
}

/// Round 0: every user holds its own report.
inline std::vector<std::vector<ReportId>> ReferenceInit(size_t n) {
  std::vector<std::vector<ReportId>> holdings(n);
  for (NodeId u = 0; u < n; ++u) holdings[u].push_back(u);
  return holdings;
}

/// One round of the scalar schedule (see the file comment).  `sends`, when
/// non-null, counts each user's sent reports: all it holds when it is awake
/// and has a neighbor.
inline void ReferenceRound(const Graph& g, size_t round, uint64_t seed,
                           const FaultModel* faults,
                           std::vector<std::vector<ReportId>>* holdings,
                           std::vector<uint64_t>* sends = nullptr) {
  const size_t n = g.num_nodes();
  std::vector<std::vector<ReportId>> next(n);
  for (NodeId u = 0; u < n; ++u) {
    const std::vector<ReportId>& held = (*holdings)[u];
    if (held.empty()) continue;
    netshuffle::Rng rng(netshuffle::ExchangeStreamSeed(seed, round, u));
    const size_t deg = g.degree(u);
    const bool awake = faults == nullptr || faults->Awake(u, round, &rng);
    if (!awake || deg == 0) {
      for (ReportId id : held) next[u].push_back(id);
      continue;
    }
    if (sends != nullptr) (*sends)[u] += held.size();
    const NodeId* nbr = g.neighbors_begin(u);
    for (ReportId id : held) next[nbr[rng.UniformInt(deg)]].push_back(id);
  }
  holdings->swap(next);
}

/// A fresh exchange of options.rounds rounds (options.first_round is
/// ignored), stepped one round at a time on one workspace with `metrics`
/// observing round 0 and every round after it — how a caller measures
/// Table 3's traffic.  Holdings equal RunExchange(g, options)'s.
inline ExchangeResult ObservedExchange(const Graph& g,
                                       netshuffle::ExchangeOptions options,
                                       netshuffle::ShuffleMetrics* metrics) {
  const size_t rounds = options.rounds;
  ExchangeResult state = netshuffle::StartExchange(g);
  metrics->Observe(state);
  netshuffle::ExchangeWorkspace workspace;
  options.rounds = 1;
  for (size_t r = 0; r < rounds; ++r) {
    options.first_round = r;
    state = netshuffle::ResumeExchange(g, std::move(state), options,
                                       &workspace);
    metrics->Observe(state);
  }
  return state;
}

/// The serial finalize every FinalizeProtocol inbox is pinned against:
/// users in ascending order, each submitting every held report (kAll) or
/// one drawn from a single sequential Rng (kSingle), empty holders counted
/// as dummies.
inline netshuffle::ProtocolResult ReferenceFinalize(
    const ExchangeResult& exchange, netshuffle::ReportingProtocol protocol,
    uint64_t seed) {
  using netshuffle::FinalReport;
  netshuffle::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  netshuffle::ProtocolResult out;
  out.rounds = exchange.rounds;
  out.payloads = exchange.payloads;
  const netshuffle::ReportStore& store = exchange.holdings;
  const PayloadArena& arena = *exchange.payloads;
  out.server_inbox.reserve(store.num_users());

  for (NodeId u = 0; u < store.num_users(); ++u) {
    const netshuffle::ReportSpan held = store.reports(u);
    if (held.empty()) {
      ++out.dummy_reports;
      continue;
    }
    if (protocol == netshuffle::ReportingProtocol::kAll) {
      for (const ReportId id : held) {
        out.server_inbox.push_back(FinalReport{id, arena.origin(id), u});
      }
    } else {
      const ReportId id = held[rng.UniformInt(held.size())];
      out.server_inbox.push_back(FinalReport{id, arena.origin(id), u});
      out.dropped_reports += held.size() - 1;
    }
  }
  return out;
}

/// Element-identical: same id in every slot of every user's slice, and the
/// id resolves to the same (origin, payload bytes) through the arena.
/// Expects a PatternArena-injected exchange.
inline void CheckIdentical(const ExchangeResult& ex,
                           const std::vector<std::vector<ReportId>>& ref) {
  CHECK(ex.holdings.num_users() == ref.size());
  const PayloadArena& arena = *ex.payloads;
  for (NodeId u = 0; u < ref.size(); ++u) {
    const netshuffle::ReportSpan span = ex.holdings.reports(u);
    CHECK(span.size() == ref[u].size());
    for (size_t i = 0; i < span.size(); ++i) {
      CHECK(span[i] == ref[u][i]);
      CHECK(arena.origin(span[i]) == ref[u][i]);
      CHECK(arena.payload(span[i]).ToBytes() == PatternPayload(ref[u][i]));
    }
  }
}

/// Two finalized inboxes are identical: same rounds and dummy/drop counts,
/// and the same (id, origin, final holder, payload bytes) in every slot.
inline void CheckSameInbox(const netshuffle::ProtocolResult& a,
                           const netshuffle::ProtocolResult& b) {
  CHECK(a.rounds == b.rounds);
  CHECK(a.dummy_reports == b.dummy_reports);
  CHECK(a.dropped_reports == b.dropped_reports);
  CHECK(a.server_inbox.size() == b.server_inbox.size());
  for (size_t i = 0; i < a.server_inbox.size(); ++i) {
    CHECK(a.server_inbox[i].id == b.server_inbox[i].id);
    CHECK(a.server_inbox[i].origin == b.server_inbox[i].origin);
    CHECK(a.server_inbox[i].final_holder == b.server_inbox[i].final_holder);
    CHECK(a.payloads->payload(a.server_inbox[i].id).ToBytes() ==
          b.payloads->payload(b.server_inbox[i].id).ToBytes());
  }
}

/// Star on n users: hub 0, leaves 1..n-1.
inline Graph MakeStar(size_t n) {
  std::vector<netshuffle::Edge> edges;
  for (NodeId leaf = 1; leaf < n; ++leaf) edges.push_back({0, leaf});
  return Graph::FromEdges(n, std::move(edges));
}

}  // namespace netshuffle_test

#endif  // NETSHUFFLE_TESTS_REFERENCE_EXCHANGE_H_
