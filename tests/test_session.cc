// Session API coverage: the typed error taxonomy of Session::Create /
// Validate, the rounds policy, pluggable mechanisms, the LDP-floor cap
// across an eps0 sweep, fail-closed per-query eps0, early stopping, and
// rewiring.

#include "core/session.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/accountant.h"
#include "dp/ldp.h"
#include "dp/privunit.h"
#include "graph/generators.h"
#include "graph/spectral.h"
#include "graph/walk.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace netshuffle;

namespace {

Graph SmallExpander(size_t n = 500, size_t k = 8, uint64_t seed = 2022) {
  Rng rng(seed);
  return MakeRandomRegular(n, k, &rng);
}

StatusCode CreateError(SessionConfig config) {
  Expected<Session> result = Session::Create(std::move(config));
  CHECK(!result.ok());
  CHECK(!result.status().message().empty());
  return result.status().code();
}

}  // namespace

int main() {
  // ---- Typed validation errors (satellite: config numerics) ---------------
  {
    // Zero-user graph.
    CHECK(CreateError(SessionConfig()) == StatusCode::kEmptyGraph);

    // epsilon0 <= 0 / non-finite.
    SessionConfig bad_eps;
    bad_eps.SetGraph(SmallExpander()).SetEpsilon0(0.0);
    CHECK(CreateError(std::move(bad_eps)) == StatusCode::kInvalidEpsilon);
    SessionConfig neg_eps;
    neg_eps.SetGraph(SmallExpander()).SetEpsilon0(-1.0);
    CHECK(CreateError(std::move(neg_eps)) == StatusCode::kInvalidEpsilon);
    SessionConfig nan_eps;
    nan_eps.SetGraph(SmallExpander()).SetEpsilon0(std::nan(""));
    CHECK(CreateError(std::move(nan_eps)) == StatusCode::kInvalidEpsilon);

    // Negative, zero, > 1, and jointly-too-large delta splits.
    const std::vector<std::pair<double, double>> bad_splits{
        {-1e-6, 0.5e-6}, {0.5e-6, -1e-6}, {0.0, 0.5e-6},
        {1.5, 0.5e-6},   {0.5e-6, 2.0},   {0.6, 0.6},
        // delta2 must also cover the spectral estimate's failure
        // probability (graph/spectral.h).
        {0.5e-6, kSpectralFailureProbability},
        {0.5e-6, 0.5 * kSpectralFailureProbability}};
    for (const auto& split : bad_splits) {
      SessionConfig bad_delta;
      bad_delta.SetGraph(SmallExpander())
          .SetDeltaSplit(split.first, split.second);
      CHECK(CreateError(std::move(bad_delta)) == StatusCode::kInvalidDelta);
    }

    // Disconnected graph (two components).
    SessionConfig disconnected;
    disconnected.SetGraph(Graph::FromEdges(4, {{0, 1}, {2, 3}}));
    CHECK(CreateError(std::move(disconnected)) ==
          StatusCode::kDisconnectedGraph);

    // Bipartite graph (4-cycle): no unique stationary limit.
    SessionConfig bipartite;
    bipartite.SetGraph(Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}));
    CHECK(CreateError(std::move(bipartite)) == StatusCode::kNonErgodicGraph);

    // The one ergodicity walk from node 0 keeps the old precedence:
    // disconnection wins over bipartiteness wherever node 0 sits.
    SessionConfig lone;
    lone.SetGraph(Graph::FromEdges(1, {}));
    CHECK(CreateError(std::move(lone)) == StatusCode::kNonErgodicGraph);
    SessionConfig stray;
    stray.SetGraph(Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 0}}));
    CHECK(CreateError(std::move(stray)) == StatusCode::kDisconnectedGraph);
    SessionConfig even_then_odd;
    even_then_odd.SetGraph(Graph::FromEdges(
        7, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 4}}));
    CHECK(CreateError(std::move(even_then_odd)) ==
          StatusCode::kDisconnectedGraph);
    SessionConfig odd_cycle;
    odd_cycle.SetGraph(
        Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}));
    CHECK(Session::Create(std::move(odd_cycle)).ok());

    // ... unless explicitly allowed.
    SessionConfig allowed;
    allowed.SetGraph(Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}))
        .AllowNonErgodic();
    CHECK(Session::Create(std::move(allowed)).ok());

    // Payload arena mismatches: wrong report count, out-of-range origin,
    // duplicated origin (a double eps0 spend the accountant cannot see).
    {
      PayloadArena short_arena;
      short_arena.Append(0, Bytes{1});
      SessionConfig short_cfg;
      short_cfg.SetGraph(SmallExpander()).SetPayloads(std::move(short_arena));
      CHECK(CreateError(std::move(short_cfg)) ==
            StatusCode::kPayloadMismatch);

      PayloadArena oor_arena;
      for (NodeId u = 0; u + 1 < 500; ++u) oor_arena.Append(u, Bytes{});
      oor_arena.Append(500, Bytes{});
      SessionConfig oor_cfg;
      oor_cfg.SetGraph(SmallExpander()).SetPayloads(std::move(oor_arena));
      CHECK(CreateError(std::move(oor_cfg)) == StatusCode::kPayloadMismatch);

      PayloadArena dup_arena;
      for (NodeId u = 0; u + 1 < 500; ++u) dup_arena.Append(u, Bytes{});
      dup_arena.Append(7, Bytes{});
      SessionConfig dup_cfg;
      dup_cfg.SetGraph(SmallExpander()).SetPayloads(std::move(dup_arena));
      CHECK(CreateError(std::move(dup_cfg)) == StatusCode::kPayloadMismatch);

      // A well-formed arena is accepted and rides into Finalize.
      PayloadArena good;
      for (NodeId u = 0; u < 500; ++u) good.AppendBucket(u, u % 3);
      SessionConfig good_cfg;
      good_cfg.SetGraph(SmallExpander()).SetPayloads(std::move(good));
      Session with_payloads =
          Session::Create(std::move(good_cfg)).value();
      CHECK(with_payloads.payloads().num_reports() == 500);
      CHECK(with_payloads.payloads().frozen());
      CHECK(with_payloads.Step(3).ok());
      const ProtocolResult fin = with_payloads.Finalize();
      CHECK(fin.payloads != nullptr);
      for (const FinalReport& fr : fin.server_inbox) {
        CHECK(fin.payloads->BucketAt(fr.id) == fr.origin % 3);
      }
    }

    // Fixed rounds below the mixing floor, when enforcement is on.
    SessionConfig shallow;
    shallow.SetGraph(SmallExpander()).SetRounds(1).RequireMixedRounds();
    CHECK(CreateError(std::move(shallow)) ==
          StatusCode::kRoundsBelowMixingFloor);
    SessionConfig deep;
    deep.SetGraph(SmallExpander()).SetRounds(500).RequireMixedRounds();
    CHECK(Session::Create(std::move(deep)).ok());
  }

  // ---- Rounds policy ------------------------------------------------------
  {
    SessionConfig auto_rounds;
    auto_rounds.SetGraph(SmallExpander());
    Session s = Session::Create(std::move(auto_rounds)).value();
    CHECK(s.target_rounds() == s.mixing_rounds());
    CHECK(s.target_rounds() ==
          MixingTime(s.spectral_gap(), s.graph().num_nodes()));
    CHECK(s.current_round() == 0);

    SessionConfig fixed;
    fixed.SetGraph(SmallExpander()).SetRounds(7);
    Session f = Session::Create(std::move(fixed)).value();
    CHECK(f.target_rounds() == 7);

    // Step(0) is the typed zero-rounds error, not a silent no-op.
    CHECK(f.Step(0).code() == StatusCode::kZeroRounds);
    CHECK(f.Step(3).ok());
    CHECK(f.current_round() == 3);
    CHECK(f.StepToTarget().ok());
    CHECK(f.current_round() == 7);
    CHECK(f.StepToTarget().ok());  // no-op past target
    CHECK(f.current_round() == 7);
  }

  // ---- Engine-level zero-round rejection (satellite) ----------------------
  {
    ExchangeOptions zero;
    zero.rounds = 0;
    CHECK(ValidateExchangeOptions(zero).code() == StatusCode::kZeroRounds);
    ExchangeOptions one;
    CHECK(ValidateExchangeOptions(one).ok());

    // The engine aborts rather than silently returning unshuffled holdings;
    // run the violation in a forked child and expect an abnormal exit.
    const pid_t pid = fork();
    CHECK(pid >= 0);
    if (pid == 0) {
      Graph g = SmallExpander(100, 4);
      ExchangeOptions opts;
      opts.rounds = 0;
      (void)RunExchange(g, opts);  // must abort
      _exit(0);                    // reaching here fails the parent's check
    }
    int wstatus = 0;
    CHECK(waitpid(pid, &wstatus, 0) == pid);
    CHECK(!(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0));
  }

  // ---- Capped guarantee never exceeds the (eps0, 0) floor (satellite) -----
  {
    SessionConfig config;
    config.SetGraph(SmallExpander(2000, 8));
    Session s = Session::Create(std::move(config)).value();
    bool saw_floor = false, saw_amplified = false;
    for (double eps0 = 0.25; eps0 <= 20.0; eps0 *= 2.0) {
      const PrivacyParams capped = s.TargetGuarantee(eps0);
      CHECK(std::isfinite(capped.epsilon));
      CHECK(capped.epsilon <= eps0 + 1e-12);
      CHECK(capped.epsilon > 0.0);
      if (capped.epsilon >= eps0 - 1e-12) {
        // At the floor the fallback is the pure (eps0, 0) LDP guarantee.
        CHECK(capped.delta == 0.0);
        saw_floor = true;
      } else {
        CHECK(capped.delta > 0.0);
        saw_amplified = true;
        // The raw theorem value agrees whenever it beats the floor.
        CHECK_NEAR(s.RawGuaranteeAt(s.target_rounds(), eps0).epsilon,
                   capped.epsilon, 1e-12);
      }
    }
    CHECK(saw_floor);       // huge eps0 cannot be amplified
    CHECK(saw_amplified);   // small eps0 must be
    // Before any stepping the current-round guarantee is the floor.
    CHECK_NEAR(s.Guarantee(1.0).epsilon, 1.0, 1e-12);
    CHECK(s.Guarantee(1.0).delta == 0.0);
  }

  // ---- A per-query eps0 that is not finite and > 0 fails closed -----------
  {
    SessionConfig config;
    config.SetGraph(SmallExpander(2000, 8));
    Session s = Session::Create(std::move(config)).value();
    CHECK(s.Step(20).ok());
    const double inf = std::numeric_limits<double>::infinity();
    for (double eps0 : {-1.0, 0.0, std::nan(""), inf}) {
      // +inf certifies nothing: no negative, zero or NaN claim gets out.
      CHECK(s.GuaranteeAt(20, eps0).epsilon == inf);
      CHECK(s.RawGuaranteeAt(20, eps0).epsilon == inf);
      CHECK(s.Guarantee(eps0).epsilon == inf);
      CHECK(s.TargetGuarantee(eps0).epsilon == inf);
    }
    // A valid eps0 on the same session still amplifies.
    CHECK(s.GuaranteeAt(20, 1.0).epsilon < 1.0);
  }

  // ---- Pluggable mechanisms ----------------------------------------------
  {
    KRandomizedResponse rr(4, 1.5);
    LaplaceMechanism lap(0.0, 10.0, 0.75);
    PrivUnit pu(16, 2.5);
    CHECK_NEAR(rr.epsilon0(), 1.5, 1e-12);
    CHECK_NEAR(lap.epsilon0(), 0.75, 1e-12);
    CHECK_NEAR(pu.epsilon0(), 2.5, 1e-12);
    const Mechanism* as_base = &rr;
    CHECK(std::string(as_base->name()) == "k-rr");

    SessionConfig config;
    config.SetGraph(SmallExpander()).SetMechanism(lap);
    Session s = Session::Create(std::move(config)).value();
    CHECK_NEAR(s.epsilon0(), 0.75, 1e-12);
    CHECK(std::string(s.mechanism_name()) == "laplace");
  }

  // ---- Serving lifecycle: ingest -> seal -> exchange -> finalize ----------
  {
    constexpr size_t kN = 400;
    KRandomizedResponse rr(8, 1.0);
    // skip == kN skips nobody.
    const auto fill = [&](Session* s, uint64_t seed, size_t skip) {
      Rng rng(seed);
      for (size_t u = 0; u < kN; ++u) {
        if (u == skip) continue;
        rr.EmitReport(static_cast<NodeId>(u),
                      static_cast<uint32_t>(rng.UniformInt(8)), &rng,
                      s->pending_arena());
      }
    };

    SessionConfig cfg;
    cfg.SetGraph(SmallExpander(kN, 8, 13)).SetMechanism(rr).SetSeed(77);
    Session s = Session::Create(std::move(cfg)).value();
    CHECK(s.epoch() == 0);
    CHECK(s.pending_reports() == 0);

    // A short epoch fails to seal with the typed error, the epoch does NOT
    // roll, and the arena stays mutable: ingesting the missing user and
    // re-sealing succeeds.
    fill(&s, 500, /*skip=*/kN - 1);
    CHECK(s.pending_reports() == kN - 1);
    CHECK(s.BeginEpoch().code() == StatusCode::kPayloadMismatch);
    CHECK(s.epoch() == 0);
    Rng patch_rng(501);
    rr.EmitReport(static_cast<NodeId>(kN - 1), 3, &patch_rng,
                  s.pending_arena());
    CHECK(s.BeginEpoch().ok());
    CHECK(s.epoch() == 1);
    CHECK(s.current_round() == 0);
    CHECK(s.pending_reports() == 0);

    // The new epoch is a real exchange over the streamed payloads.
    CHECK(s.Step(4).ok());
    CHECK(s.current_round() == 4);
    const ProtocolResult inbox = s.FinalizeEpoch();
    CHECK(inbox.server_inbox.size() == kN);
    for (const FinalReport& fr : inbox.server_inbox) {
      CHECK(inbox.payloads->payload(fr.id).size() == sizeof(uint32_t));
    }

    // Ingest rejects an out-of-range origin up front.
    const Bytes junk{1, 2, 3, 4};
    CHECK(s.Ingest(static_cast<NodeId>(kN), junk).code() ==
          StatusCode::kPayloadMismatch);

    // A duplicated origin cannot be repaired by more appends — seal fails,
    // DiscardPending starts the epoch's ingest over.
    fill(&s, 502, kN);
    Rng dup_rng(503);
    rr.EmitReport(0, 1, &dup_rng, s.pending_arena());
    CHECK(s.BeginEpoch().code() == StatusCode::kPayloadMismatch);
    CHECK(s.epoch() == 1);
    s.DiscardPending();
    CHECK(s.pending_reports() == 0);
    fill(&s, 504, kN);
    CHECK(s.BeginEpoch().ok());
    CHECK(s.epoch() == 2);

    // Epoch rollovers are deterministic: an identically-seeded session
    // driven through the same serving schedule produces a bit-identical
    // inbox, and successive epochs draw fresh exchange streams (the same
    // ingest mixes to a different final placement in epoch 2 than it
    // would in epoch 1).
    SessionConfig twin_cfg;
    twin_cfg.SetGraph(SmallExpander(kN, 8, 13)).SetMechanism(rr).SetSeed(77);
    Session twin = Session::Create(std::move(twin_cfg)).value();
    fill(&twin, 500, /*skip=*/kN - 1);
    (void)twin.BeginEpoch();  // short: rejected, just like the original
    Rng twin_patch(501);
    rr.EmitReport(static_cast<NodeId>(kN - 1), 3, &twin_patch,
                  twin.pending_arena());
    CHECK(twin.BeginEpoch().ok());
    CHECK(twin.Step(4).ok());
    const ProtocolResult twin_inbox = twin.FinalizeEpoch();
    CHECK(twin_inbox.server_inbox.size() == inbox.server_inbox.size());
    for (size_t i = 0; i < inbox.server_inbox.size(); ++i) {
      CHECK(twin_inbox.server_inbox[i].id == inbox.server_inbox[i].id);
      CHECK(twin_inbox.server_inbox[i].final_holder ==
            inbox.server_inbox[i].final_holder);
    }
    fill(&twin, 504, kN);
    CHECK(twin.BeginEpoch().ok());
    CHECK(twin.Step(4).ok());
    fill(&s, 504, kN);  // not sealed: pending ingest never perturbs the epoch
    CHECK(s.Step(4).ok());
    const ProtocolResult e2 = s.FinalizeEpoch();
    const ProtocolResult e2_twin = twin.FinalizeEpoch();
    bool any_diff = false;
    for (size_t i = 0; i < e2.server_inbox.size(); ++i) {
      CHECK(e2.server_inbox[i].final_holder ==
            e2_twin.server_inbox[i].final_holder);
      // Same ingest as epoch 1 would have received, different streams.
      if (e2.server_inbox[i].final_holder !=
          inbox.server_inbox[i].final_holder) {
        any_diff = true;
      }
    }
    CHECK(any_diff);
  }

  // ---- A seal that fails on the pool leaves the epoch as it was ----------
  // Two scan parts' worth of users, so at width 4 the injection runs on the
  // pool, outside the exclusive lock, into the workspace's partner store.
  // A short epoch and a duplicated origin both fail with the typed error;
  // the epoch, its round, its guarantee and its holdings are untouched,
  // and the short epoch, patched by one more append, then seals.
  {
    const size_t n = 2 * kMinReportsPerScanPart + 2;
    SetThreadCount(4);
    KRandomizedResponse rr(8, 1.0);
    const auto fill = [&](Session* s, uint64_t seed, size_t count) {
      Rng rng(seed);
      for (size_t u = 0; u < count; ++u) {
        rr.EmitReport(static_cast<NodeId>(u),
                      static_cast<uint32_t>(rng.UniformInt(8)), &rng,
                      s->pending_arena());
      }
    };
    SessionConfig cfg;
    cfg.SetGraph(SmallExpander(n, 4, 19)).SetMechanism(rr).SetSeed(5);
    Session s = Session::Create(std::move(cfg)).value();
    fill(&s, 1, n);
    CHECK(s.BeginEpoch().ok());
    CHECK(s.Step(3).ok());
    const PrivacyParams before = s.Guarantee();
    const ProtocolResult inbox = s.FinalizeEpoch();
    const auto unchanged = [&] {
      CHECK(s.epoch() == 1);
      CHECK(s.current_round() == 3);
      CHECK(s.Guarantee().epsilon == before.epsilon);
      CHECK(s.Guarantee().delta == before.delta);
      const ProtocolResult again = s.FinalizeEpoch();
      CHECK(again.server_inbox.size() == inbox.server_inbox.size());
      for (size_t i = 0; i < inbox.server_inbox.size(); ++i) {
        CHECK(again.server_inbox[i].id == inbox.server_inbox[i].id);
        CHECK(again.server_inbox[i].final_holder ==
              inbox.server_inbox[i].final_holder);
      }
    };

    fill(&s, 2, n - 1);
    const Status short_epoch = s.BeginEpoch();
    CHECK(short_epoch.code() == StatusCode::kPayloadMismatch);
    CHECK(short_epoch.message() ==
          "the payload arena holds " + std::to_string(n - 1) +
              " reports for " + std::to_string(n) +
              " users; the protocol injects exactly one report per user");
    unchanged();
    Rng patch(3);
    rr.EmitReport(static_cast<NodeId>(n - 1), 4, &patch, s.pending_arena());
    CHECK(s.pending_reports() == n);
    CHECK(s.BeginEpoch().ok());
    CHECK(s.epoch() == 2);
    CHECK(s.current_round() == 0);

    // A duplicated origin, on a twin stepped to the same point: the failed
    // seal leaves its epoch-1 holdings equal to the first session's.
    SessionConfig twin_cfg;
    twin_cfg.SetGraph(SmallExpander(n, 4, 19)).SetMechanism(rr).SetSeed(5);
    Session twin = Session::Create(std::move(twin_cfg)).value();
    fill(&twin, 1, n);
    CHECK(twin.BeginEpoch().ok());
    CHECK(twin.Step(3).ok());
    fill(&twin, 4, n - 1);  // user n - 1 missing, user n / 2 twice
    Rng dup_rng(5);
    rr.EmitReport(static_cast<NodeId>(n / 2), 1, &dup_rng,
                  twin.pending_arena());
    const Status dup = twin.BeginEpoch();
    CHECK(dup.code() == StatusCode::kPayloadMismatch);
    CHECK(dup.message() == "origin " + std::to_string(n / 2) +
                               " injects more than one report; the protocol "
                               "(and its accounting) is one report per user");
    CHECK(twin.epoch() == 1);
    CHECK(twin.current_round() == 3);
    CHECK(twin.Guarantee().epsilon == before.epsilon);
    const ProtocolResult twin_inbox = twin.FinalizeEpoch();
    for (size_t i = 0; i < inbox.server_inbox.size(); ++i) {
      CHECK(twin_inbox.server_inbox[i].id == inbox.server_inbox[i].id);
    }
    twin.DiscardPending();
    fill(&twin, 4, n);
    CHECK(twin.BeginEpoch().ok());
    CHECK(twin.epoch() == 2);
    SetThreadCount(0);
  }

  // ---- Early stopping -----------------------------------------------------
  {
    SessionConfig config;
    config.SetGraph(SmallExpander(1000, 8)).SetEpsilon0(1.0);
    Session s = Session::Create(std::move(config)).value();
    CHECK(s.StepUntil(-1.0, 100).status().code() ==
          StatusCode::kInvalidArgument);

    // A target between the asymptote and the floor is reachable early.
    const double target = 0.97;
    Expected<size_t> stopped = s.StepUntil(target, 10 * s.mixing_rounds());
    CHECK(stopped.ok());
    CHECK(stopped.value() == s.current_round());
    CHECK(s.Guarantee().epsilon <= target + 1e-12);
    CHECK(s.current_round() <= 10 * s.mixing_rounds());
  }

  // ---- Rewiring -----------------------------------------------------------
  {
    Rng rng(3);
    SessionConfig config;
    config.SetGraph(SmallExpander(400, 8, 5)).SetEpsilon0(1.0).SetRounds(10);
    Session s = Session::Create(std::move(config)).value();
    CHECK(s.Step(5).ok());

    // Wrong node count and invalid replacements are typed errors.
    CHECK(s.Rewire(MakeRandomRegular(300, 8, &rng)).code() ==
          StatusCode::kGraphMismatch);
    CHECK(s.Rewire(Graph::FromEdges(400, {{0, 1}})).code() ==
          StatusCode::kDisconnectedGraph);
    CHECK(s.current_round() == 5);  // failed rewires change nothing

    // A valid swap keeps the executed rounds, every report, and the
    // caller's EXPLICIT rounds target.
    CHECK(s.Rewire(MakeRandomRegular(400, 6, &rng)).ok());
    CHECK(s.current_round() == 5);
    CHECK(s.target_rounds() == 10);
    CHECK(s.StepToTarget().ok());
    const ProtocolResult result = s.Finalize(ReportingProtocol::kAll);
    CHECK(result.server_inbox.size() == 400);

    // A mixing-time rounds policy re-resolves against the new topology.
    SessionConfig auto_cfg;
    auto_cfg.SetGraph(MakeRandomRegular(400, 4, &rng)).SetEpsilon0(1.0);
    Session a = Session::Create(std::move(auto_cfg)).value();
    CHECK(a.Rewire(MakeRandomRegular(400, 16, &rng)).ok());
    CHECK(a.target_rounds() == a.mixing_rounds());

    // RequireMixedRounds survives rewiring: a fixed target that passed the
    // old graph's floor is re-checked against the slow-mixing replacement.
    SessionConfig strict_cfg;
    strict_cfg.SetGraph(MakeRandomRegular(400, 8, &rng))
        .SetEpsilon0(1.0)
        .SetRounds(500)
        .RequireMixedRounds();
    Session strict = Session::Create(std::move(strict_cfg)).value();
    CHECK(strict.Rewire(MakeCirculant(400, 4)).code() ==
          StatusCode::kRoundsBelowMixingFloor);

    // A session queried before a rewire must afterwards certify exactly
    // what a fresh session on the final topology does.
    const auto regular = [](uint64_t seed) {
      Rng r(seed);
      return MakeRandomRegular(400, 8, &r);
    };
    SessionConfig rewired_cfg;
    rewired_cfg.SetGraph(regular(21)).SetEpsilon0(1.0);
    Session rewired = Session::Create(std::move(rewired_cfg)).value();
    (void)rewired.RawGuaranteeAt(8, 1.0);
    CHECK(rewired.Rewire(regular(22)).ok());
    SessionConfig fresh_cfg;
    fresh_cfg.SetGraph(regular(22)).SetEpsilon0(1.0);
    Session fresh = Session::Create(std::move(fresh_cfg)).value();
    CHECK_NEAR(rewired.RawGuaranteeAt(10, 1.0).epsilon,
               fresh.RawGuaranteeAt(10, 1.0).epsilon, 0.0);
  }

  // ---- Certified spectral estimate: once per graph, fail closed ------------
  {
    // One estimate per Create (also under RequireMixedRounds, whose floor
    // check shares it) and one per Rewire.
    uint64_t before = SpectralEstimateCount();
    SessionConfig plain;
    plain.SetGraph(SmallExpander());
    Session a = Session::Create(std::move(plain)).value();
    CHECK(SpectralEstimateCount() == before + 1);
    before = SpectralEstimateCount();
    SessionConfig strict;
    strict.SetGraph(SmallExpander()).SetRounds(500).RequireMixedRounds();
    Session b = Session::Create(std::move(strict)).value();
    CHECK(SpectralEstimateCount() == before + 1);
    before = SpectralEstimateCount();
    CHECK(b.Rewire(SmallExpander(500, 8, 7)).ok());
    CHECK(SpectralEstimateCount() == before + 1);

    // The accessor exposes the adopted estimate, bit-identical to a direct
    // one on the same graph.
    const SpectralGapEstimate est = b.spectral_estimate();
    const SpectralGapEstimate direct =
        EstimateSpectralGap(SmallExpander(500, 8, 7));
    CHECK(est.converged);
    CHECK(est.iterations == direct.iterations);
    CHECK(est.lambda == direct.lambda);
    CHECK(est.lambda_upper == direct.lambda_upper);
    CHECK(est.gap == b.spectral_gap());
    CHECK(est.gap == 1.0 - est.lambda_upper);
    CHECK(b.mixing_rounds() == MixingTime(est.gap, 500));
    CHECK(a.spectral_estimate().converged);

    // A long odd cycle is connected and non-bipartite, but 300 Lanczos
    // steps certify no gap: Create fails closed instead of pricing the walk
    // at MixingTime's round cap.
    SessionConfig slow;
    slow.SetGraph(MakeCirculant(20001, 2));
    CHECK(CreateError(std::move(slow)) ==
          StatusCode::kSpectralGapUncertified);
    SessionConfig slow_validate;
    slow_validate.SetGraph(MakeCirculant(20001, 2))
        .SetRounds(10)
        .RequireMixedRounds();
    CHECK(Session::Validate(slow_validate).code() ==
          StatusCode::kSpectralGapUncertified);
    // AllowNonErgodic keeps its escape hatch: the zero gap is adopted.
    SessionConfig slow_allowed;
    slow_allowed.SetGraph(MakeCirculant(20001, 2)).AllowNonErgodic();
    Session c = Session::Create(std::move(slow_allowed)).value();
    CHECK(c.spectral_gap() == 0.0);
    CHECK(!c.spectral_estimate().converged);

    // Rewire onto the same graph fails closed and keeps the old topology.
    Rng rng(9);
    SessionConfig big;
    big.SetGraph(MakeRandomRegular(20001, 8, &rng));
    Session d = Session::Create(std::move(big)).value();
    const double gap = d.spectral_gap();
    const size_t target = d.target_rounds();
    CHECK(d.Rewire(MakeCirculant(20001, 2)).code() ==
          StatusCode::kSpectralGapUncertified);
    CHECK(d.spectral_gap() == gap);
    CHECK(d.target_rounds() == target);
  }

  // ---- SetShards accepts only 1 -------------------------------------------
  {
    // A Session runs one exchange path.  SetShards(1) is the default and
    // changes nothing; any other count is refused, typed, at Validate and
    // Create rather than ignored.
    const Graph g = SmallExpander(120, 4);
    auto make_config = [&]() {
      SessionConfig cfg;
      cfg.SetGraph(g).SetRounds(8).SetSeed(777);
      return cfg;
    };
    SessionConfig plain_cfg = make_config();
    SessionConfig one_cfg = make_config();
    one_cfg.SetShards(1);
    CHECK(Session::Validate(one_cfg).ok());
    Expected<Session> plain = Session::Create(plain_cfg);
    Expected<Session> one = Session::Create(one_cfg);
    CHECK(plain.ok());
    CHECK(one.ok());
    CHECK(plain.value().Step(3).ok());
    CHECK(plain.value().Step(5).ok());
    CHECK(one.value().Step(3).ok());
    CHECK(one.value().Step(5).ok());
    const ProtocolResult want = plain.value().Finalize();
    const ProtocolResult got = one.value().Finalize();
    CHECK(got.rounds == want.rounds);
    CHECK(got.server_inbox.size() == want.server_inbox.size());
    for (size_t i = 0; i < want.server_inbox.size(); ++i) {
      CHECK(got.server_inbox[i].id == want.server_inbox[i].id);
      CHECK(got.server_inbox[i].origin == want.server_inbox[i].origin);
      CHECK(got.server_inbox[i].final_holder ==
            want.server_inbox[i].final_holder);
    }
    CHECK(one.value().Guarantee().epsilon == plain.value().Guarantee().epsilon);

    for (size_t shards : {size_t{0}, size_t{2}}) {
      SessionConfig cfg = make_config();
      cfg.SetShards(shards);
      const Status v = Session::Validate(cfg);
      CHECK(v.code() == StatusCode::kInvalidArgument);
      CHECK(v.message().find("accepts only 1") != std::string::npos);
      CHECK(CreateError(cfg) == StatusCode::kInvalidArgument);
    }
  }

  // ---- Resume offset contract --------------------------------------------
  {
    // A first_round that disagrees with the executed rounds would silently
    // desynchronize the RNG streams; the engine aborts instead.
    const pid_t pid = fork();
    CHECK(pid >= 0);
    if (pid == 0) {
      Graph g = SmallExpander(100, 4);
      ExchangeOptions opts;
      opts.rounds = 2;
      ExchangeResult state = StartExchange(g);
      opts.first_round = 5;  // state has executed 0 rounds
      (void)ResumeExchange(g, std::move(state), opts);  // must abort
      _exit(0);
    }
    int wstatus = 0;
    CHECK(waitpid(pid, &wstatus, 0) == pid);
    CHECK(!(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0));
  }

  // ---- Expected semantics -------------------------------------------------
  {
    Expected<int> good(42);
    CHECK(good.ok());
    CHECK(good.value() == 42);
    Expected<int> bad(Status::Error(StatusCode::kInvalidArgument, "nope"));
    CHECK(!bad.ok());
    CHECK(bad.status().code() == StatusCode::kInvalidArgument);
    CHECK(std::string(StatusCodeName(StatusCode::kNonErgodicGraph)) ==
          "kNonErgodicGraph");
    CHECK(Status::Ok().ToString() == "OK");
  }
  return 0;
}
