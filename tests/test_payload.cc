// The columnar PayloadArena (shuffle/payload.h) and the narrowing /
// bounds hardening of the index-routed stores:
//  - arena unit checks: append/freeze semantics, typed encode/decode round
//    trips, origins, offsets, memory accounting;
//  - death tests: write-after-freeze, out-of-range ReportId / NodeId access
//    on PayloadArena and ReportStore, and the CheckedNarrow32 guard;
//  - protocol accounting over VARIABLE-LENGTH payloads: kAll delivers the
//    injected byte slices exactly (multiset equality), kSingle delivers a
//    sub-multiset with dummies + drops accounting for every user and every
//    report.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/generators.h"
#include "shuffle/engine.h"
#include "shuffle/payload.h"
#include "shuffle/store.h"
#include "tests/test_util.h"
#include "util/rng.h"

using namespace netshuffle;
using netshuffle_test::ExpectDeath;

namespace {

Bytes VariablePayload(NodeId u) {
  // 1..7 bytes, content keyed on u so no two users share a slice.
  Bytes b;
  for (size_t i = 0; i <= u % 7; ++i) {
    b.push_back(static_cast<uint8_t>((u * 131 + i * 17) & 0xff));
  }
  return b;
}

}  // namespace

int main() {
  // ---- Arena unit checks ---------------------------------------------------
  {
    PayloadArena arena;
    CHECK(arena.num_reports() == 0);
    CHECK(arena.total_payload_bytes() == 0);
    CHECK(!arena.frozen());

    const ReportId a = arena.Append(3, Bytes{1, 2, 3});
    const ReportId b = arena.Append(1, Bytes{});       // zero-length is legal
    const ReportId c = arena.AppendScalar(0, -2.5);
    const ReportId d = arena.AppendBucket(2, 77u);
    const ReportId e = arena.AppendVector(4, {1.0, -0.5, 3.25});
    CHECK(a == 0 && b == 1 && c == 2 && d == 3 && e == 4);
    CHECK(arena.num_reports() == 5);

    CHECK(arena.origin(a) == 3);
    CHECK(arena.origin(b) == 1);
    CHECK(arena.payload(a).ToBytes() == (Bytes{1, 2, 3}));
    CHECK(arena.payload(b).empty());
    CHECK(arena.payload_size(c) == sizeof(double));
    CHECK(arena.ScalarAt(c) == -2.5);
    CHECK(arena.BucketAt(d) == 77u);
    const std::vector<double> v = arena.VectorAt(e);
    CHECK(v.size() == 3 && v[0] == 1.0 && v[1] == -0.5 && v[2] == 3.25);
    CHECK(arena.total_payload_bytes() == 3 + 0 + 8 + 4 + 24);
    CHECK(arena.MemoryBytes() >= arena.total_payload_bytes());

    // Freeze seals the arena; reads keep working.
    arena.Freeze();
    CHECK(arena.frozen());
    CHECK(arena.origin(e) == 4);

    // Identity arena: origin(r) == r, zero payload bytes, pre-frozen.
    const PayloadArena ident = PayloadArena::Identity(6);
    CHECK(ident.frozen());
    CHECK(ident.num_reports() == 6);
    CHECK(ident.total_payload_bytes() == 0);
    for (ReportId r = 0; r < 6; ++r) {
      CHECK(ident.origin(r) == r);
      CHECK(ident.payload(r).empty());
    }
  }

  // ---- Death tests: write-once, bounds, checked narrowing -----------------
  {
    // Append after Freeze violates write-once.
    ExpectDeath([] {
      PayloadArena arena;
      arena.Append(0, Bytes{1});
      arena.Freeze();
      arena.Append(1, Bytes{2});
    });
    // Out-of-range ReportId reads.
    ExpectDeath([] {
      PayloadArena arena;
      arena.Append(0, Bytes{1});
      (void)arena.origin(1);
    });
    ExpectDeath([] {
      PayloadArena arena;
      (void)arena.payload(0);
    });
    // Typed decode on a mismatched slice size.
    ExpectDeath([] {
      PayloadArena arena;
      arena.Append(0, Bytes{1, 2});
      (void)arena.ScalarAt(0);
    });
    ExpectDeath([] {
      PayloadArena arena;
      arena.Append(0, Bytes{1, 2, 3});
      (void)arena.VectorAt(0);
    });
    // ReportStore out-of-range NodeId on count()/reports().
    ExpectDeath([] {
      ReportStore store;
      store.AllocateFor(4, 4);
      (void)store.count(4);
    });
    ExpectDeath([] {
      ReportStore store;
      store.AllocateFor(4, 4);
      (void)store.reports(17);
    });
    ExpectDeath([] {
      ReportStore store;  // empty: every id is out of range
      (void)store.count(0);
    });
    // The checked-narrow guard itself.
    ExpectDeath([] {
      (void)CheckedNarrow32(size_t{1} << 33, "test quantity");
    });
    CHECK(CheckedNarrow32(0xffffffffULL, "max") == 0xffffffffu);
    // StartExchange rejects an arena whose report count mismatches n.
    ExpectDeath([] {
      PayloadArena arena;
      arena.Append(0, Bytes{1});
      (void)StartExchange(MakeCirculant(5, 2), std::move(arena));
    });
    // ... an out-of-range origin ...
    ExpectDeath([] {
      PayloadArena arena;
      for (NodeId u = 0; u < 4; ++u) arena.Append(u, Bytes{});
      arena.Append(9, Bytes{});
      (void)StartExchange(MakeCirculant(5, 2), std::move(arena));
    });
    // ... and a duplicated origin (one user would spend its eps0 budget
    // twice; the accountants assume one report per user).
    ExpectDeath([] {
      PayloadArena arena;
      for (NodeId u = 0; u < 4; ++u) arena.Append(u, Bytes{});
      arena.Append(3, Bytes{});
      (void)StartExchange(MakeCirculant(5, 2), std::move(arena));
    });
    // Injection is a permutation: each report lands in its origin's slot,
    // whatever order the users appended in.
    PayloadArena reversed;
    for (NodeId r = 0; r < 5; ++r) reversed.Append(4 - r, Bytes{});
    const ExchangeResult injected =
        StartExchange(MakeCirculant(5, 2), std::move(reversed));
    CHECK(injected.rounds == 0);
    for (NodeId u = 0; u < 5; ++u) {
      CHECK(injected.holdings.count(u) == 1);
      CHECK(injected.holdings.reports(u)[0] == 4 - u);
    }
  }

  // ---- Protocol accounting over variable-length payloads ------------------
  {
    const size_t n = 600, rounds = 18;
    Rng rng(13);
    const Graph g = MakeRandomRegular(n, 8, &rng);

    PayloadArena arena;
    std::vector<Bytes> injected;
    for (NodeId u = 0; u < n; ++u) {
      injected.push_back(VariablePayload(u));
      arena.Append(u, injected.back());
    }
    ExchangeOptions opts;
    opts.rounds = rounds;
    opts.seed = 99;
    const ExchangeResult ex =
        ResumeExchange(g, StartExchange(g, std::move(arena)), opts);

    std::vector<Bytes> sorted_injected = injected;
    std::sort(sorted_injected.begin(), sorted_injected.end());

    // kAll: the delivered byte slices are EXACTLY the injected multiset.
    {
      const ProtocolResult all =
          FinalizeProtocol(ex, ReportingProtocol::kAll, 1);
      CHECK(all.server_inbox.size() == n);
      CHECK(all.dropped_reports == 0);
      std::vector<Bytes> delivered;
      for (const FinalReport& fr : all.server_inbox) {
        CHECK(all.payloads->origin(fr.id) == fr.origin);
        delivered.push_back(all.payloads->payload(fr.id).ToBytes());
        // Round trip: the slice is byte-for-byte what the origin injected.
        CHECK(delivered.back() == injected[fr.origin]);
      }
      std::sort(delivered.begin(), delivered.end());
      CHECK(delivered == sorted_injected);
      size_t holders = 0;
      for (NodeId u = 0; u < n; ++u) holders += ex.holdings.count(u) > 0;
      CHECK(all.dummy_reports == n - holders);
    }

    // kSingle: one submission per holding user; dummies cover empty
    // holders, drops cover the surplus, and the delivered slices are a
    // sub-multiset of the injected ones.
    {
      const ProtocolResult single =
          FinalizeProtocol(ex, ReportingProtocol::kSingle, 1);
      size_t holders = 0;
      for (NodeId u = 0; u < n; ++u) holders += ex.holdings.count(u) > 0;
      CHECK(single.server_inbox.size() == holders);
      CHECK(single.server_inbox.size() + single.dummy_reports == n);
      CHECK(single.server_inbox.size() + single.dropped_reports == n);
      CHECK(single.dummy_reports > 0);   // Poisson(1)-ish occupancy
      CHECK(single.dropped_reports > 0);
      std::vector<bool> seen(n, false);
      std::vector<Bytes> delivered;
      for (const FinalReport& fr : single.server_inbox) {
        CHECK(!seen[fr.origin]);  // no duplication, ever
        seen[fr.origin] = true;
        delivered.push_back(single.payloads->payload(fr.id).ToBytes());
        CHECK(delivered.back() == injected[fr.origin]);
      }
      // Sub-multiset: delivered + (slices of undelivered origins) ==
      // injected.
      for (NodeId u = 0; u < n; ++u) {
        if (!seen[u]) delivered.push_back(injected[u]);
      }
      std::sort(delivered.begin(), delivered.end());
      CHECK(delivered == sorted_injected);
    }
  }
  return 0;
}
