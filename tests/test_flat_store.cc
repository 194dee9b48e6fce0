// The index-routed exchange (shuffle/store.h ReportId arena + counting-sort
// routing over a columnar shuffle/payload.h PayloadArena) must be
// ELEMENT-IDENTICAL to the protocol's serial schedule: same per-(seed,
// round, user) RNG streams, same canonical ascending-sender order inside
// every destination's slice, and — after mapping each routed id through the
// arena — the same (origin, payload bytes, holder) triples.  The engine is
// compared element-by-element against the scalar reference
// (tests/reference_exchange.h) at NS_THREADS 1 and 4 (and a resumed
// Start/Resume split), with and without faults — under BOTH storage
// backends (DESIGN.md §9): the heap default and the file-backed mmap tier,
// whose mapped columns must be bit-identical to the in-RAM run at every
// thread count.
//
// Also: ReportStore unit checks, the hosted exchange's block accounting (one
// WILLNEED per round at any pool width), and an NS_SCALE-gated 10^6-node
// smoke test pinning the routing buffers' per-user memory bound (~8
// bytes/user since ids replaced 16-byte structs).

#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "bench/experiment_common.h"
#include "graph/generators.h"
#include "shuffle/backend.h"
#include "shuffle/engine.h"
#include "shuffle/fault.h"
#include "tests/reference_exchange.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace netshuffle;
using namespace netshuffle_test;

namespace {

void CheckEquivalence(const Graph& g, size_t rounds, uint64_t seed,
                      const FaultModel* faults,
                      const std::shared_ptr<StorageBackend>& mmap_backend) {
  std::vector<std::vector<ReportId>> ref = ReferenceInit(g.num_nodes());
  for (size_t r = 0; r < rounds; ++r) ReferenceRound(g, r, seed, faults, &ref);
  // Backend axis: the file-backed tier must route to the same slots as the
  // heap tier — the kernels see raw pointers either way.
  for (const std::shared_ptr<StorageBackend>& backend :
       {std::shared_ptr<StorageBackend>(), mmap_backend}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SetThreadCount(threads);
      ExchangeOptions opts;
      opts.rounds = rounds;
      opts.seed = seed;
      opts.faults = faults;
      ExchangeResult whole = ResumeExchange(
          g, StartExchange(g, PatternArena(g.num_nodes(), backend)), opts);
      CHECK(whole.holdings.hosted() == (backend != nullptr));
      CheckIdentical(whole, ref);

      // A resumed split must replay the identical coin schedule.
      ExchangeResult split =
          StartExchange(g, PatternArena(g.num_nodes(), backend));
      ExchangeOptions first = opts;
      first.rounds = rounds / 2 + 1;
      split = ResumeExchange(g, std::move(split), first);
      ExchangeOptions rest = opts;
      rest.rounds = rounds - first.rounds;
      rest.first_round = first.rounds;
      if (rest.rounds > 0) split = ResumeExchange(g, std::move(split), rest);
      CheckIdentical(split, ref);
    }
  }
  SetThreadCount(0);
}

}  // namespace

int main() {
  // ---- ReportStore unit checks --------------------------------------------
  {
    const ReportStore empty;
    CHECK(empty.num_users() == 0);
    CHECK(empty.num_reports() == 0);
    ReportStore store = StartExchange(MakeCirculant(5, 2)).holdings;
    CHECK(store.num_users() == 5);
    CHECK(store.num_reports() == 5);
    for (NodeId u = 0; u < 5; ++u) {
      CHECK(store.count(u) == 1);
      CHECK(store.reports(u).size() == 1);
      CHECK(store.reports(u)[0] == u);
    }
    ReportStore other;
    other.AllocateFor(5, 5);
    store.SwapWith(&other);
    CHECK(other.num_reports() == 5 && other.count(2) == 1);
  }

  // ---- Identity injection (routing-only default arena) --------------------
  {
    Rng rng(3);
    const Graph g = MakeRandomRegular(200, 6, &rng);
    ExchangeOptions opts;
    opts.rounds = 5;
    opts.seed = 7;
    const ExchangeResult ex = RunExchange(g, opts);
    CHECK(ex.payloads != nullptr);
    CHECK(ex.payloads->num_reports() == 200);
    CHECK(ex.payloads->total_payload_bytes() == 0);
    for (ReportId r = 0; r < 200; ++r) {
      CHECK(ex.payloads->origin(r) == r);
      CHECK(ex.payloads->payload(r).empty());
    }
  }

  // ---- Index-routed vs reference element identity -------------------------
  Rng rng(11);
  const Graph regular = MakeRandomRegular(400, 6, &rng);
  const Graph skewed = MakeBarabasiAlbert(300, 3, &rng);
  // Isolated node 6 exercises the deg == 0 keep-in-place path.
  const Graph with_isolated =
      Graph::FromEdges(7, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5},
                           {5, 3}});
  const LazyFaultModel lazy(0.4);

  // One shared backend for every mmap-axis exchange; its tmpdir (and every
  // column file in it) must be gone once the last reference drops.
  Expected<std::shared_ptr<StorageBackend>> backend =
      StorageBackend::Create(StorageBackendConfig{});
  CHECK(backend.ok());

  for (const Graph* g : {&regular, &skewed, &with_isolated}) {
    CheckEquivalence(*g, /*rounds=*/13, /*seed=*/2022, nullptr,
                     backend.value());
    CheckEquivalence(*g, /*rounds=*/13, /*seed=*/2022, &lazy, backend.value());
    CheckEquivalence(*g, /*rounds=*/1, /*seed=*/5, nullptr, backend.value());
  }

  // ---- One WILLNEED per round, whatever the part count ---------------------
  // The hosted exchange advises the whole source arena once per round, so
  // the block accounting cannot grow with the pool width (per-part advice
  // would re-touch every block a part boundary falls in).  4 KB blocks put
  // the 80 KB arena over 20 of them.
  {
    StorageBackendConfig config;
    config.block_bytes = 4096;
    Expected<std::shared_ptr<StorageBackend>> small_blocks =
        StorageBackend::Create(config);
    CHECK(small_blocks.ok());
    const size_t n = 20000, rounds = 3;
    Rng ba_rng(9);
    const Graph g = MakeBarabasiAlbert(n, 4, &ba_rng);
    const uint64_t blocks = (n * sizeof(ReportId) + 4095) / 4096;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      SetThreadCount(threads);
      ExchangeResult start =
          StartExchange(g, PatternArena(n, small_blocks.value()));
      ExchangeOptions opts;
      opts.rounds = rounds;
      opts.seed = 3;
      const StorageIoStats before = small_blocks.value()->stats();
      const ExchangeResult ex = ResumeExchange(g, std::move(start), opts);
      const StorageIoStats after = small_blocks.value()->stats();
      CHECK(ex.holdings.hosted());
      CHECK(after.block_touches - before.block_touches == rounds * blocks);
      CHECK(after.block_bytes_advised - before.block_bytes_advised ==
            rounds * blocks * 4096);
      CHECK(after.logical_bytes_advised - before.logical_bytes_advised ==
            rounds * n * sizeof(ReportId));
    }
    SetThreadCount(0);
  }

  // ---- 10^6-node arena smoke (NS_SCALE-gated) -----------------------------
  // EnvScale() is the canonical knob parser; < 1 (the CI smoke default)
  // skips the million-node test.
  if (EnvScale() >= 1.0) {
    const size_t n = 1000000;
    const Graph big = MakeCirculant(n, 20);
    ExchangeOptions opts;
    opts.rounds = 4;
    opts.seed = 1;
    ExchangeResult ex = RunExchange(big, opts);
    CHECK(ex.holdings.num_users() == n);
    CHECK(ex.holdings.num_reports() == n);  // conserved at scale
    // The index-routing promise: ~8 bytes/user per routing buffer (4 B
    // ReportId + 4 B offset) — the 16-byte report struct no longer rides
    // through the scatter.  Allow a page of slack.
    CHECK(ex.holdings.MemoryBytes() <=
          (sizeof(ReportId) + sizeof(uint32_t)) * n + 4096);
    // The immutable columns cost ~8 bytes/user once (origin + offset; the
    // identity arena carries zero payload bytes) and are never touched by
    // the per-round routing passes.
    CHECK(ex.payloads->MemoryBytes() <=
          (sizeof(NodeId) + sizeof(uint32_t)) * n + 4096);
    size_t spot_total = 0;
    for (NodeId u = 0; u < n; ++u) spot_total += ex.holdings.count(u);
    CHECK(spot_total == n);
  } else {
    std::printf("NS_SCALE < 1: skipping the 10^6-node arena smoke test\n");
  }
  return 0;
}
