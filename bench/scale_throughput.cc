// Scale study — the index-routed double-buffered exchange at paper-scale
// populations (ROADMAP north star: millions of users).  Sweeps
// n in {10^4, 10^5, 10^6} (scaled by NS_SCALE) on 20-regular and
// Barabasi-Albert (m = 10) graphs, runs t = mixing-time rounds through the
// counting-sort routing pass, and reports exchange throughput
// (reports routed per second) plus peak RSS per row.
//
// The reproduced claim is architectural: no shuffler entity and O(1)-ish
// per-user state means the simulator's footprint stays a small constant per
// user all the way to n = 10^6.  Since DESIGN.md §4d the scatter moves a
// 4-byte ReportId per report per round (~8 bytes/user per routing buffer in
// shuffle/store.h) while the immutable origin/payload columns sit untouched
// in the PayloadArena — the checked-in bench/baseline_scale.json pins the
// PR 4 struct-routing throughput, and CI's scale job fails on a > 20% drop
// (tools/perf_gate.py).
//
// Out-of-core mode (NS_BACKEND=mmap, DESIGN.md §9): one big run — n = 10^6
// x NS_SCALE users with 128-byte payloads on a degree-4 circulant — with
// every column file-backed, so the box provides RAM for the graph and the
// engine scratch while the ~152 B/user of population state lives in mmap'd
// files.  Reports throughput, the mmap phase's peak RSS (asserted under
// NS_RSS_BUDGET_MB, which must itself be below what the in-RAM columns
// would need — otherwise the assertion is vacuous and the run fails),
// bytes-moved/user and read amplification from the backend's block
// accounting, and verifies the final holdings BIT-IDENTICAL to an in-RAM
// exchange plus a sampled payload read-back.  Emits
// BENCH_scale_throughput_mmap.json, gated by bench/baseline_scale_mmap.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "experiment_common.h"
#include "graph/generators.h"
#include "graph/spectral.h"
#include "shuffle/backend.h"
#include "shuffle/engine.h"
#include "util/rng.h"
#include "util/table.h"

using namespace netshuffle;

namespace {

// ---- Out-of-core sweep ------------------------------------------------------

constexpr size_t kMmapPayloadBytes = 128;
constexpr size_t kMmapRounds = 12;

/// Deterministic per-report payload byte, recomputed during the sampled
/// read-back so disk round-tripping is verified against ground truth, not
/// against a second copy of the same buffer.
uint8_t PatternByte(size_t r, size_t i) {
  return static_cast<uint8_t>((r * 131) + (i * 7) + 13);
}

/// NS_RSS_BUDGET_MB: hard cap (MB) asserted against the mmap phase's peak
/// RSS.  Unset or 0 = report but do not assert (local exploration); CI's
/// out-of-core smoke always sets it.
double EnvRssBudgetMb() {
  const char* s = std::getenv("NS_RSS_BUDGET_MB");
  if (s == nullptr || *s == '\0') return 0.0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v > 0.0)) {
    std::fprintf(stderr,
                 "NS_RSS_BUDGET_MB='%s' is not a positive MB count; "
                 "disabling the budget assertion\n",
                 s);
    return 0.0;
  }
  return v;
}

/// FNV-1a over the holdings columns: any single-bit routing divergence
/// between the backends flips it.
uint64_t HoldingsChecksum(const ReportStore& store) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const uint8_t* p, size_t bytes) {
    for (size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  mix(reinterpret_cast<const uint8_t*>(store.offsets_data()),
      (store.num_users() + 1) * sizeof(uint32_t));
  mix(reinterpret_cast<const uint8_t*>(store.arena_data()),
      store.num_reports() * sizeof(ReportId));
  return h;
}

int RunOutOfCore(double scale) {
  BenchRunner bench("scale_throughput_mmap");
  bench.SetAccountant("none");
  const size_t n =
      std::max<size_t>(100000, static_cast<size_t>(1e6 * scale));
  const double budget_mb = EnvRssBudgetMb();
  // What the same exchange costs resident in-RAM: two 8 B/user routing
  // buffers plus the origins/offsets/payload columns.
  const double inram_equivalent_mb =
      static_cast<double>(n) *
      (2.0 * 8.0 + 4.0 + 4.0 + static_cast<double>(kMmapPayloadBytes)) /
      (1024.0 * 1024.0);
  std::printf(
      "Out-of-core scale study: file-backed exchange at n=%zu, %zu-byte "
      "payloads, %zu rounds (threads=%zu)\n"
      "in-RAM equivalent for these columns: %.0f MB; RSS budget: %.0f MB%s\n\n",
      n, kMmapPayloadBytes, kMmapRounds, EnvThreads(), inram_equivalent_mb,
      budget_mb, budget_mb > 0.0 ? "" : " (unset: not asserted)");

  if (budget_mb > 0.0 && budget_mb >= inram_equivalent_mb) {
    // A budget the in-RAM columns would fit under proves nothing about the
    // out-of-core tier; refuse to certify a vacuous assertion.
    std::fprintf(stderr,
                 "NS_RSS_BUDGET_MB=%.0f is not below the in-RAM equivalent "
                 "%.0f MB at n=%zu: the budget assertion would be vacuous; "
                 "raise NS_SCALE or lower the budget\n",
                 budget_mb, inram_equivalent_mb, n);
    bench.MarkFailed();
    return 1;
  }

  // Degree-4 circulant: deterministic, O(n) to build, and small enough
  // (~40 B/user of CSR) that the mapped columns — not the graph — dominate
  // the in-RAM equivalent.
  Graph g = MakeCirculant(n, 4);

  StorageBackendConfig storage;
  storage.kind = StorageBackendKind::kMmap;
  auto backend_or = StorageBackend::Create(storage);
  if (!backend_or.ok()) {
    std::fprintf(stderr, "backend: %s\n",
                 backend_or.status().ToString().c_str());
    bench.MarkFailed();
    return 1;
  }
  std::shared_ptr<StorageBackend> backend = std::move(backend_or).value();

  // Injection: stream one 128-byte pattern report per user to disk.
  const auto inject_start = std::chrono::steady_clock::now();
  auto arena_or = PayloadArena::Hosted(backend);
  if (!arena_or.ok()) {
    std::fprintf(stderr, "arena: %s\n", arena_or.status().ToString().c_str());
    bench.MarkFailed();
    return 1;
  }
  PayloadArena arena = std::move(arena_or).value();
  {
    uint8_t buf[kMmapPayloadBytes];
    for (size_t r = 0; r < n; ++r) {
      for (size_t i = 0; i < kMmapPayloadBytes; ++i) {
        buf[i] = PatternByte(r, i);
      }
      arena.Append(static_cast<NodeId>(r), buf, sizeof(buf));
    }
  }
  const double inject_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    inject_start)
          .count();

  // The exchange proper, every column file-backed.
  ExchangeOptions opts;
  opts.rounds = kMmapRounds;
  opts.seed = 7;
  const auto start = std::chrono::steady_clock::now();
  ExchangeResult ex = ResumeExchange(g, StartExchange(g, std::move(arena)),
                                     opts);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Sample the high-water mark NOW: everything up to here is the out-of-core
  // phase.  The in-RAM verification exchange below legitimately uses more
  // (that is the point of the comparison), so the budget is asserted against
  // this sample, not the process-final VmHWM.
  const double mmap_rss_mb = PeakRssMb();
  const StorageIoStats io = backend->stats();
  const double routed = static_cast<double>(n) * static_cast<double>(kMmapRounds);
  const double rps = wall > 0.0 ? routed / wall : 0.0;
  const double bytes_moved_per_user =
      static_cast<double>(io.bytes_written + io.block_bytes_advised) /
      static_cast<double>(n);
  const double disk_mb =
      static_cast<double>(ex.payloads->DiskBytes() +
                          ex.holdings.FileBytes()) /
      (1024.0 * 1024.0);

  if (!ex.holdings.hosted() || ex.payloads == nullptr ||
      !ex.payloads->hosted()) {
    std::fprintf(stderr, "out-of-core run was not file-backed end to end\n");
    bench.MarkFailed();
    return 1;
  }
  if (ex.holdings.num_reports() != n) {
    std::fprintf(stderr, "report conservation violated at n=%zu\n", n);
    bench.MarkFailed();
    return 1;
  }

  // Bit-identity versus the in-RAM backend.  Routing never reads payload
  // BYTES, and this run injected origin r == r, so the identity-arena heap
  // exchange draws the same coins over the same initial holdings — its
  // final columns must match bit for bit (same guarantee the tests pin at
  // small n; this asserts it at the full out-of-core scale).
  const uint64_t mmap_sum = HoldingsChecksum(ex.holdings);
  {
    ExchangeResult ram = ResumeExchange(g, StartExchange(g), opts);
    const uint64_t ram_sum = HoldingsChecksum(ram.holdings);
    if (ram_sum != mmap_sum) {
      std::fprintf(stderr,
                   "holdings diverge across backends: mmap %016llx vs ram "
                   "%016llx\n",
                   static_cast<unsigned long long>(mmap_sum),
                   static_cast<unsigned long long>(ram_sum));
      bench.MarkFailed();
      return 1;
    }
  }

  // Sampled payload read-back: ~10^5 reports re-derived from ground truth.
  {
    Rng rng(2022);
    const size_t samples = std::min<size_t>(n, 100000);
    for (size_t s = 0; s < samples; ++s) {
      const size_t r = rng.UniformInt(n);
      const PayloadSpan p = ex.payloads->payload(static_cast<ReportId>(r));
      if (p.size() != kMmapPayloadBytes) {
        std::fprintf(stderr, "payload %zu: wrong size %zu\n", r, p.size());
        bench.MarkFailed();
        return 1;
      }
      for (size_t i = 0; i < kMmapPayloadBytes; i += 17) {
        if (p[i] != PatternByte(r, i)) {
          std::fprintf(stderr, "payload %zu byte %zu corrupted\n", r, i);
          bench.MarkFailed();
          return 1;
        }
      }
    }
  }

  Table t({"n", "rounds", "inject s", "exchange s", "reports/s",
           "mmap RSS MB", "disk MB", "moved B/user", "read amp"});
  t.NewRow()
      .AddInt(static_cast<long long>(n))
      .AddInt(static_cast<long long>(kMmapRounds))
      .AddDouble(inject_wall, 3)
      .AddDouble(wall, 3)
      .AddSci(rps, 3)
      .AddDouble(mmap_rss_mb, 1)
      .AddDouble(disk_mb, 1)
      .AddDouble(bytes_moved_per_user, 1)
      .AddDouble(io.ReadAmplification(), 3);
  t.Print();

  bench.SetHeadline("mmap_reports_per_sec_largest_n", rps);
  bench.AddMetric("mmap_n", static_cast<double>(n));
  bench.AddMetric("mmap_rounds", static_cast<double>(kMmapRounds));
  bench.AddMetric("mmap_inject_seconds", inject_wall);
  bench.AddMetric("mmap_peak_rss_mb", mmap_rss_mb);
  bench.AddMetric("inram_equivalent_mb", inram_equivalent_mb);
  bench.AddMetric("rss_budget_mb", budget_mb);
  bench.AddMetric("disk_mb", disk_mb);
  bench.AddMetric("bytes_moved_per_user", bytes_moved_per_user);
  bench.AddMetric("read_amplification", io.ReadAmplification());
  bench.AddMetric("max_block_touches", static_cast<double>(io.max_block_touches));

  if (budget_mb > 0.0 && mmap_rss_mb > budget_mb) {
    std::fprintf(stderr,
                 "out-of-core peak RSS %.1f MB exceeds the %.0f MB budget "
                 "(in-RAM equivalent: %.0f MB)\n",
                 mmap_rss_mb, budget_mb, inram_equivalent_mb);
    bench.MarkFailed();
    return 1;
  }

  char budget_note[40];
  if (budget_mb > 0.0) {
    std::snprintf(budget_note, sizeof(budget_note), "budget %.0f MB",
                  budget_mb);
  } else {
    std::snprintf(budget_note, sizeof(budget_note), "no budget set");
  }
  std::printf(
      "\nReading: the exchange ran n=%zu users whose columns would need "
      "%.0f MB resident, in a %.1f MB\nhigh-water mark (%s) — "
      "the population's state lived in mmap'd files, touched\nround by "
      "round under madvise, and the final holdings are bit-identical to the "
      "in-RAM backend's.\n",
      n, inram_equivalent_mb, mmap_rss_mb, budget_note);
  return 0;
}

}  // namespace

int main() {
  const double scale = EnvScale();
  // NS_BACKEND=mmap switches this harness to the out-of-core sweep: one
  // file-backed big-n run with its own bench name (and baseline), so the
  // in-RAM trajectory and the out-of-core trajectory never overwrite each
  // other's JSON.
  if (EnvBackendKind() == StorageBackendKind::kMmap) {
    return RunOutOfCore(scale);
  }

  BenchRunner bench("scale_throughput");
  bench.SetAccountant("none");
  std::printf(
      "Scale study: flat exchange throughput at t = mixing-time rounds "
      "(scale=%.2f, threads=%zu)\n\n",
      scale, EnvThreads());

  Table t({"graph", "n", "t (mix)", "exchange s", "reports/s", "peak RSS MB"});
  double headline = 0.0;
  size_t prev_n = 0;
  for (size_t base : {size_t{10000}, size_t{100000}, size_t{1000000}}) {
    const size_t n =
        std::max<size_t>(1000, static_cast<size_t>(scale * base));
    // A small NS_SCALE can clamp several bases to the same n; rerunning it
    // would emit duplicate keys into the JSON metrics object.
    if (n == prev_n) continue;
    prev_n = n;
    // kind 0: the paper's regular regime (acceptance target); kind 1: a
    // degree-skewed social-graph stand-in.
    for (int kind = 0; kind < 2; ++kind) {
      Rng rng(2022 + static_cast<uint64_t>(kind));
      Graph g = kind == 0 ? MakeRandomRegular(n, 20, &rng)
                          : MakeBarabasiAlbert(n, 10, &rng);
      const double gap = EstimateSpectralGap(g).gap;
      const size_t rounds = MixingTime(gap, n);

      ExchangeOptions opts;
      opts.rounds = rounds;
      opts.seed = 7;
      const auto start = std::chrono::steady_clock::now();
      ExchangeResult ex = RunExchange(g, opts);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (ex.holdings.num_reports() != n) {
        std::fprintf(stderr, "report conservation violated at n=%zu\n", n);
        bench.MarkFailed();
        return 1;
      }

      const double routed =
          static_cast<double>(n) * static_cast<double>(rounds);
      const double rps = wall > 0.0 ? routed / wall : 0.0;
      const double rss = PeakRssMb();
      const std::string label = kind == 0 ? "20-regular" : "ba-m10";
      t.NewRow()
          .Add(label)
          .AddInt(static_cast<long long>(n))
          .AddInt(static_cast<long long>(rounds))
          .AddDouble(wall, 3)
          .AddSci(rps, 3)
          .AddDouble(rss, 1);
      const std::string prefix = label + "_n" + std::to_string(n);
      bench.AddMetric(prefix + "_reports_per_sec", rps);
      bench.AddMetric(prefix + "_rounds", static_cast<double>(rounds));
      bench.AddMetric(prefix + "_peak_rss_mb", rss);
      bench.AddMetric(prefix + "_routing_bytes_per_user",
                      static_cast<double>(ex.holdings.MemoryBytes()) /
                          static_cast<double>(n));
      // Headline: the regular-graph throughput at the largest n (the
      // acceptance regime: n = 10^6 at full scale).
      if (kind == 0) headline = rps;
    }
  }
  bench.SetHeadline("kregular_reports_per_sec_largest_n", headline);
  t.Print();

  std::printf(
      "\nReading: reports/s should stay roughly flat as n grows 100x — the "
      "id arena + counting-sort routing\nmakes a round one allocation-free "
      "linear pass over 4 B/report — and peak RSS should grow linearly\nin "
      "n with a small constant (graph CSR + two ~8 B/user routing buffers + "
      "the write-once payload\ncolumns), with no O(n)-memory shuffler "
      "entity anywhere.\n");
  return 0;
}
