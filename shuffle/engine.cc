#include "shuffle/engine.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "shuffle/engine_internal.h"
#include "util/parallel.h"
#include "util/rng.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define NETSHUFFLE_ENGINE_AVX512 1
#include <immintrin.h>
#endif

namespace netshuffle {

uint64_t ShuffleMetrics::max_user_traffic() const {
  uint64_t best = 0;
  for (uint64_t t : traffic_) best = std::max(best, t);
  return best;
}

double ShuffleMetrics::mean_user_traffic() const {
  if (traffic_.empty()) return 0.0;
  double total = 0.0;
  for (uint64_t t : traffic_) total += static_cast<double>(t);
  return total / static_cast<double>(traffic_.size());
}

size_t ShuffleMetrics::max_user_memory() const {
  size_t best = 0;
  for (size_t h : peak_holdings_) best = std::max(best, h);
  return best;
}

size_t ShuffleMetrics::BoundsCheck(NodeId u, const char* op) const {
  if (static_cast<size_t>(u) >= traffic_.size()) {
    NETSHUFFLE_FATAL(std::string("ShuffleMetrics::") + op + "(" +
                     std::to_string(u) + "): metrics cover " +
                     std::to_string(traffic_.size()) + " users");
  }
  return u;
}

void ShuffleMetrics::Observe(const ExchangeResult& state) {
  const ReportStore& store = state.holdings;
  const size_t n = store.num_users();
  if (n != traffic_.size()) {
    NETSHUFFLE_FATAL("ShuffleMetrics::Observe: exchange has " +
                     std::to_string(n) + " users, metrics cover " +
                     std::to_string(traffic_.size()));
  }
  const bool fresh = state.rounds == 0;
  if (fresh) {
    holder_.resize(store.num_reports());
  } else if (state.rounds != next_round_) {
    NETSHUFFLE_FATAL("ShuffleMetrics::Observe: saw round " +
                     std::to_string(state.rounds) + ", expected " +
                     (next_round_ == 0
                          ? std::string("round 0 first")
                          : "round 0 or " + std::to_string(next_round_)) +
                     " (observe every round)");
  } else if (store.num_reports() != holder_.size()) {
    NETSHUFFLE_FATAL("ShuffleMetrics::Observe: exchange has " +
                     std::to_string(store.num_reports()) +
                     " reports, its round 0 had " +
                     std::to_string(holder_.size()));
  }
  const uint32_t* offsets = store.offsets_data();
  const ReportId* arena = store.arena_data();
  for (NodeId u = 0; u < n; ++u) {
    for (uint32_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      NodeId& holder = holder_[arena[i]];
      if (!fresh && holder != u) ++traffic_[holder];
      holder = u;
    }
    const size_t held = offsets[u + 1] - offsets[u];
    if (held > peak_holdings_[u]) peak_holdings_[u] = held;
  }
  next_round_ = state.rounds + 1;
}

// The round (DESIGN.md §4e) is hop -> bucket -> move -> arrive over parts
// that own contiguous user ranges, four per pool slot.  Parts are
// thread-pool chunks that hand their batches over in place at a barrier.
// The round only routes: per-user traffic and holdings counts are taken
// from outside, by ShuffleMetrics::Observe reading the states it produces.
namespace engine_internal {

/// `size` routed reports: ids[i] goes to global user dests[i].  A view —
/// the columns belong to whoever bucketed them.
struct Batch {
  const ReportId* ids = nullptr;
  uint32_t* dests = nullptr;
  uint32_t size = 0;
};

/// One part's round scratch: the hop-tile columns and its outgoing batches
/// by destination part.  Buffers never shrink, so a reused PartScratch
/// settles after the first rounds.
struct PartScratch {
  size_t holders = 0;               // holder count of the part's list
  std::vector<uint64_t> streams;    // per-holder stream seeds, one tile
  std::vector<uint64_t> firsts;     // per-holder first words, one tile
  std::vector<uint32_t> multi;      // tile-local multi-holder list
  std::vector<uint64_t> coins;      // per-report coin column (grows)
  std::vector<const NodeId*> addrs; // per-report neighbor addresses (grows)
  std::vector<Batch> out;           // out[p]: the batch for part p
  std::vector<Batch> in;            // arriving batches, by source part

  size_t MemoryBytes() const {
    return (streams.capacity() + firsts.capacity() + coins.capacity()) *
               sizeof(uint64_t) +
           multi.capacity() * sizeof(uint32_t) +
           addrs.capacity() * sizeof(const NodeId*) +
           (out.capacity() + in.capacity()) * sizeof(Batch);
  }
};

}  // namespace engine_internal

namespace {

using engine_internal::Batch;
using engine_internal::kMaxRoutingParts;
using engine_internal::PartScratch;

// Holders per hop tile (DESIGN.md §4e): each part processes this many
// holders' coins before mapping them to destinations, so the coin column,
// the address column, and the matching dest slice stay cache-resident
// between the fill / map / dereference sub-passes (at stationarity the mean
// holding is ~1 report, so a tile is a few tens of KB; skewed holdings —
// a hub on a star-like graph — just grow the per-report columns to fit).
// Tiling is scheduling-only and never splits one user's draw sequence
// across fills.
constexpr uint32_t kCoinTile = 4096;

// Software-prefetch lookahead for the dependent random accesses (scatter
// cursor claims and arena placements).  The tables are O(n) and miss L1/L2
// at the million-user scale; ~40 slots of lookahead hides most of the miss
// latency at these loop costs without thrashing the prefetch queues (16-64
// measure within noise of each other; shorter distances leave latency
// exposed).
constexpr uint32_t kPrefetchAhead = 40;

// Dereference the per-tile neighbor addresses into the dest column — the
// only pass of the hop that touches random adjacency lines.  The AVX-512
// body gathers 8 lines per instruction, widening the out-of-order miss
// window far beyond what the scalar loop's speculation reaches.
// Bit-identical to the scalar tail by construction.
#if NETSHUFFLE_ENGINE_AVX512
__attribute__((target("avx512f"))) void DerefAvx512(
    const NodeId* const* addrs, uint32_t base, uint32_t end_off,
    uint32_t* dests) {
  // The masked gather with all eight lanes set and a zero pass-through is
  // the plain gather: GCC 12's _mm512_i64gather_epi32 passes an undefined
  // pass-through operand that -Wmaybe-uninitialized reports at -O2.
  constexpr __mmask8 kAllLanes = 0xFF;
  uint32_t i = base;
  for (; i + 8 <= end_off; i += 8) {
    const __m512i a = _mm512_loadu_si512(addrs + (i - base));
    // ns-lint: allow(wire): SIMD register store into a local uint32 row —
    // an intrinsic-mandated pointer cast, nothing serialized
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dests + i),
                        _mm512_mask_i64gather_epi32(_mm256_setzero_si256(),
                                                    kAllLanes, a, nullptr, 1));
  }
  for (; i < end_off; ++i) dests[i] = *addrs[i - base];
}
#endif  // NETSHUFFLE_ENGINE_AVX512

void Deref(const NodeId* const* addrs, uint32_t base, uint32_t end_off,
           uint32_t* dests) {
#if NETSHUFFLE_ENGINE_AVX512
  static const bool kHasAvx512 = __builtin_cpu_supports("avx512f");
  if (kHasAvx512) {
    DerefAvx512(addrs, base, end_off, dests);
    return;
  }
#endif
  for (uint32_t i = base; i < end_off; ++i) dests[i] = *addrs[i - base];
}

// Fault-path hop for one part's holder slice: Awake consumes an unknowable
// number of words from the per-(seed, round, user) stream before the
// destination draws, so each holder's stream runs through a real Rng and
// the destinations are drawn scalar — same words, same order, as the
// fast path below would consume from its batch-filled coin column.
// Availability is an exceptional regime; this path is kept simple rather
// than fast.
void FaultHopPart(const Graph& g, const ExchangeOptions& options,
                  size_t round, const uint32_t* holder_v,
                  const uint32_t* holder_b, size_t holders, uint32_t* dests) {
  for (size_t h = 0; h < holders; ++h) {
    const NodeId v = holder_v[h];
    const uint32_t b = holder_b[h], e = holder_b[h + 1];
    Rng rng(ExchangeStreamSeed(options.seed, round, v));
    const bool is_awake = options.faults->Awake(v, round, &rng);
    const size_t deg = g.degree(v);
    if (!is_awake || deg == 0) {
      // Asleep or isolated: every held report stays put, no draws.
      for (uint32_t i = b; i < e; ++i) dests[i] = v;
      continue;
    }
    const NodeId* nbr = g.neighbors_begin(v);
    for (uint32_t i = b; i < e; ++i) dests[i] = nbr[rng.UniformInt(deg)];
  }
}

// One batch's scatter into a destination part: claim every report's slot
// from the part's cursor row (random read-modify-write, prefetched; the
// claimed slot overwrites the dest column in place), then place the ids at
// the claimed slots (random write, prefetched).  Splitting claim from
// placement is what makes the placement address known kPrefetchAhead
// iterations early.  Slot assignment is identical to a fused loop.
void ScatterBatch(uint32_t* cursor, uint32_t first_user, const Batch& batch,
                  ReportId* next_arena) {
  uint32_t* dests = batch.dests;
  for (uint32_t tile = 0; tile < batch.size; tile += kCoinTile) {
    const uint32_t tile_end = std::min(batch.size, tile + kCoinTile);
    for (uint32_t i = tile; i < tile_end; ++i) {
      if (i + kPrefetchAhead < tile_end) {
        __builtin_prefetch(cursor + (dests[i + kPrefetchAhead] - first_user),
                           1, 1);
      }
      dests[i] = cursor[dests[i] - first_user]++;
    }
    for (uint32_t i = tile; i < tile_end; ++i) {
      if (i + kPrefetchAhead < tile_end) {
        __builtin_prefetch(next_arena + dests[i + kPrefetchAhead], 1, 0);
      }
      next_arena[dests[i]] = batch.ids[i];
    }
  }
}

// The one partition formula: part c of `parts` owns users
// [bounds[c], bounds[c+1]) with bounds[c] = c * n / parts, so ascending
// parts are ascending users.
void PartitionUsers(size_t n, size_t parts, std::vector<uint32_t>* bounds) {
  bounds->resize(parts + 1);
  for (size_t c = 0; c <= parts; ++c) {
    // ns-lint: allow(narrow32): c*n/parts <= n, and n is a u32 NodeId count
    (*bounds)[c] = static_cast<uint32_t>(c * n / parts);
  }
}

// Builds the holder list of a part's CSR: for users first_user + u,
// u in [0, users), with offsets[u + 1] > offsets[u], appends
// holder_v = first_user + u and holder_b = offsets[u], then a sentinel
// (first_user + users, offsets[users]) bounding the last run.  holder_v and
// holder_b need users + 1 entries.  Returns the holder count.  Branch-free:
// the candidate entry is written unconditionally and the length advances
// only for users that actually hold something.
size_t BuildHolderList(const uint32_t* offsets, uint32_t first_user,
                       size_t users, uint32_t* holder_v, uint32_t* holder_b) {
  size_t num_holders = 0;
  for (size_t u = 0; u < users; ++u) {
    // ns-lint: allow(narrow32): hot kernel; u < users <= n, a u32 NodeId
    // count narrowed at store allocation.
    holder_v[num_holders] = first_user + static_cast<uint32_t>(u);
    holder_b[num_holders] = offsets[u];
    num_holders += (offsets[u + 1] > offsets[u]) ? 1 : 0;
  }
  // ns-lint: allow(narrow32): sentinel; same bound as the loop above.
  holder_v[num_holders] = first_user + static_cast<uint32_t>(users);
  holder_b[num_holders] = offsets[users];
  return num_holders;
}

// Hop: one part's pass for one round over the first `holders` entries of
// its sentinel-terminated holder list (users with at least one held report,
// in ascending user order).  Draws every holder's destinations from its
// per-(options.seed, round, user) stream and writes them into dests[]
// (indexed by the holder runs' arena offsets); the scalar fault path runs
// when options.faults != nullptr.
//
// Tile by tile over holders:
//   A1. stream seeds + first words for every holder in the tile, as one
//       flat batch (util/rng.h BatchStreamSeeds — AVX-512 when available);
//   A2. branch-free pack: every holder's first word lands at its first coin
//       slot unconditionally; holders with more than one report are
//       compacted into a (typically near-empty) side list;
//   A3. those multi-holders expand their full streams over their coin runs
//       (Xoshiro256 continuation, bit-identical to sequential draws);
//   B1. map coins to neighbor ADDRESSES per degree class — a pure shift for
//       power-of-two degrees, the multiply-shift MapToBound otherwise — and
//       software-prefetch each address; isolated users' slots point at the
//       holder id itself (stay-in-place, no draw);
//   B2. dereference the addresses into destinations (Deref above).
// The coin schedule and the per-slice draw order are exactly the scalar
// engine's, so determinism is untouched (DESIGN.md §4e; pinned by
// tests/test_kernel_differential.cc).
void HopPart(const Graph& g, const ExchangeOptions& options, size_t round,
             const uint32_t* holder_v, const uint32_t* holder_b,
             size_t holders, uint32_t* dests, PartScratch* scratch) {
  if (options.faults != nullptr) {
    FaultHopPart(g, options, round, holder_v, holder_b, holders, dests);
    return;
  }

  // A tile holds at most min(kCoinTile, holders) holders (each holder holds
  // at least one report), so the per-holder columns need no more entries
  // and a small part never faults in a full tile; coins/addrs are
  // per-report and grow below if a single holding outgrows the tile.  All
  // grow-only, so a reused scratch settles.
  const size_t tile = std::min<size_t>(kCoinTile, holders);
  if (scratch->streams.size() < tile) {
    scratch->streams.resize(tile);
    scratch->firsts.resize(tile);
    scratch->multi.resize(tile);
  }
  uint64_t* const streams = scratch->streams.data();
  uint64_t* const firsts = scratch->firsts.data();
  uint32_t* const multi = scratch->multi.data();

  size_t h0 = 0;
  while (h0 < holders) {
    // Tile boundary: a fixed holder count, so no boundary scan is needed.
    // The tile's report span is usually a small multiple of the holder
    // count (mean holding is ~1 at stationarity); skewed holdings just grow
    // the per-report columns to fit.
    const uint32_t base = holder_b[h0];
    const size_t h1 = std::min(h0 + kCoinTile, holders);
    const uint32_t end_off = holder_b[h1];
    if (scratch->coins.size() < end_off - base) {
      scratch->coins.resize(std::max<size_t>(end_off - base, tile));
      scratch->addrs.resize(scratch->coins.size());
    }
    uint64_t* const coins = scratch->coins.data();
    const NodeId** const addrs = scratch->addrs.data();

    // ---- A1: stream seeds + first words, one flat batch.
    BatchStreamSeeds(holder_v + h0, h1 - h0, options.seed, round, streams,
                     firsts);

    // ---- A2: branch-free pack + multi-holder compaction.  Writing the
    // first word unconditionally is correct for every holder (it IS the
    // first draw); multi-holders just overwrite their run in A3.
    size_t m = 0;
    for (size_t h = h0; h < h1; ++h) {
      const uint32_t b = holder_b[h], e = holder_b[h + 1];
      coins[b - base] = firsts[h - h0];
      // ns-lint: allow(narrow32): hot kernel; h - h0 < the holder count,
      // itself <= the user count narrowed at store allocation.
      multi[m] = static_cast<uint32_t>(h - h0);
      m += (e - b > 1) ? 1 : 0;
    }

    // ---- A3: expand multi-holders' streams over their coin runs.
    for (size_t j = 0; j < m; ++j) {
      const size_t h = h0 + multi[j];
      const uint32_t b = holder_b[h], e = holder_b[h + 1];
      Xoshiro256 x = Xoshiro256::Seeded(streams[multi[j]]);
      for (uint32_t i = b; i < e; ++i) coins[i - base] = x.Next();
    }

    // ---- B1: map coins to neighbor addresses, one degree class per
    // holder, prefetching each address so the B2 dereference hits.
    for (size_t h = h0; h < h1; ++h) {
      const NodeId v = holder_v[h];
      const uint32_t b = holder_b[h], e = holder_b[h + 1];
      const size_t deg = g.degree(v);
      if (deg == 0) {
        // Isolated: keeps its reports, draws none.  Its slots point at the
        // holder-list entry itself, so B2's dereference yields v — the
        // stay-in-place destination — with no special case.
        for (uint32_t i = b; i < e; ++i) addrs[i - base] = holder_v + h;
        continue;
      }
      const NodeId* nbr = g.neighbors_begin(v);
      if (deg >= 2 && (deg & (deg - 1)) == 0) {
        // 2^k neighbors: MapToBound(x, 2^k) == x >> (64 - k), bit-exactly.
        const int shift = 64 - __builtin_ctzll(deg);
        for (uint32_t i = b; i < e; ++i) {
          const NodeId* a = nbr + (coins[i - base] >> shift);
          addrs[i - base] = a;
          __builtin_prefetch(a, 0, 1);
        }
      } else {
        for (uint32_t i = b; i < e; ++i) {
          const NodeId* a = nbr + MapToBound(coins[i - base], deg);
          addrs[i - base] = a;
          __builtin_prefetch(a, 0, 1);
        }
      }
    }

    // ---- B2: dereference.
    Deref(addrs, base, end_off, dests);

    h0 = h1;
  }
}

// Bucket: groups a part's hopped reports, arena positions [begin, end), by
// destination part (owner under `bounds`, parts <= kMaxRoutingParts),
// keeping arena order within each group, into the same positions of
// out_ids/out_dests, and points scratch->out[p] at group p.  With one part
// the source columns are the batch: nothing is copied, and out_ids/out_dests
// may be null.
//
// Owner lookup: the multiply-shift guess (d * parts) / n, to 57 fractional
// bits, is at most one below the owner under the floor-division bounds, and
// the fixup loops correct it — no 64-bit division per report.  Two passes
// over the part's reports: count per destination part, then place each
// (id, dest) pair at its group's cursor, in arena order.
void BucketPart(const ReportId* ids, uint32_t* dests, uint32_t begin,
                uint32_t end, const uint32_t* bounds, size_t parts,
                ReportId* out_ids, uint32_t* out_dests, PartScratch* scratch) {
  scratch->out.resize(parts);
  if (parts == 1) {
    scratch->out[0] = Batch{ids + begin, dests + begin, end - begin};
    return;
  }
  const uint64_t scale = (uint64_t{parts} << 57) / bounds[parts];
  auto owner = [&](uint32_t d) {
    size_t q = std::min<size_t>(parts - 1, (d * scale) >> 57);
    while (d < bounds[q]) --q;
    while (d >= bounds[q + 1]) ++q;
    return q;
  };
  uint32_t fill[kMaxRoutingParts + 1] = {begin};
  for (uint32_t i = begin; i < end; ++i) ++fill[owner(dests[i]) + 1];
  for (size_t p = 0; p < parts; ++p) {
    fill[p + 1] += fill[p];
    scratch->out[p] =
        Batch{out_ids + fill[p], out_dests + fill[p], fill[p + 1] - fill[p]};
  }
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t at = fill[owner(dests[i])]++;
    out_ids[at] = ids[i];
    out_dests[at] = dests[i];
  }
}

// Arrive: sorts the batches destined for users [first_user, first_user +
// width) into next_arena.  Counts each destination's load into counts
// (width entries), runs one prefix sum from slot `base` that writes
// next_offsets[0, width) — never next_offsets[width], which belongs to the
// next part — and rebuilds the holder list exactly as BuildHolderList would
// (holder_v/holder_b need width + 1 entries), then scatters the batches in
// ascending source order, so each destination's slice fills in ascending
// (source part, position) order: the canonical ascending-sender layout.
// Overwrites every batch's dests with its claimed slots.  Returns the next
// round's holder count.
size_t ArrivePart(const Batch* in, size_t sources, uint32_t first_user,
                  uint32_t width, uint32_t base, uint32_t* counts,
                  uint32_t* next_offsets, uint32_t* holder_v,
                  uint32_t* holder_b, ReportId* next_arena) {
  std::fill(counts, counts + width, 0u);
  for (size_t q = 0; q < sources; ++q) {
    for (uint32_t i = 0; i < in[q].size; ++i) {
      ++counts[in[q].dests[i] - first_user];
    }
  }
  // One running sum over destinations ascending: next CSR offsets, the
  // cursor row (in place), and the next holder list, branch-free.
  uint32_t run = base;
  size_t holders = 0;
  for (uint32_t v = 0; v < width; ++v) {
    holder_v[holders] = first_user + v;
    holder_b[holders] = run;
    next_offsets[v] = run;
    const uint32_t load = counts[v];
    counts[v] = run;
    run += load;
    holders += (load > 0) ? 1 : 0;
  }
  holder_v[holders] = first_user + width;
  holder_b[holders] = run;
  for (size_t q = 0; q < sources; ++q) {
    ScatterBatch(counts, first_user, in[q], next_arena);
  }
  return holders;
}

}  // namespace

ExchangeWorkspace::ExchangeWorkspace() = default;
ExchangeWorkspace::~ExchangeWorkspace() = default;
ExchangeWorkspace::ExchangeWorkspace(ExchangeWorkspace&&) noexcept = default;
ExchangeWorkspace& ExchangeWorkspace::operator=(ExchangeWorkspace&&) noexcept =
    default;

void ExchangeWorkspace::Recycle(ReportStore store) { next_ = std::move(store); }

size_t ExchangeWorkspace::MemoryBytes() const {
  size_t bytes = next_.MemoryBytes() +
                 (dests_.capacity() + batch_ids_.capacity() +
                  batch_dests_.capacity() + counts_.capacity() +
                  bounds_.capacity() + holder_v_.capacity() +
                  holder_b_.capacity()) *
                     sizeof(uint32_t);
  for (const PartScratch& p : parts_) bytes += p.MemoryBytes();
  return bytes;
}

Status ValidateExchangeOptions(const ExchangeOptions& options) {
  if (options.rounds == 0) {
    return Status::Error(
        StatusCode::kZeroRounds,
        "ExchangeOptions.rounds == 0: the engine has no mixing-time default "
        "and a zero-round exchange would deliver unshuffled reports; pick "
        "rounds explicitly, or let SessionConfig::SetRounds(0) resolve the "
        "mixing time (core/session.h is the one place that default lives)");
  }
  return Status::Ok();
}

ExchangeResult StartExchange(const Graph& g) {
  return StartExchange(g, PayloadArena::Identity(g.num_nodes()));
}

ExchangeResult StartExchange(const Graph& g, PayloadArena payloads) {
  Expected<ExchangeResult> sealed = SealExchange(g.num_nodes(), &payloads);
  if (!sealed.ok()) {
    NETSHUFFLE_FATAL("StartExchange: " + sealed.status().ToString());
  }
  return std::move(sealed).value();
}

Status InjectHoldings(const PayloadArena& payloads, size_t num_users,
                      ReportStore* holdings) {
  // A file-backed arena puts the routing columns on the same backend: the
  // exchange over 10^7+ users keeps RAM for the graph and scratch, not the
  // population's state (DESIGN.md §9).  A reused store moves to the
  // arena's backing first; matched states cost one branch.
  const std::shared_ptr<StorageBackend> backend = payloads.backend();
  if (holdings->hosted() && holdings->backend() != backend) {
    holdings->Unhost();
  }
  if (backend != nullptr) holdings->Host(backend, "route");
  holdings->AllocateFor(num_users, num_users);
  return payloads.InjectOnePerUser(num_users, holdings->mutable_arena(),
                                   holdings->mutable_offsets());
}

Expected<ExchangeResult> SealExchange(size_t num_users, PayloadArena* payloads,
                                      ExchangeWorkspace* workspace) {
  ExchangeResult result;
  ReportStore* holdings =
      workspace != nullptr ? &workspace->next_ : &result.holdings;
  const Status injected = InjectHoldings(*payloads, num_users, holdings);
  if (!injected.ok()) return injected;
  if (workspace != nullptr) result.holdings.SwapWith(&workspace->next_);
  payloads->Freeze();
  result.payloads =
      std::make_shared<const PayloadArena>(std::move(*payloads));
  return result;
}

ExchangeResult ResumeExchange(const Graph& g, ExchangeResult prior,
                              const ExchangeOptions& options) {
  ExchangeWorkspace workspace;
  return ResumeExchange(g, std::move(prior), options, &workspace);
}

ExchangeResult ResumeExchange(const Graph& g, ExchangeResult prior,
                              const ExchangeOptions& options,
                              ExchangeWorkspace* workspace) {
  const Status valid = ValidateExchangeOptions(options);
  if (!valid.ok()) NETSHUFFLE_FATAL(valid.ToString());
  // A mismatched offset would draw coins from the wrong per-round streams
  // and silently diverge from the one-shot schedule.
  if (options.first_round != prior.rounds) {
    NETSHUFFLE_FATAL("ResumeExchange: options.first_round (" +
                     std::to_string(options.first_round) +
                     ") must equal the rounds already executed (" +
                     std::to_string(prior.rounds) + ")");
  }

  const size_t n = g.num_nodes();
  ExchangeResult result = std::move(prior);
  result.rounds += options.rounds;
  if (n == 0) return result;

  ReportStore& store = result.holdings;
  const size_t total = store.num_reports();

  // Keep the double-buffer partner on the live store's backend (both
  // directions: a reused workspace may arrive heap-backed for a hosted
  // exchange, or hosted — possibly on a DIFFERENT backend — for a heap or
  // re-hosted one).  Matched states cost one branch, so the in-RAM steady
  // state stays allocation-free.
  if (workspace->next_.hosted() &&
      workspace->next_.backend() != store.backend()) {
    workspace->next_.Unhost();
  }
  if (store.hosted() && !workspace->next_.hosted()) {
    workspace->next_.Host(store.backend(), "route");
  }

  // Users are split into contiguous parts, four per pool slot (one at width
  // 1), so the hub-heavy id ranges of a heavy-tailed graph spread over the
  // pool (engine_internal::RoutingParts).  The part count only affects
  // scheduling: every RNG draw comes from a per-(round, user) stream, and
  // the arrive phase fills each destination's slice in ascending (source
  // part, sender) order — which for contiguous ascending parts is just
  // ascending sender order — so the holdings are bit-identical for any
  // thread count (including 1).
  const size_t parts = engine_internal::RoutingParts(ThreadCount(), n);

  // Size the reusable scratch (engine.h lists the buffers).  Every target
  // depends only on (n, total, parts) — the hop tiles also grow to the
  // largest single holding seen — so a fixed session settles after the
  // first rounds and Step(1) loops re-enter allocation-free (pinned by
  // tests/test_session_incremental.cc).  Part c owns counts[bounds[c], ...)
  // and the holder list at bounds[c] + c; one part needs no batch columns.
  ExchangeWorkspace& ws = *workspace;
  ws.next_.AllocateFor(n, total);
  ws.dests_.resize(total);
  if (parts > 1) {
    ws.batch_ids_.resize(total);
    ws.batch_dests_.resize(total);
  }
  ws.counts_.resize(n);
  ws.holder_v_.resize(n + parts);
  ws.holder_b_.resize(n + parts);
  ws.parts_.resize(parts);
  for (PartScratch& p : ws.parts_) p.in.resize(parts);
  PartitionUsers(n, parts, &ws.bounds_);
  const uint32_t* bounds = ws.bounds_.data();
  uint32_t* dests = ws.dests_.data();
  uint32_t* holder_v = ws.holder_v_.data();
  uint32_t* holder_b = ws.holder_b_.data();

  for (size_t step = 0; step < options.rounds; ++step) {
    // The absolute round index keys the RNG streams, so resumed chunks draw
    // exactly the coins the one-shot schedule would.
    const size_t round = options.first_round + step;
    const uint32_t* offsets = store.offsets_data();
    const ReportId* arena = store.arena_data();

    // Out-of-core schedule (DESIGN.md §9): prefault the whole source arena
    // before the hop walks it, one madvise(WILLNEED) per round whatever the
    // part count, recorded in the backend's per-block touch accounting.
    // Heap stores: one branch, nothing else.
    if (store.hosted()) store.AdviseWillNeed(0, offsets[n]);

    // Hop + bucket (parallel over source parts).  The first round's holder
    // lists come from the incoming store; later rounds get theirs from the
    // arrive phase.
    GlobalPool().RunChunks(parts, [&](size_t c) {
      PartScratch& part = ws.parts_[c];
      const uint32_t lo = bounds[c], b0 = offsets[lo];
      if (step == 0) {
        part.holders =
            BuildHolderList(offsets + lo, lo, bounds[c + 1] - lo,
                            holder_v + lo + c, holder_b + lo + c);
      }
      HopPart(g, options, round, holder_v + lo + c, holder_b + lo + c,
              part.holders, dests, &part);
      BucketPart(arena, dests, b0, offsets[bounds[c + 1]], bounds, parts,
                 ws.batch_ids_.data(), ws.batch_dests_.data(), &part);
    });

    // Move: the barrier above hands every batch over in place.  Arrive
    // (parallel over destination parts): part c's slots start after every
    // report bound for a lower part, an O(parts^2) scan; its count, prefix
    // and scatter write only its own slice of counts, holder lists, the
    // next CSR and the next arena.
    uint32_t* next_offsets = ws.next_.mutable_offsets();
    ReportId* next_arena = ws.next_.mutable_arena();
    GlobalPool().RunChunks(parts, [&](size_t c) {
      PartScratch& part = ws.parts_[c];
      uint32_t base = 0;
      for (size_t q = 0; q < parts; ++q) {
        part.in[q] = ws.parts_[q].out[c];
        for (size_t p = 0; p < c; ++p) base += ws.parts_[q].out[p].size;
      }
      const uint32_t lo = bounds[c];
      part.holders = ArrivePart(part.in.data(), parts, lo, bounds[c + 1] - lo,
                                base, ws.counts_.data() + lo,
                                next_offsets + lo, holder_v + lo + c,
                                holder_b + lo + c, next_arena);
    });
    next_offsets[n] = offsets[n];  // reports are conserved
    store.SwapWith(&ws.next_);

    // ws.next_ now holds the round's consumed source buffer; every byte of
    // it is rewritten before it is read again, so a file-backed buffer can
    // drop its resident pages entirely (MAP_SHARED: the kernel keeps the
    // data, only this process's RSS falls).
    if (ws.next_.hosted()) ws.next_.AdviseDontNeedAll();
  }
  return result;
}

ExchangeResult RunExchange(const Graph& g, const ExchangeOptions& options) {
  return ResumeExchange(g, StartExchange(g), options);
}

ProtocolResult FinalizeProtocol(const ExchangeResult& exchange,
                                ReportingProtocol protocol, uint64_t seed) {
  ProtocolResult out;
  out.rounds = exchange.rounds;
  out.payloads = exchange.payloads;
  const ReportStore& store = exchange.holdings;
  const size_t n = store.num_users();
  // Every routed id is below the store's report count, so one count check
  // bounds every origins[id] read below.
  if (exchange.payloads->num_reports() != store.num_reports()) {
    NETSHUFFLE_FATAL("FinalizeProtocol: arena holds " +
                     std::to_string(exchange.payloads->num_reports()) +
                     " reports, the holdings " +
                     std::to_string(store.num_reports()));
  }
  // No users submit nothing; RoutingParts would also give zero parts to
  // partition.
  if (n == 0) return out;
  const NodeId* origins = exchange.payloads->origins_data();
  const uint32_t* offsets = store.offsets_data();
  const ReportId* arena = store.arena_data();

  if (protocol == ReportingProtocol::kSingle) {
    // One sequential stream across all users is kSingle's output contract,
    // so this pass stays serial.
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    out.server_inbox.reserve(n);
    for (NodeId u = 0; u < n; ++u) {
      const size_t held = offsets[u + 1] - offsets[u];
      if (held == 0) {
        ++out.dummy_reports;
        continue;
      }
      const ReportId id = arena[offsets[u] + rng.UniformInt(held)];
      out.server_inbox.push_back(FinalReport{id, origins[id], u});
      out.dropped_reports += held - 1;
    }
    return out;
  }

  // kAll submits every holding in ascending (user, slot) order, which is
  // the arena's own order: inbox slot i carries arena[i], so the part
  // owning users [lo, hi) writes exactly slots [offsets[lo], offsets[hi])
  // and the parts need no prefix step.  Each part counts its own empty
  // users; summing in part order makes the inbox bit-identical at any
  // width.
  out.server_inbox.resize(store.num_reports());
  FinalReport* inbox = out.server_inbox.data();
  const size_t parts = engine_internal::RoutingParts(ThreadCount(), n);
  std::vector<uint32_t> bounds;
  PartitionUsers(n, parts, &bounds);
  size_t empty[kMaxRoutingParts] = {};
  GlobalPool().RunChunks(parts, [&](size_t c) {
    const uint32_t lo = bounds[c], hi = bounds[c + 1];
    FinalReport* slot = inbox + offsets[lo];
    size_t empties = 0;
    for (NodeId u = lo; u < hi; ++u) {
      const uint32_t b = offsets[u], e = offsets[u + 1];
      empties += (b == e) ? 1 : 0;
      for (uint32_t i = b; i < e; ++i) {
        *slot++ = FinalReport{arena[i], origins[arena[i]], u};
      }
    }
    empty[c] = empties;
  });
  for (size_t c = 0; c < parts; ++c) out.dummy_reports += empty[c];
  return out;
}

ProtocolResult RunProtocol(const Graph& g, ReportingProtocol protocol,
                           const ExchangeOptions& options) {
  return FinalizeProtocol(RunExchange(g, options), protocol, options.seed);
}

}  // namespace netshuffle
