// Internal seam between the serial exchange engine (shuffle/engine.cc) and
// the sharded engine (shuffle/sharded.cc): the one round shape of DESIGN.md
// §4e, written once.  A round is hop -> bucket -> move -> arrive over parts
// that own contiguous user ranges.  The engines differ only in the move:
// the serial engine's parts are thread-pool chunks that hand their batches
// over in place at a barrier, and every sharded worker is one part that
// ships its batches over a transport (DESIGN.md §11).  The round only
// routes: per-user traffic and holdings counts are taken from outside, by
// the observer in shuffle/engine.h that reads the states it produces.
//
// Not part of the public API: the contracts here (sentinel-terminated holder
// lists, batches whose destination column the arrive phase overwrites) are
// engine plumbing.  Include from shuffle/ and its unit tests only.

#ifndef NETSHUFFLE_SHUFFLE_ENGINE_INTERNAL_H_
#define NETSHUFFLE_SHUFFLE_ENGINE_INTERNAL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "shuffle/engine.h"
#include "shuffle/protocol.h"

namespace netshuffle {
namespace engine_internal {

/// Fatal unless `options` passes ValidateExchangeOptions and
/// options.first_round equals `prior_rounds`, the rounds the state already
/// executed (a mismatched offset would draw coins from the wrong per-round
/// streams and silently diverge from the one-shot schedule).  `entry` names
/// the caller in the message.
void CheckResumeContract(const char* entry, const ExchangeOptions& options,
                         size_t prior_rounds);

/// The one partition formula: part c of `parts` owns users
/// [bounds[c], bounds[c+1]) with bounds[c] = c * n / parts.  The serial
/// engine's thread-pool parts and the sharded engine's workers both use it,
/// so "ascending parts = ascending users" holds for either.
void PartitionUsers(size_t n, size_t parts, std::vector<uint32_t>* bounds);

/// Builds the holder list of a part's CSR: for users first_user + u,
/// u in [0, users), with offsets[u + 1] > offsets[u], appends
/// holder_v = first_user + u and holder_b = offsets[u], then a sentinel
/// (first_user + users, offsets[users]) bounding the last run.  Branch-free;
/// holder_v/holder_b need users + 1 entries.  Returns the holder count.
size_t BuildHolderList(const uint32_t* offsets, uint32_t first_user,
                       size_t users, uint32_t* holder_v, uint32_t* holder_b);

/// `size` routed reports: ids[i] goes to global user dests[i].  A view —
/// the columns belong to whoever bucketed or decoded them.
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

  size_t MemoryBytes() const;
};

/// Hop: one part's pass over the first `holders` entries of its
/// sentinel-terminated holder list.  Draws every holder's destinations from
/// its per-(options.seed, round, user) stream — batched, branch-free,
/// AVX-512 when available; scalar fault path when options.faults !=
/// nullptr — and writes them into dests[] (indexed by the holder runs'
/// arena offsets).
void HopShard(const Graph& g, const ExchangeOptions& options, size_t round,
              const uint32_t* holder_v, const uint32_t* holder_b,
              size_t holders, uint32_t* dests, PartScratch* scratch);

/// Bucket: groups a part's hopped reports, arena positions [begin, end), by
/// destination part (owner under `bounds`, parts <= kMaxBucketParts),
/// keeping arena order within each group, into the same positions of
/// out_ids/out_dests, and points scratch->out[p] at group p.  With one part
/// the source columns are the batch: nothing is copied, and out_ids/out_dests
/// may be null.
constexpr size_t kMaxBucketParts = 64;
void BucketPart(const ReportId* ids, uint32_t* dests, uint32_t begin,
                uint32_t end, const uint32_t* bounds, size_t parts,
                ReportId* out_ids, uint32_t* out_dests, PartScratch* scratch);

/// Upper bound on the serial engine's part count.  The move step hands over
/// a parts x parts table of batches and every arriving part scans it for
/// its base slot, an O(parts^2) pass, so the cap bounds that table and that
/// scan at any pool width.
constexpr size_t kMaxRoutingParts = 32;
static_assert(kMaxRoutingParts <= kMaxBucketParts);

/// The serial engine's part count over n >= 1 users on a pool `width`
/// slots wide: four contiguous parts per slot, clamped to n and
/// kMaxRoutingParts.  At stationarity a user holds reports in proportion
/// to its degree, so on a heavy-tailed graph one id range can carry most
/// of a round's work; more parts than slots let the pool spread it
/// (DESIGN.md §4b).  Width 1 keeps a single part, which passes its source
/// slice through and needs no batch columns.  Scheduling only: the
/// holdings are bit-identical at any part count.
inline size_t RoutingParts(size_t width, size_t n) {
  if (width <= 1) return 1;
  return std::min({4 * width, n, kMaxRoutingParts});
}

/// Arrive: sorts the batches destined for users [first_user, first_user +
/// width) into next_arena.  Counts each destination's load into counts
/// (width entries), runs one prefix sum from slot `base` that writes
/// next_offsets[0, width) — never next_offsets[width], which belongs to the
/// next part — and rebuilds the holder list exactly as BuildHolderList would
/// (holder_v/holder_b need width + 1 entries), then scatters the batches in
/// ascending source order, so each destination's slice fills in ascending
/// (source part, position) order: the canonical ascending-sender layout.
/// Overwrites every batch's dests with its claimed slots.  Returns the next
/// round's holder count.
size_t ArrivePart(const Batch* in, size_t sources, uint32_t first_user,
                  uint32_t width, uint32_t base, uint32_t* counts,
                  uint32_t* next_offsets, uint32_t* holder_v,
                  uint32_t* holder_b, ReportId* next_arena);

}  // namespace engine_internal
}  // namespace netshuffle

#endif  // NETSHUFFLE_SHUFFLE_ENGINE_INTERNAL_H_
