// Internal seam between the serial exchange engine (shuffle/engine.cc) and
// the sharded engine (shuffle/sharded.cc): the round phases of DESIGN.md §4e,
// written once.  A round is partition -> holder list -> hop -> prefix ->
// scatter; the serial engine runs the phases over its thread-pool parts of
// all n users, and every sharded worker runs the SAME phases over its own
// contiguous user range — which is half of the bit-identity argument
// (DESIGN.md §11).
//
// Not part of the public API: the contracts here (sentinel-terminated holder
// lists, count rows the caller must interpret as scatter cursors) are engine
// plumbing.  Include from shuffle/ only.

#ifndef NETSHUFFLE_SHUFFLE_ENGINE_INTERNAL_H_
#define NETSHUFFLE_SHUFFLE_ENGINE_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <utility>
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

/// Per-part scratch for HopShard: the hop-tile columns plus the part's
/// (holder, sends) traffic counters.  Buffers are sized by HopShard itself
/// and never shrink, so a reused HopScratch settles after the first rounds.
struct HopScratch {
  std::vector<uint64_t> streams;    // per-holder stream seeds, one tile
  std::vector<uint64_t> firsts;     // per-holder first words, one tile
  std::vector<uint32_t> multi;      // tile-local multi-holder list
  std::vector<uint64_t> coins;      // per-report coin column (grows)
  std::vector<const NodeId*> addrs; // per-report neighbor addresses (grows)
  std::vector<std::pair<NodeId, uint64_t>> traffic;

  size_t MemoryBytes() const;
};

/// One part's hop pass over holder-list entries [h_begin, h_end) of a
/// sentinel-terminated holder list.  Draws every holder's destinations from
/// its per-(options.seed, round, user) stream — batched, branch-free,
/// AVX-512 when available; scalar fault path when options.faults !=
/// nullptr — and writes them into dests[] (indexed by the holder runs'
/// arena offsets).  When `count` is non-null it is a g.num_nodes()-entry
/// row, zeroed on entry and filled with the destination histogram; null
/// skips the histogram.  scratch->traffic is cleared and filled with
/// per-holder send counts when options.metrics is set.
void HopShard(const Graph& g, const ExchangeOptions& options, size_t round,
              const uint32_t* holder_v, const uint32_t* holder_b,
              size_t h_begin, size_t h_end, uint32_t* dests, uint32_t* count,
              HopScratch* scratch);

/// The prefix pass over `parts` load rows of `width` destinations each
/// (counts[c * width + v] = part c's load on destination first_user + v).
/// One running sum visits destinations ascending and, within each, parts
/// ascending — the fixed order that pins the canonical ascending-sender
/// layout — and in the same pass:
///   - rewrites every row in place into that part's scatter cursors;
///   - writes next_offsets[0, width], the next round's CSR;
///   - rebuilds the next round's holder list exactly as BuildHolderList
///     would over next_offsets (holder_v/holder_b need width + 1 entries).
/// Returns the next round's holder count.
size_t PrefixCursors(uint32_t* counts, size_t parts, size_t width,
                     uint32_t first_user, uint32_t* next_offsets,
                     uint32_t* holder_v, uint32_t* holder_b);

/// One part's scatter pass: for i in [begin, end), claims slot
/// cursor[dests[i]]++ and places arena[i] there in next_arena (split
/// claim/place with software prefetch).  dests is overwritten with the
/// claimed slots.  The caller's cursor row must already hold each
/// destination's first slot for this part (PrefixCursors).
void ScatterShard(uint32_t* cursor, uint32_t begin, uint32_t end,
                  uint32_t* dests, const ReportId* arena,
                  ReportId* next_arena);

}  // namespace engine_internal
}  // namespace netshuffle

#endif  // NETSHUFFLE_SHUFFLE_ENGINE_INTERNAL_H_
