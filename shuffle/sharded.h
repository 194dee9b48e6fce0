// Multi-worker sharded exchange (DESIGN.md §11): the serial engine's rounds,
// partitioned across N workers that each own a contiguous user range
// [bounds[s], bounds[s+1]) and the matching contiguous slice of the report
// arena.  Per round, every worker is one part of the serial engine's round
// shape (shuffle/engine_internal.h): it hops its local holders' reports,
// buckets the (report id, destination) pairs into ONE batch per destination
// shard, moves each remote batch as one wire.h frame over the transport
// seam (shuffle/transport.h) — messages per round is shards^2, independent
// of the report count — and the arrive phase sorts what it received into
// its next local arena slice.
//
// Bit-identity contract: for any shard count and either transport, the
// final (origin, payload, holder) state is byte-identical to the serial
// engine's.  The argument (DESIGN.md §11) is the same placement-order
// argument that makes the serial engine thread-count independent: every
// coin comes from a per-(seed, round, user) stream, so destinations do not
// depend on the partition; and each destination's slice is filled in
// ascending (source shard, source arena position) order, which for
// contiguous ascending shard ranges IS ascending global sender order — the
// serial engine's canonical layout.  Pinned element-by-element by
// tests/test_sharded_differential.cc.

#ifndef NETSHUFFLE_SHUFFLE_SHARDED_H_
#define NETSHUFFLE_SHUFFLE_SHARDED_H_

#include <cstddef>
#include <cstdint>

#include "core/status.h"
#include "graph/graph.h"
#include "shuffle/engine.h"
#include "shuffle/transport.h"

namespace netshuffle {

struct ShardedOptions {
  /// Worker count.  1 with the loopback transport short-circuits to the
  /// serial engine (the seam costs nothing when unused); 1 with the process
  /// transport still forks a single worker (exercises the relay).  Clamped
  /// to the user count and kMaxTransportShards.
  size_t shards = 1;
  TransportKind transport = TransportKind::kLoopback;
};

/// Communication-cost counters for one or more sharded runs (accumulated,
/// so a caller that resumes an exchange in chunks can keep one across its
/// calls).  Only cross-shard frames count: a shard's traffic to itself
/// never touches the transport.
struct ShardedStats {
  size_t shards = 0;    // worker count of the last run
  uint64_t rounds = 0;  // exchange rounds accumulated into these counters
  /// Cross-shard batch frames sent (== shards * (shards - 1) per round:
  /// every ordered pair exchanges exactly one frame per round, empty or
  /// not).
  uint64_t messages = 0;
  /// Report ids that crossed a shard boundary.
  uint64_t cross_shard_reports = 0;
  /// Bytes put on the wire for cross-shard batches (frame headers
  /// included).
  uint64_t cross_shard_bytes = 0;

  double MessagesPerRound() const {
    return rounds == 0 ? 0.0
                       : static_cast<double>(messages) /
                             static_cast<double>(rounds);
  }
  double BytesPerRound() const {
    return rounds == 0 ? 0.0
                       : static_cast<double>(cross_shard_bytes) /
                             static_cast<double>(rounds);
  }
};

/// The sharded counterpart of ResumeExchange: advances *state by
/// options.rounds rounds across sharded.shards workers, bit-identical to
/// the serial engine.  Same contracts as ResumeExchange (fatal on
/// rounds == 0 and first_round mismatches).  A hosted (mmap-backed) state
/// is a typed kInvalidArgument with *state UNCHANGED: the out-of-core tier
/// and the multi-process tier are separate scaling axes.  Transport
/// failures — peer death, framing corruption, short reads — surface as a
/// typed kTransportError, likewise with *state UNCHANGED, so a serving loop
/// can report the error and keep its epoch intact.
///
/// `stats`, when non-null, is accumulated (not reset), so an incremental
/// loop of resumes sums its communication cost across calls.
Status ShardedResumeExchange(const Graph& g, ExchangeResult* state,
                             const ExchangeOptions& options,
                             const ShardedOptions& sharded,
                             ShardedStats* stats = nullptr);

}  // namespace netshuffle

#endif  // NETSHUFFLE_SHUFFLE_SHARDED_H_
