#include "shuffle/sharded.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "shuffle/engine_internal.h"
#include "shuffle/wire.h"

namespace netshuffle {

namespace {

static_assert(kMaxTransportShards <= engine_internal::kMaxBucketParts,
              "every worker buckets its reports by destination shard");

// Everything a shard worker reads from the coordinator's address space.
// Under the process transport the worker is a forked child: all of this is
// inherited copy-on-write and treated as strictly read-only (the child's
// results travel back through its kResult frame, never shared memory).
struct ShardedRun {
  const Graph* g = nullptr;
  const ExchangeOptions* options = nullptr;
  const uint32_t* global_offsets = nullptr;  // prior CSR, n + 1 entries
  const ReportId* global_arena = nullptr;    // prior arena
  size_t shards = 0;
  std::vector<uint32_t> bounds;
};

// Per-worker stats shipped home in the result frame.
struct WorkerStats {
  uint64_t messages = 0;
  uint64_t cross_reports = 0;
  uint64_t cross_bytes = 0;
};

/// The shard worker body: options.rounds rounds of the serial engine's
/// round shape (engine_internal.h) over this shard's user range — hop,
/// bucket, move over the transport, arrive — then one kResult frame with
/// the final local state.  Every Send/Recv failure propagates as the typed
/// Status RunShardWorkers turns into the run's kTransportError.
Status ShardWorkerBody(const ShardedRun& run, size_t s, Endpoint& ep) {
  const Graph& g = *run.g;
  const ExchangeOptions& options = *run.options;
  const size_t shards = run.shards;
  const uint32_t lo = run.bounds[s], hi = run.bounds[s + 1];
  const size_t ln = hi - lo;

  // Local state: this shard's contiguous slice of the global CSR + arena,
  // rebased so offsets start at 0.
  const uint32_t base = run.global_offsets[lo];
  std::vector<ReportId> arena(run.global_arena + base,
                              run.global_arena + run.global_offsets[hi]);
  std::vector<uint32_t> offsets(ln + 1);
  for (size_t u = 0; u <= ln; ++u) {
    offsets[u] = run.global_offsets[lo + u] - base;
  }

  // Part-sized scratch: the holder list (global user ids, local arena
  // offsets), the count/cursor row over the local users, the next CSR, and
  // the hopped and bucketed report columns — nothing is sized by the
  // global n.
  std::vector<uint32_t> holder_v(ln + 1), holder_b(ln + 1);
  std::vector<uint32_t> counts(ln), next_offsets(ln + 1);
  engine_internal::PartScratch part;
  part.holders = engine_internal::BuildHolderList(
      offsets.data(), lo, ln, holder_v.data(), holder_b.data());
  std::vector<uint32_t> dests, batch_dests;
  std::vector<ReportId> batch_ids, next_arena;

  // Incoming batches by source shard; slot s is the shard's own (never
  // sent) batch, so the arrive phase walks source shards 0..S-1 uniformly.
  std::vector<std::vector<uint32_t>> in_ids(shards), in_dests(shards);
  part.in.resize(shards);

  WorkerStats stats;
  wire::Writer writer;

  for (size_t step = 0; step < options.rounds; ++step) {
    const size_t round = options.first_round + step;
    const uint32_t held = offsets[ln];

    // Hop + bucket: destinations are global user ids drawn from
    // per-(seed, round, user) streams, so they cannot depend on the shard
    // partition; bucketing keeps local arena order within each batch — the
    // order half of the bit-identity argument.
    dests.resize(held);
    batch_ids.resize(held);
    batch_dests.resize(held);
    engine_internal::HopShard(g, options, round, holder_v.data(),
                              holder_b.data(), part.holders, dests.data(),
                              &part);
    engine_internal::BucketPart(arena.data(), dests.data(), 0, held,
                                run.bounds.data(), shards, batch_ids.data(),
                                batch_dests.data(), &part);

    // Move: exactly one frame to every other shard, empty or not — that is
    // what keeps messages-per-round at shards^2 and lets the receive loop
    // below expect exactly shards-1 frames with no timeouts.
    for (size_t d = 0; d < shards; ++d) {
      if (d == s) continue;
      const engine_internal::Batch& out = part.out[d];
      wire::EncodeBatch(out.ids, out.dests, out.size, &writer);
      // ns-lint: allow(narrow32): the wire round field is u32; epoch-local
      // rounds are capped below 2^32 (core/session.h PackProgress)
      Status st = ep.Send(static_cast<uint16_t>(d), wire::FrameKind::kBatch,
                          static_cast<uint32_t>(round), writer.data(),
                          writer.size());
      if (!st.ok()) return st;
      ++stats.messages;
      stats.cross_reports += out.size;
      stats.cross_bytes += wire::kHeaderBytes + writer.size();
    }
    part.in[s] = part.out[s];
    uint32_t arriving = part.out[s].size;
    for (size_t q = 0; q < shards; ++q) {
      if (q == s) continue;
      wire::FrameHeader h;
      Bytes payload;
      Status st = ep.Recv(static_cast<uint16_t>(q), &h, &payload);
      if (!st.ok()) return st;
      // ns-lint: allow(narrow32): u32 wire round field, same bound as Send
      if (h.kind != wire::FrameKind::kBatch ||
          h.round != static_cast<uint32_t>(round)) {
        return wire::TransportError(
            "shard " + std::to_string(s) + " got an out-of-protocol frame " +
            "from shard " + std::to_string(q) + " in round " +
            std::to_string(round));
      }
      st = wire::DecodeBatch(payload.data(), payload.size(), lo, hi,
                             &in_ids[q], &in_dests[q]);
      if (!st.ok()) return st;
      // ns-lint: allow(narrow32): a decoded batch holds a u32 count
      const uint32_t size = static_cast<uint32_t>(in_ids[q].size());
      part.in[q] = engine_internal::Batch{in_ids[q].data(),
                                          in_dests[q].data(), size};
      arriving += size;
    }

    // Arrive: the serial engine's phase over this shard's users, from slot
    // 0 of the local arena; the shard closes its own CSR.
    next_arena.resize(arriving);
    part.holders = engine_internal::ArrivePart(
        part.in.data(), shards, lo, hi - lo, 0, counts.data(),
        next_offsets.data(), holder_v.data(), holder_b.data(),
        next_arena.data());
    next_offsets[ln] = arriving;
    arena.swap(next_arena);
    offsets.swap(next_offsets);
  }

  // Result frame: the shard's final local CSR + arena and its
  // communication counters.
  writer.Clear();
  // ns-lint: allow(narrow32): s < kMaxTransportShards = 64
  writer.U32(static_cast<uint32_t>(s));
  writer.U32(lo);
  writer.U32(hi);
  writer.U64(stats.messages);
  writer.U64(stats.cross_reports);
  writer.U64(stats.cross_bytes);
  writer.U32(offsets[ln]);
  writer.U32Array(offsets.data(), ln + 1);
  writer.U32Array(arena.data(), offsets[ln]);
  // ns-lint: allow(narrow32): u32 wire round field, same bound as the hops
  return ep.Send(wire::kCoordinator, wire::FrameKind::kResult,
                 static_cast<uint32_t>(options.rounds), writer.data(),
                 writer.size());
}

}  // namespace

Status ShardedResumeExchange(const Graph& g, ExchangeResult* state,
                             const ExchangeOptions& options,
                             const ShardedOptions& sharded,
                             ShardedStats* stats) {
  engine_internal::CheckResumeContract("ShardedResumeExchange", options,
                                       state->rounds);
  if (state->holdings.hosted()) {
    // The out-of-core tier (mmap-hosted stores) and the multi-process tier
    // are separate scaling axes: a forked worker cannot splice into a
    // parent-owned mapped column.  *state is untouched, as on a transport
    // failure.
    return Status::Error(
        StatusCode::kInvalidArgument,
        "ShardedResumeExchange: hosted (mmap-backed) stores are not "
        "supported by the sharded engine; unhost or run serial");
  }

  const size_t n = g.num_nodes();
  const size_t shards =
      std::max<size_t>(1, std::min({sharded.shards, n, kMaxTransportShards}));

  // One shard over the in-process transport IS the serial engine — no
  // workers, no frames, no copies.  The seam costs nothing when unused
  // (pinned within 5% by the bench gate).  A single process-transport
  // shard still forks its worker, exercising the relay end to end; an
  // empty population has nothing to fork for on either transport.
  if (n == 0 ||
      (shards <= 1 && sharded.transport == TransportKind::kLoopback)) {
    if (stats != nullptr) {
      stats->shards = 1;
      stats->rounds += options.rounds;
    }
    *state = ResumeExchange(g, std::move(*state), options);
    return Status::Ok();
  }

  // *state is strictly read-only until the success path at the bottom: any
  // transport error below returns with it untouched.
  const size_t total = state->holdings.num_reports();
  ShardedRun run;
  run.g = &g;
  run.options = &options;
  run.global_offsets = state->holdings.offsets_data();
  run.global_arena = state->holdings.arena_data();
  run.shards = shards;
  engine_internal::PartitionUsers(n, shards, &run.bounds);

  Expected<std::vector<Bytes>> worker_results = RunShardWorkers(
      sharded.transport, shards, [&run](size_t s, Endpoint& ep) {
        return ShardWorkerBody(run, s, ep);
      });
  if (!worker_results.ok()) return worker_results.status();

  // Gather: decode every shard's result, splice its local CSR + arena into
  // the global store (rebasing offsets), in shard order.
  // Decode errors are transport errors: the frames were checksummed, so a
  // malformed result means a worker broke protocol, not memory.
  ReportStore next;
  next.AllocateFor(n, total);
  uint32_t* offsets = next.mutable_offsets();
  ReportId* arena = next.mutable_arena();
  uint64_t messages = 0, cross_reports = 0, cross_bytes = 0;
  std::vector<uint32_t> local_offsets;
  uint32_t spliced = 0;
  for (size_t s = 0; s < shards; ++s) {
    const Bytes& payload = worker_results.value()[s];
    wire::Reader r(payload.data(), payload.size());
    uint32_t shard_id = 0, lo = 0, hi = 0, local_reports = 0;
    uint64_t w_messages = 0, w_cross_reports = 0, w_cross_bytes = 0;
    Status st = r.U32(&shard_id);
    if (st.ok()) st = r.U32(&lo);
    if (st.ok()) st = r.U32(&hi);
    if (st.ok()) st = r.U64(&w_messages);
    if (st.ok()) st = r.U64(&w_cross_reports);
    if (st.ok()) st = r.U64(&w_cross_bytes);
    if (st.ok()) st = r.U32(&local_reports);
    if (!st.ok()) return st;
    if (shard_id != s || lo != run.bounds[s] || hi != run.bounds[s + 1] ||
        local_reports > total - spliced) {
      return wire::TransportError("shard " + std::to_string(s) +
                                  " result header is inconsistent with the "
                                  "ownership map");
    }
    const size_t ln = hi - lo;
    local_offsets.resize(ln + 1);
    st = r.U32Array(local_offsets.data(), ln + 1);
    if (!st.ok()) return st;
    if (local_offsets[0] != 0 || local_offsets[ln] != local_reports) {
      return wire::TransportError("shard " + std::to_string(s) +
                                  " result CSR is malformed");
    }
    for (size_t u = 0; u < ln; ++u) {
      if (local_offsets[u + 1] < local_offsets[u]) {
        return wire::TransportError("shard " + std::to_string(s) +
                                    " result CSR is not monotone");
      }
      offsets[lo + u] = spliced + local_offsets[u];
    }
    st = r.U32Array(arena + spliced, local_reports);
    if (!st.ok()) return st;
    spliced += local_reports;
    if (!r.AtEnd()) {
      return wire::TransportError("shard " + std::to_string(s) +
                                  " result has trailing bytes");
    }
    messages += w_messages;
    cross_reports += w_cross_reports;
    cross_bytes += w_cross_bytes;
  }
  if (spliced != total) {
    return wire::TransportError(
        "sharded exchange lost reports: " + std::to_string(spliced) +
        " gathered of " + std::to_string(total));
  }
  offsets[n] = spliced;
  state->holdings.SwapWith(&next);
  state->rounds += options.rounds;

  if (stats != nullptr) {
    stats->shards = shards;
    stats->rounds += options.rounds;
    stats->messages += messages;
    stats->cross_shard_reports += cross_reports;
    stats->cross_shard_bytes += cross_bytes;
  }
  return Status::Ok();
}

}  // namespace netshuffle
