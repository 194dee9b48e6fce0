// The transport seam of the sharded exchange (DESIGN.md §11): N shard
// workers, each owning a contiguous user range, exchange wire.h frames
// through an Endpoint.  Two implementations live behind the seam:
//
//   kLoopback — every worker is a dedicated thread in this process and a
//       frame hop is a queue push.  Always available; what the tests and
//       the scale_throughput sweep use by default.  The frames still go
//       through the full encode/checksum/decode path, so loopback exercises
//       exactly the bytes the real transport would carry.
//
//   kProcess — every worker is a forked child on the far end of a
//       socketpair, and the parent runs a non-blocking relay that routes
//       frames between children by their dst header.  Short reads, framing
//       corruption, and peer death surface as typed kTransportError — never
//       a hang or a crash in the coordinator.
//
// The seam is deliberately narrow — Send / Recv of whole frames, plus a
// RunShardWorkers driver that owns worker lifetime — so a future
// network-socket transport is a third implementation of the same two calls.

#ifndef NETSHUFFLE_SHUFFLE_TRANSPORT_H_
#define NETSHUFFLE_SHUFFLE_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/status.h"
#include "shuffle/protocol.h"
#include "shuffle/wire.h"

namespace netshuffle {

enum class TransportKind {
  kLoopback = 0,
  kProcess,
};

inline const char* TransportKindName(TransportKind kind) {
  return kind == TransportKind::kProcess ? "process" : "loopback";
}

/// Upper bound on the worker count: dst ids are u16 on the wire and the
/// relay keeps O(shards) sockets + O(shards^2) logical flows.
constexpr size_t kMaxTransportShards = 64;

/// One worker's view of the transport.  Frames sent to `wire::kCoordinator`
/// leave the worker mesh and land in RunShardWorkers' result slots; every
/// other dst is a peer shard.  Send copies the payload (the caller's buffer
/// can be reused immediately); Recv blocks until a frame FROM `src`
/// arrives, verifies its checksum, and hands back header + payload.
/// Both return kTransportError on framing violations or a dead peer.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  virtual Status Send(uint16_t dst, wire::FrameKind kind, uint32_t round,
                      const uint8_t* payload, size_t payload_bytes) = 0;
  virtual Status Recv(uint16_t src, wire::FrameHeader* header,
                      Bytes* payload) = 0;
};

/// The body one shard worker runs.  On success the worker must have sent
/// exactly one kResult frame to wire::kCoordinator (its final state); a
/// non-OK return aborts the whole exchange with kTransportError.  Under
/// kProcess the body executes in a forked child: it must not touch the
/// global thread pool or any other multithreaded machinery of the parent.
using ShardWorkerFn = std::function<Status(size_t shard, Endpoint& ep)>;

/// Runs `worker` on `shards` workers over the chosen transport and returns
/// each worker's kResult payload (index = shard id).  Any worker failure,
/// peer death, or framing corruption tears the mesh down (remaining workers
/// are unblocked / killed) and surfaces as one typed kTransportError.
Expected<std::vector<Bytes>> RunShardWorkers(TransportKind kind,
                                             size_t shards,
                                             const ShardWorkerFn& worker);

}  // namespace netshuffle

#endif  // NETSHUFFLE_SHUFFLE_TRANSPORT_H_
