// Checked wire format for the sharded exchange (DESIGN.md §11): every byte
// that crosses a shard boundary — loopback queue or socketpair — is a FRAME:
// a fixed little-endian header (magic, kind, src, dst, round, payload length,
// payload checksum) followed by the payload.  Decoding is fully validated:
// short buffers, bad magic, oversized lengths, and checksum mismatches all
// surface as typed kTransportError Status values, never as out-of-bounds
// reads (pinned under ASan by tests/test_wire.cc).
//
// This header is the ONE sanctioned place for byte-level serialization
// (memcpy / reinterpret-style reinterpretation) in shuffle/ — enforced by
// the `wire` rule in tools/ns_lint.py.  Everything cross-process goes
// through Writer/Reader below, so framing bugs are a single-file audit.
//
// Encoding is explicitly little-endian byte-at-a-time (not struct memcpy):
// the frame layout is independent of host struct padding, and a mixed-arch
// deployment would interoperate.  The checksum is FNV-1a over the payload,
// seeded with the header fields, so a frame delivered to the wrong peer or
// round fails closed rather than scattering into the wrong slice.

#ifndef NETSHUFFLE_SHUFFLE_WIRE_H_
#define NETSHUFFLE_SHUFFLE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/status.h"
#include "shuffle/protocol.h"

namespace netshuffle {
namespace wire {

// "NSWF" — netshuffle wire frame.
constexpr uint32_t kMagic = 0x4e535746u;
constexpr size_t kHeaderBytes = 28;
/// Destination id of coordinator-bound frames (worker results).
constexpr uint16_t kCoordinator = 0xffffu;
/// Hard ceiling on one frame's payload.  Far above any real batch (a full
/// 2^32-report arena batch is 32 GiB and impossible long before this), but
/// low enough that a corrupted length field cannot drive a near-2^32
/// allocation before the checksum check would catch it.
constexpr uint32_t kMaxPayloadBytes = 1u << 30;

enum class FrameKind : uint16_t {
  /// A round's cross-shard report batch: count pairs of (ReportId,
  /// destination user), encoded as [u32 count][count ids][count dests].
  kBatch = 1,
  /// A worker's end-of-exchange result (local CSR + arena + counters).
  kResult = 2,
};

struct FrameHeader {
  FrameKind kind = FrameKind::kBatch;
  uint16_t src = 0;
  uint16_t dst = 0;
  uint32_t round = 0;
  uint32_t payload_bytes = 0;
  uint64_t checksum = 0;
};

/// FNV-1a over the payload, seeded with the header fields so a frame
/// replayed under a different (kind, src, dst, round) fails the check.
inline uint64_t HeaderSeed(FrameKind kind, uint16_t src, uint16_t dst,
                           uint32_t round) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const uint64_t fields[4] = {static_cast<uint64_t>(kind), src, dst, round};
  for (uint64_t f : fields) {
    h ^= f;
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline uint64_t Checksum(const uint8_t* data, size_t n, uint64_t seed) {
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---- Primitive little-endian encode/decode --------------------------------

inline void PutU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}
inline void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}
inline void PutU64(uint8_t* p, uint64_t v) {
  // ns-lint: allow(narrow32): deliberate 64->2x32 LE word split — both
  // halves are written, no information lost
  PutU32(p, static_cast<uint32_t>(v));
  PutU32(p + 4, static_cast<uint32_t>(v >> 32));
}
inline uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}
inline uint32_t GetU32(const uint8_t* p) {
  // ns-lint: allow(narrow32): WIDENING uint8->uint32 casts, not narrowings
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}
inline uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

// ---- Frame header ---------------------------------------------------------

/// Layout (little-endian):
///   [0]  u32 magic   [4]  u16 kind  [6]  u16 src  [8]  u16 dst
///   [10] u16 zero    [12] u32 round [16] u32 payload_bytes
///   [20] u64 checksum
inline void EncodeHeader(const FrameHeader& h, uint8_t out[kHeaderBytes]) {
  PutU32(out, kMagic);
  PutU16(out + 4, static_cast<uint16_t>(h.kind));
  PutU16(out + 6, h.src);
  PutU16(out + 8, h.dst);
  PutU16(out + 10, 0);
  PutU32(out + 12, h.round);
  PutU32(out + 16, h.payload_bytes);
  PutU64(out + 20, h.checksum);
}

inline Status TransportError(const std::string& what) {
  return Status::Error(StatusCode::kTransportError, what);
}

/// Validates magic / kind / length bounds; does NOT check the payload
/// checksum (the payload has not been read yet) — that is VerifyPayload.
inline Status DecodeHeader(const uint8_t* data, size_t n, FrameHeader* out) {
  if (n < kHeaderBytes) {
    return TransportError("short frame header: " + std::to_string(n) +
                          " of " + std::to_string(kHeaderBytes) + " bytes");
  }
  if (GetU32(data) != kMagic) {
    return TransportError("bad frame magic (stream desync or corruption)");
  }
  const uint16_t kind = GetU16(data + 4);
  if (kind != static_cast<uint16_t>(FrameKind::kBatch) &&
      kind != static_cast<uint16_t>(FrameKind::kResult)) {
    return TransportError("unknown frame kind " + std::to_string(kind));
  }
  if (GetU16(data + 10) != 0) {
    return TransportError("reserved header bytes are non-zero");
  }
  out->kind = static_cast<FrameKind>(kind);
  out->src = GetU16(data + 6);
  out->dst = GetU16(data + 8);
  out->round = GetU32(data + 12);
  out->payload_bytes = GetU32(data + 16);
  out->checksum = GetU64(data + 20);
  if (out->payload_bytes > kMaxPayloadBytes) {
    return TransportError("frame payload length " +
                          std::to_string(out->payload_bytes) +
                          " exceeds the " +
                          std::to_string(kMaxPayloadBytes) + "-byte cap");
  }
  return Status::Ok();
}

/// Checks the payload against the header's checksum (seeded with the header
/// fields, so a frame rerouted to the wrong peer/round also fails here).
inline Status VerifyPayload(const FrameHeader& h, const uint8_t* payload) {
  const uint64_t want = Checksum(
      payload, h.payload_bytes, HeaderSeed(h.kind, h.src, h.dst, h.round));
  if (want != h.checksum) {
    return TransportError("frame checksum mismatch (src " +
                          std::to_string(h.src) + " -> dst " +
                          std::to_string(h.dst) + ", round " +
                          std::to_string(h.round) + ")");
  }
  return Status::Ok();
}

/// Encodes a complete frame — header (checksum filled in) + payload — into
/// one contiguous buffer, reusing `out`'s capacity.
inline void EncodeFrame(FrameKind kind, uint16_t src, uint16_t dst,
                        uint32_t round, const uint8_t* payload, size_t n,
                        Bytes* out) {
  if (n > kMaxPayloadBytes) {
    NETSHUFFLE_FATAL("EncodeFrame: payload of " + std::to_string(n) +
                     " bytes exceeds the wire cap (split the batch)");
  }
  FrameHeader h;
  h.kind = kind;
  h.src = src;
  h.dst = dst;
  h.round = round;
  // ns-lint: allow(narrow32): n <= kMaxPayloadBytes < 2^32, checked above
  h.payload_bytes = static_cast<uint32_t>(n);
  h.checksum = Checksum(payload, n, HeaderSeed(kind, src, dst, round));
  out->resize(kHeaderBytes + n);
  EncodeHeader(h, out->data());
  if (n != 0) std::memcpy(out->data() + kHeaderBytes, payload, n);
}

// ---- Payload writer / reader ----------------------------------------------

/// Append-only payload builder.  Bulk array appends are the hot path of
/// batch serialization (one memcpy per column, not per element); the u32
/// array layout matches Reader::U32Array byte-for-byte on any host because
/// both sides commit to little-endian (a big-endian host would pay a swap
/// loop in RawAppend — acceptable for a path that is I/O bound anyway).
class Writer {
 public:
  void Clear() { buf_.clear(); }

  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) {
    const size_t at = buf_.size();
    buf_.resize(at + 4);
    PutU32(buf_.data() + at, v);
  }
  void U64(uint64_t v) {
    const size_t at = buf_.size();
    buf_.resize(at + 8);
    PutU64(buf_.data() + at, v);
  }
  void U32Array(const uint32_t* v, size_t count) {
    RawAppend(v, count * sizeof(uint32_t));
  }
  void U64Array(const uint64_t* v, size_t count) {
    RawAppend(v, count * sizeof(uint64_t));
  }

  const uint8_t* data() const { return buf_.data(); }
  size_t size() const { return buf_.size(); }

 private:
  void RawAppend(const void* src, size_t bytes) {
    const size_t at = buf_.size();
    buf_.resize(at + bytes);
    // Little-endian hosts lay u32/u64 arrays out exactly as the wire wants
    // them; this is the bulk-column fast path.  (The repo targets x86-64 —
    // a big-endian port would swap here.)
    if (bytes != 0) std::memcpy(buf_.data() + at, src, bytes);
  }

  Bytes buf_;
};

/// Bounds-checked payload cursor: every accessor checks the remaining byte
/// count and returns kTransportError on underrun, so a truncated or
/// corrupted frame can never read out of bounds.
class Reader {
 public:
  Reader(const uint8_t* data, size_t n) : p_(data), end_(data + n) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool AtEnd() const { return p_ == end_; }

  Status U8(uint8_t* out) {
    if (remaining() < 1) return Underrun("u8");
    *out = *p_++;
    return Status::Ok();
  }
  Status U32(uint32_t* out) {
    if (remaining() < 4) return Underrun("u32");
    *out = GetU32(p_);
    p_ += 4;
    return Status::Ok();
  }
  Status U64(uint64_t* out) {
    if (remaining() < 8) return Underrun("u64");
    *out = GetU64(p_);
    p_ += 8;
    return Status::Ok();
  }
  Status U32Array(uint32_t* out, size_t count) {
    const size_t bytes = count * sizeof(uint32_t);
    if (count > remaining() / sizeof(uint32_t)) return Underrun("u32[]");
    if (bytes != 0) std::memcpy(out, p_, bytes);
    p_ += bytes;
    return Status::Ok();
  }
  Status U64Array(uint64_t* out, size_t count) {
    const size_t bytes = count * sizeof(uint64_t);
    if (count > remaining() / sizeof(uint64_t)) return Underrun("u64[]");
    if (bytes != 0) std::memcpy(out, p_, bytes);
    p_ += bytes;
    return Status::Ok();
  }

 private:
  Status Underrun(const char* what) const {
    return TransportError(std::string("payload underrun reading ") + what +
                          " with " + std::to_string(remaining()) +
                          " bytes left");
  }

  const uint8_t* p_;
  const uint8_t* end_;
};

// ---- Batch payloads -------------------------------------------------------

/// Serializes a cross-shard batch: `count` (ReportId, destination user)
/// pairs laid out as [u32 count][ids...][dests...] — two bulk column copies,
/// so coalescing a round's traffic to one peer costs O(batch), and an empty
/// batch is a legal 4-byte payload (every (src, dst) pair sends exactly one
/// batch per round, data or not, which is what keeps messages-per-round at
/// shards^2 and the receive loop free of timeouts).
inline void EncodeBatch(const uint32_t* ids, const uint32_t* dests,
                        size_t count, Writer* w) {
  w->Clear();
  w->U32(CheckedNarrow32(count, "wire batch report count"));
  w->U32Array(ids, count);
  w->U32Array(dests, count);
}

/// Decodes a batch payload into two column vectors (resized to fit).
/// Typed kTransportError on any length inconsistency and on a destination
/// outside the receiver's user range [lo, hi).
inline Status DecodeBatch(const uint8_t* payload, size_t n, uint32_t lo,
                          uint32_t hi, std::vector<uint32_t>* ids,
                          std::vector<uint32_t>* dests) {
  Reader r(payload, n);
  uint32_t count = 0;
  Status s = r.U32(&count);
  if (!s.ok()) return s;
  if (r.remaining() != static_cast<size_t>(count) * 8) {
    return TransportError("batch length mismatch: " +
                          std::to_string(count) + " pairs declared, " +
                          std::to_string(r.remaining()) +
                          " payload bytes present");
  }
  ids->resize(count);
  dests->resize(count);
  s = r.U32Array(ids->data(), count);
  if (s.ok()) s = r.U32Array(dests->data(), count);
  if (!s.ok()) return s;
  for (const uint32_t d : *dests) {
    if (d < lo || d >= hi) {
      return TransportError("batch routes a report to user " +
                            std::to_string(d) + " outside receiver range");
    }
  }
  return Status::Ok();
}

}  // namespace wire
}  // namespace netshuffle

#endif  // NETSHUFFLE_SHUFFLE_WIRE_H_
