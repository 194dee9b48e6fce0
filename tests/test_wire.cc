// The checked wire format and the transport seam (shuffle/wire.h,
// shuffle/transport.h, DESIGN.md §11).  Fuzz-style round-trip coverage:
// truncated frames at every length, single-bit flips across whole frames,
// zero-length and large batches, random garbage through every decoder —
// each must surface as a typed kTransportError (or a clean round-trip),
// never out-of-bounds reads.  CI runs this under the ASan+UBSan leg, so
// "never UB" is machine-checked, not asserted.  The transport half runs
// real multi-worker meshes over BOTH transports, including a worker that
// dies mid-exchange (the process relay must report kTransportError, not
// hang).

#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/status.h"
#include "shuffle/transport.h"
#include "shuffle/wire.h"
#include "tests/test_util.h"
#include "util/rng.h"

using namespace netshuffle;

namespace {

void CheckTransportError(const Status& s) {
  CHECK(!s.ok());
  CHECK(s.code() == StatusCode::kTransportError);
}

// ---- Primitives -----------------------------------------------------------

void TestPrimitives() {
  uint8_t buf[8];
  wire::PutU16(buf, 0xbeef);
  CHECK(buf[0] == 0xef && buf[1] == 0xbe);  // little-endian on the wire
  CHECK(wire::GetU16(buf) == 0xbeef);
  wire::PutU32(buf, 0xdeadbeefu);
  CHECK(buf[0] == 0xef && buf[3] == 0xde);
  CHECK(wire::GetU32(buf) == 0xdeadbeefu);
  wire::PutU64(buf, 0x0123456789abcdefULL);
  CHECK(buf[0] == 0xef && buf[7] == 0x01);
  CHECK(wire::GetU64(buf) == 0x0123456789abcdefULL);
}

// ---- Frame header ---------------------------------------------------------

void TestHeaderRoundTrip() {
  const Bytes payload{1, 2, 3, 4, 5};
  Bytes frame;
  wire::EncodeFrame(wire::FrameKind::kBatch, /*src=*/3, /*dst=*/7,
                    /*round=*/42, payload.data(), payload.size(), &frame);
  CHECK(frame.size() == wire::kHeaderBytes + payload.size());

  wire::FrameHeader h;
  CHECK(wire::DecodeHeader(frame.data(), frame.size(), &h).ok());
  CHECK(h.kind == wire::FrameKind::kBatch);
  CHECK(h.src == 3);
  CHECK(h.dst == 7);
  CHECK(h.round == 42);
  CHECK(h.payload_bytes == payload.size());
  CHECK(wire::VerifyPayload(h, frame.data() + wire::kHeaderBytes).ok());

  // Truncation at EVERY header length is a typed error.
  for (size_t len = 0; len < wire::kHeaderBytes; ++len) {
    wire::FrameHeader t;
    CheckTransportError(wire::DecodeHeader(frame.data(), len, &t));
  }

  // Bad magic.
  {
    Bytes bad = frame;
    bad[0] ^= 0xff;
    wire::FrameHeader t;
    CheckTransportError(wire::DecodeHeader(bad.data(), bad.size(), &t));
  }
  // Unknown kind.
  {
    Bytes bad = frame;
    wire::PutU16(bad.data() + 4, 99);
    wire::FrameHeader t;
    CheckTransportError(wire::DecodeHeader(bad.data(), bad.size(), &t));
  }
  // Oversized declared payload length (beyond the cap).
  {
    Bytes bad = frame;
    wire::PutU32(bad.data() + 16, wire::kMaxPayloadBytes + 1);
    wire::FrameHeader t;
    CheckTransportError(wire::DecodeHeader(bad.data(), bad.size(), &t));
  }

  // EVERY single-bit flip across the whole frame — header and payload — is
  // detected somewhere along the decode path: header validation, a length
  // that no longer matches the delivered bytes, or the seeded checksum.
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes bad = frame;
      bad[byte] = static_cast<uint8_t>(bad[byte] ^ (1u << bit));
      wire::FrameHeader t;
      Status s = wire::DecodeHeader(bad.data(), bad.size(), &t);
      if (s.ok() && t.payload_bytes != payload.size()) {
        // The transports read exactly payload_bytes from the stream; a
        // flipped length shows up there as a short/over-long read.  Here it
        // simply counts as detected.
        continue;
      }
      if (s.ok()) {
        s = wire::VerifyPayload(t, bad.data() + wire::kHeaderBytes);
      }
      CheckTransportError(s);
    }
  }

  // A frame replayed under another (src, dst, round) fails the seeded
  // checksum even with an intact payload.
  {
    Bytes moved = frame;
    wire::PutU16(moved.data() + 8, 9);  // dst 7 -> 9
    wire::FrameHeader t;
    CHECK(wire::DecodeHeader(moved.data(), moved.size(), &t).ok());
    CheckTransportError(
        wire::VerifyPayload(t, moved.data() + wire::kHeaderBytes));
  }

  // Empty payloads are legal frames.
  {
    Bytes empty_frame;
    wire::EncodeFrame(wire::FrameKind::kResult, 0, wire::kCoordinator, 1,
                      nullptr, 0, &empty_frame);
    CHECK(empty_frame.size() == wire::kHeaderBytes);
    wire::FrameHeader t;
    CHECK(wire::DecodeHeader(empty_frame.data(), empty_frame.size(), &t).ok());
    CHECK(t.payload_bytes == 0);
    CHECK(wire::VerifyPayload(t, empty_frame.data() + wire::kHeaderBytes).ok());
  }
}

// ---- Writer / Reader ------------------------------------------------------

void TestWriterReader() {
  wire::Writer w;
  const uint32_t u32s[3] = {0, 0xffffffffu, 12345};
  const uint64_t u64s[2] = {0xdeadbeefcafef00dULL, 7};
  w.U8(9);
  w.U32(0xabcdef01u);
  w.U64(0x1122334455667788ULL);
  w.U32Array(u32s, 3);
  w.U64Array(u64s, 2);
  CHECK(w.size() == 1 + 4 + 8 + 12 + 16);

  wire::Reader r(w.data(), w.size());
  uint8_t b = 0;
  uint32_t x = 0;
  uint64_t y = 0;
  uint32_t arr32[3] = {};
  uint64_t arr64[2] = {};
  CHECK(r.U8(&b).ok() && b == 9);
  CHECK(r.U32(&x).ok() && x == 0xabcdef01u);
  CHECK(r.U64(&y).ok() && y == 0x1122334455667788ULL);
  CHECK(r.U32Array(arr32, 3).ok());
  CHECK(std::memcmp(arr32, u32s, sizeof(u32s)) == 0);
  CHECK(r.U64Array(arr64, 2).ok());
  CHECK(std::memcmp(arr64, u64s, sizeof(u64s)) == 0);
  CHECK(r.AtEnd());

  // Every underrun is typed, never a read past the end.
  CheckTransportError(r.U8(&b));
  wire::Reader short_r(w.data(), 3);
  CheckTransportError(short_r.U32(&x));
  wire::Reader tiny(w.data(), 7);
  CheckTransportError(tiny.U64(&y));
  // Array count that would overflow bytes arithmetic is still an underrun.
  wire::Reader huge(w.data(), w.size());
  std::vector<uint32_t> sink(4);
  CheckTransportError(huge.U32Array(sink.data(), SIZE_MAX / 2));
}

// ---- Batches --------------------------------------------------------------

void TestBatches() {
  wire::Writer w;
  std::vector<uint32_t> ids, dests;
  // The widest receiver range: every user id below the u32 maximum.
  const uint32_t lo = 0, hi = UINT32_MAX;

  // Zero-length batch: a legal 4-byte payload.
  wire::EncodeBatch(nullptr, nullptr, 0, &w);
  CHECK(w.size() == 4);
  CHECK(wire::DecodeBatch(w.data(), w.size(), lo, hi, &ids, &dests).ok());
  CHECK(ids.empty() && dests.empty());

  // Max-size-ish batch: 200k pairs round-trip column-for-column.
  const size_t big = 200000;
  std::vector<uint32_t> in_ids(big), in_dests(big);
  Rng rng(7);
  for (size_t i = 0; i < big; ++i) {
    in_ids[i] = static_cast<uint32_t>(rng.Next());
    in_dests[i] = static_cast<uint32_t>(rng.Next());
  }
  wire::EncodeBatch(in_ids.data(), in_dests.data(), big, &w);
  CHECK(w.size() == 4 + big * 8);
  CHECK(wire::DecodeBatch(w.data(), w.size(), lo, hi, &ids, &dests).ok());
  CHECK(ids == in_ids && dests == in_dests);

  // Truncation at a sweep of lengths (every prefix of the header+columns
  // boundary region, then coarse steps through the bulk) is typed.
  for (size_t len = 0; len < 64; ++len) {
    CheckTransportError(
        wire::DecodeBatch(w.data(), len, lo, hi, &ids, &dests));
  }
  for (size_t len = 64; len < w.size(); len += 7919) {
    CheckTransportError(
        wire::DecodeBatch(w.data(), len, lo, hi, &ids, &dests));
  }
  // Declared count inconsistent with the delivered bytes.
  {
    wire::Writer bad;
    bad.U32(3);
    const uint32_t two[2] = {1, 2};
    bad.U32Array(two, 2);  // 3 pairs declared, 1 pair of bytes present
    CheckTransportError(
        wire::DecodeBatch(bad.data(), bad.size(), lo, hi, &ids, &dests));
  }

  // A well-formed, checksummed batch routing a report outside the
  // receiver's users [10, 20) is a typed error at either edge; the same
  // frame decodes cleanly for a receiver that owns the destinations.
  for (const uint32_t stray : {9u, 20u}) {
    const uint32_t two_ids[2] = {7, 8}, two_dests[2] = {15, stray};
    wire::EncodeBatch(two_ids, two_dests, 2, &w);
    Bytes frame;
    wire::EncodeFrame(wire::FrameKind::kBatch, /*src=*/1, /*dst=*/2,
                      /*round=*/3, w.data(), w.size(), &frame);
    wire::FrameHeader h;
    CHECK(wire::DecodeHeader(frame.data(), frame.size(), &h).ok());
    const uint8_t* payload = frame.data() + wire::kHeaderBytes;
    CHECK(wire::VerifyPayload(h, payload).ok());
    CheckTransportError(
        wire::DecodeBatch(payload, h.payload_bytes, 10, 20, &ids, &dests));
    CHECK(wire::DecodeBatch(payload, h.payload_bytes, 0, 21, &ids, &dests)
              .ok());
    CHECK(dests[1] == stray);
  }

  // Random garbage through both decoders: typed errors or clean parses,
  // never UB (the ASan leg enforces "never").
  Rng fuzz(20220808);
  for (int it = 0; it < 2000; ++it) {
    Bytes junk(fuzz.UniformInt(80));
    for (auto& c : junk) c = static_cast<uint8_t>(fuzz.Next());
    wire::FrameHeader h;
    (void)wire::DecodeHeader(junk.data(), junk.size(), &h);
    (void)wire::DecodeBatch(junk.data(), junk.size(), lo, hi, &ids, &dests);
  }
}

// ---- Transports -----------------------------------------------------------

// A worker body exercising the full mesh: every worker sends one batch to
// every peer, receives one from every peer (validating content), then ships
// a result frame summarizing what it saw.
Status MeshWorker(size_t shards, size_t s, Endpoint& ep) {
  wire::Writer w;
  for (size_t d = 0; d < shards; ++d) {
    if (d == s) continue;
    const uint32_t id = static_cast<uint32_t>(s * 1000 + d);
    const uint32_t dest = static_cast<uint32_t>(d);
    wire::EncodeBatch(&id, &dest, 1, &w);
    Status st = ep.Send(static_cast<uint16_t>(d), wire::FrameKind::kBatch,
                        /*round=*/5, w.data(), w.size());
    if (!st.ok()) return st;
  }
  uint64_t sum = 0;
  for (size_t q = 0; q < shards; ++q) {
    if (q == s) continue;
    wire::FrameHeader h;
    Bytes payload;
    Status st = ep.Recv(static_cast<uint16_t>(q), &h, &payload);
    if (!st.ok()) return st;
    if (h.kind != wire::FrameKind::kBatch || h.round != 5) {
      return wire::TransportError("mesh worker got an unexpected frame");
    }
    std::vector<uint32_t> ids, dests;
    st = wire::DecodeBatch(payload.data(), payload.size(), 0,
                           static_cast<uint32_t>(shards), &ids, &dests);
    if (!st.ok()) return st;
    if (ids.size() != 1 || ids[0] != q * 1000 + s || dests[0] != s) {
      return wire::TransportError("mesh worker got a misrouted batch");
    }
    sum += ids[0];
  }
  w.Clear();
  w.U32(static_cast<uint32_t>(s));
  w.U64(sum);
  return ep.Send(wire::kCoordinator, wire::FrameKind::kResult, /*round=*/5,
                 w.data(), w.size());
}

void TestTransportMesh(TransportKind kind) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{5}}) {
    Expected<std::vector<Bytes>> results = RunShardWorkers(
        kind, shards,
        [shards](size_t s, Endpoint& ep) { return MeshWorker(shards, s, ep); });
    CHECK(results.ok());
    CHECK(results.value().size() == shards);
    for (size_t s = 0; s < shards; ++s) {
      wire::Reader r(results.value()[s].data(), results.value()[s].size());
      uint32_t id = 0;
      uint64_t sum = 0;
      CHECK(r.U32(&id).ok() && id == s);
      uint64_t want = 0;
      for (size_t q = 0; q < shards; ++q) {
        if (q != s) want += q * 1000 + s;
      }
      CHECK(r.U64(&sum).ok() && sum == want);
      CHECK(r.AtEnd());
    }
  }
}

void TestWorkerFailure(TransportKind kind) {
  // A worker that reports an error (after the others are likely blocked in
  // Recv) must tear the whole mesh down into one typed kTransportError —
  // not a hang, not a crash.
  Expected<std::vector<Bytes>> results =
      RunShardWorkers(kind, 3, [](size_t s, Endpoint& ep) -> Status {
        if (s == 1) {
          return wire::TransportError("worker 1 simulated failure");
        }
        wire::FrameHeader h;
        Bytes payload;
        // Workers 0 and 2 wait on the failing peer.
        return ep.Recv(/*src=*/1, &h, &payload);
      });
  CHECK(!results.ok());
  CHECK(results.status().code() == StatusCode::kTransportError);
}

void TestProcessPeerDeath() {
  // A child that dies outright — no error return, no result frame — while
  // its peers sit in Recv on it.  The relay sees the EOF and fails the run.
  Expected<std::vector<Bytes>> results = RunShardWorkers(
      TransportKind::kProcess, 3, [](size_t s, Endpoint& ep) -> Status {
        if (s == 2) _exit(7);  // simulated crash, skips the result frame
        wire::FrameHeader h;
        Bytes payload;
        return ep.Recv(/*src=*/2, &h, &payload);
      });
  CHECK(!results.ok());
  CHECK(results.status().code() == StatusCode::kTransportError);
}

void TestMissingResult() {
  // A worker that returns OK without ever sending its result frame breaks
  // the RunShardWorkers contract; both transports must type the error.
  for (TransportKind kind : {TransportKind::kLoopback,
                             TransportKind::kProcess}) {
    Expected<std::vector<Bytes>> results = RunShardWorkers(
        kind, 2, [](size_t s, Endpoint& ep) -> Status {
          if (s == 0) {
            wire::Writer w;
            w.U32(0);
            return ep.Send(wire::kCoordinator, wire::FrameKind::kResult, 0,
                           w.data(), w.size());
          }
          (void)ep;
          return Status::Ok();  // no result frame
        });
    CHECK(!results.ok());
    CHECK(results.status().code() == StatusCode::kTransportError);
  }
}

}  // namespace

int main() {
  TestPrimitives();
  TestHeaderRoundTrip();
  TestWriterReader();
  TestBatches();
  TestTransportMesh(TransportKind::kLoopback);
  TestTransportMesh(TransportKind::kProcess);
  TestWorkerFailure(TransportKind::kLoopback);
  TestWorkerFailure(TransportKind::kProcess);
  TestProcessPeerDeath();
  TestMissingResult();
  return 0;
}
