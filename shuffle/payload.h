// Write-once columnar payload storage for the exchange (DESIGN.md §4d).
//
// The exchange is pure routing: a random walk permutes who HOLDS each
// report, but the report contents never change after local randomization.
// So the hot path routes only 4-byte ReportIds (shuffle/store.h), and the
// immutable per-report data — origin plus variable-length payload bytes —
// lives here, columnar and CSR-style: one origins column, one uint32 byte-
// offset column, one contiguous byte buffer.  Populated once at injection
// (Append* then Freeze), read back only at finalize / curator-side
// aggregation.
//
// Storage seam (DESIGN.md §9): a HOSTED arena (PayloadArena::Hosted) keeps
// the same three columns as streamed files on a StorageBackend — appends go
// through buffered write(2) so the population's payload bytes are never
// resident, and Freeze/Seal map the files read-only.  Because the arena
// must stay copyable (SessionConfig is a copyable builder), the hosted
// state lives behind a shared PayloadStream: copies of a hosted arena are
// views of one backing stream, consistent with the write-once contract.

#ifndef NETSHUFFLE_SHUFFLE_PAYLOAD_H_
#define NETSHUFFLE_SHUFFLE_PAYLOAD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "shuffle/backend.h"
#include "shuffle/protocol.h"

namespace netshuffle {

/// Read-only view of one report's payload bytes.
class PayloadSpan {
 public:
  PayloadSpan(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }
  uint8_t operator[](size_t i) const { return data_[i]; }

  Bytes ToBytes() const { return Bytes(data_, data_ + size_); }

 private:
  const uint8_t* data_;
  size_t size_;
};

class PayloadArena {
 public:
  PayloadArena() { offsets_.push_back(0); }

  /// Identity arena for payload-free exchanges: one report per user,
  /// origin(r) == r, zero payload bytes.  Already frozen.
  static PayloadArena Identity(size_t n) {
    PayloadArena arena;
    arena.origins_.resize(n);
    for (size_t r = 0; r < n; ++r) {
      arena.origins_[r] = static_cast<NodeId>(r);
    }
    arena.offsets_.assign(n + 1, 0);
    arena.frozen_ = true;
    return arena;
  }

  /// File-backed arena on `backend` (DESIGN.md §9): appends stream to disk,
  /// Freeze/Seal map the columns read-only.  kIoError if the stream files
  /// cannot be created.
  static Expected<PayloadArena> Hosted(
      std::shared_ptr<StorageBackend> backend) {
    auto stream = PayloadStream::Create(std::move(backend));
    if (!stream.ok()) return stream.status();
    PayloadArena arena;
    arena.hosted_ = std::move(stream).value();
    return arena;
  }

  bool hosted() const { return hosted_ != nullptr; }
  /// The hosting backend (null for a heap arena) — the engine derives the
  /// routing columns' hosting from this.
  std::shared_ptr<StorageBackend> backend() const {
    return hosted_ ? hosted_->backend() : nullptr;
  }

  /// Optional pre-sizing for bulk injection (heap arenas; a hosted arena
  /// streams and has nothing to pre-size).
  void Reserve(size_t reports, size_t total_bytes) {
    if (hosted_) return;
    origins_.reserve(reports);
    offsets_.reserve(reports + 1);
    bytes_.reserve(total_bytes);
  }

  /// Appends one report's immutable (origin, payload bytes) row; returns its
  /// ReportId.  Fatal after Freeze() (the arena is write-once) and on offset
  /// overflow (payload bytes must fit the uint32 offset column).
  ReportId Append(NodeId origin, const uint8_t* data, size_t size) {
    RequireMutable("Append");
    if (hosted_) {
      const ReportId id =
          CheckedNarrow32(hosted_->num_reports(), "report count");
      hosted_->Append(origin, data, size);
      return id;
    }
    const ReportId id = CheckedNarrow32(origins_.size(), "report count");
    origins_.push_back(origin);
    if (size > 0) bytes_.insert(bytes_.end(), data, data + size);
    offsets_.push_back(CheckedNarrow32(bytes_.size(), "total payload bytes"));
    return id;
  }
  ReportId Append(NodeId origin, const Bytes& payload) {
    return Append(origin, payload.data(), payload.size());
  }

  // ---- Typed appends (the dp/mechanism.h payload kinds) --------------------

  /// 8-byte host-order double (Laplace scalars).
  ReportId AppendScalar(NodeId origin, double value) {
    uint8_t buf[sizeof(double)];
    // ns-lint: allow(wire): host-order typed-payload encode — arena columns
    // never cross a process boundary (the exchange routes report ids)
    std::memcpy(buf, &value, sizeof(double));
    return Append(origin, buf, sizeof(buf));
  }

  /// 4-byte host-order uint32 (k-RR histogram buckets).
  ReportId AppendBucket(NodeId origin, uint32_t bucket) {
    uint8_t buf[sizeof(uint32_t)];
    // ns-lint: allow(wire): host-order typed-payload encode, in-process only
    std::memcpy(buf, &bucket, sizeof(uint32_t));
    return Append(origin, buf, sizeof(buf));
  }

  /// d consecutive host-order doubles (PrivUnit d-dim vectors).
  ReportId AppendVector(NodeId origin, const std::vector<double>& v) {
    // ns-lint: allow(wire): byte view of a local double column, not framing
    return Append(origin, reinterpret_cast<const uint8_t*>(v.data()),
                  v.size() * sizeof(double));
  }

  /// Seals the arena: further appends are fatal.  Injection
  /// (StartExchange) freezes unconditionally, so the routed ids always
  /// reference immutable rows.  Hosted arenas map their column files
  /// read-only here; a map failure at this point (mid-injection, no caller
  /// that can recover) is fatal — the typed-error seal point is Seal().
  void Freeze() {
    if (hosted_) {
      const Status mapped = hosted_->EnsureMapped();
      if (!mapped.ok()) {
        NETSHUFFLE_FATAL("PayloadArena::Freeze: " + mapped.ToString());
      }
    }
    frozen_ = true;
  }
  bool frozen() const { return frozen_; }

  /// The one-report-per-user protocol invariant, checked without freezing:
  /// exactly `num_users` reports, every origin inside the population, no
  /// origin twice (a duplicated origin means one user spends its eps0
  /// budget twice and another spends none — every accountant assumes one
  /// report per user, so the certified epsilon would silently be wrong).
  /// Returns a typed kPayloadMismatch describing the first violation.
  /// Session::Validate applies it to config-supplied arenas; Seal applies
  /// it to each serving epoch's streamed ingest.
  Status ValidateOnePerUser(size_t num_users) const {
    if (hosted_) {
      const Status mapped = hosted_->EnsureMapped();
      if (!mapped.ok()) return mapped;
    }
    if (num_reports() != num_users) {
      return Status::Error(
          StatusCode::kPayloadMismatch,
          "the payload arena holds " + std::to_string(num_reports()) +
              " reports for " + std::to_string(num_users) +
              " users; the protocol injects exactly one report per user");
    }
    const NodeId* origins = hosted_ ? hosted_->origins() : origins_.data();
    std::vector<bool> seen(num_users, false);
    for (ReportId r = 0; r < static_cast<ReportId>(num_users); ++r) {
      const NodeId o = origins[r];
      if (static_cast<size_t>(o) >= num_users) {
        return Status::Error(
            StatusCode::kPayloadMismatch,
            "report " + std::to_string(r) + " has origin " +
                std::to_string(o) + " outside the " +
                std::to_string(num_users) + "-user population");
      }
      if (seen[o]) {
        return Status::Error(
            StatusCode::kPayloadMismatch,
            "origin " + std::to_string(o) + " injects more than one report; "
                "the protocol (and its accounting) is one report per user");
      }
      seen[o] = true;
    }
    return Status::Ok();
  }

  /// The per-epoch seal point of the serving lifecycle (DESIGN.md §8):
  /// validates the one-report-per-user invariant and, only if it holds,
  /// freezes the arena.  On violation the arena stays MUTABLE, so a
  /// streaming producer can append the missing reports and re-seal (a
  /// duplicated origin, however, cannot be retracted — discard the arena).
  /// Hosted arenas surface map failures here as kIoError, also without
  /// freezing — the stream stays appendable and a later re-Seal retries.
  Status Seal(size_t num_users) {
    const Status status = ValidateOnePerUser(num_users);
    if (status.ok()) frozen_ = true;
    return status;
  }

  // ---- Read side -----------------------------------------------------------

  size_t num_reports() const {
    return hosted_ ? hosted_->num_reports() : origins_.size();
  }
  size_t total_payload_bytes() const {
    return hosted_ ? hosted_->total_bytes() : bytes_.size();
  }

  NodeId origin(ReportId r) const {
    BoundsCheck(r, "origin");
    if (hosted_) return Mapped("origin")->origins()[r];
    return origins_[r];
  }
  PayloadSpan payload(ReportId r) const {
    BoundsCheck(r, "payload");
    const uint32_t* offsets;
    const uint8_t* base;
    if (hosted_) {
      const PayloadStream* stream = Mapped("payload");
      offsets = stream->offsets();
      base = stream->bytes();
    } else {
      offsets = offsets_.data();
      base = bytes_.data();
    }
    const size_t size = offsets[r + 1] - offsets[r];
    return PayloadSpan(size == 0 ? nullptr : base + offsets[r], size);
  }
  size_t payload_size(ReportId r) const {
    BoundsCheck(r, "payload_size");
    const uint32_t* offsets =
        hosted_ ? Mapped("payload_size")->offsets() : offsets_.data();
    return offsets[r + 1] - offsets[r];
  }

  // ---- Typed decodes (size-checked, fatal on kind mismatch) ----------------

  double ScalarAt(ReportId r) const {
    const PayloadSpan s = Checked(r, sizeof(double), "ScalarAt");
    double value;
    // ns-lint: allow(wire): host-order typed-payload decode, the inverse of
    // AppendScalar — same process, same byte order by construction
    std::memcpy(&value, s.data(), sizeof(double));
    return value;
  }

  uint32_t BucketAt(ReportId r) const {
    const PayloadSpan s = Checked(r, sizeof(uint32_t), "BucketAt");
    uint32_t bucket;
    // ns-lint: allow(wire): host-order typed-payload decode, in-process only
    std::memcpy(&bucket, s.data(), sizeof(uint32_t));
    return bucket;
  }

  std::vector<double> VectorAt(ReportId r) const {
    const PayloadSpan s = payload(r);
    if (s.size() % sizeof(double) != 0) {
      NETSHUFFLE_FATAL("VectorAt(" + std::to_string(r) + "): payload is " +
                       std::to_string(s.size()) +
                       " bytes, not a whole number of doubles");
    }
    std::vector<double> v(s.size() / sizeof(double));
    // ns-lint: allow(wire): host-order typed-payload decode, in-process only
    std::memcpy(v.data(), s.data(), s.size());
    return v;
  }

  /// Heap footprint: 4 B origin + 4 B offset + payload bytes per report,
  /// allocated once and never touched by the per-round routing passes.
  /// Hosted arenas report only their stream buffers (~2 MB) — the column
  /// bytes are on disk, reported by DiskBytes().
  size_t MemoryBytes() const {
    if (hosted_) return hosted_->HeapBytes();
    return origins_.capacity() * sizeof(NodeId) +
           offsets_.capacity() * sizeof(uint32_t) + bytes_.capacity();
  }
  /// Backing-file footprint when hosted (0 for a heap arena).
  size_t DiskBytes() const { return hosted_ ? hosted_->DiskBytes() : 0; }

 private:
  /// Read-side access to a hosted arena maps lazily: a read between Append
  /// and Seal flushes + maps, and a later Append drops the mappings and
  /// keeps streaming.  A map failure on a read path has no recovering
  /// caller, so it is fatal (the typed surface is Seal / ValidateOnePerUser).
  const PayloadStream* Mapped(const char* op) const {
    const Status mapped = hosted_->EnsureMapped();
    if (!mapped.ok()) {
      NETSHUFFLE_FATAL(std::string("PayloadArena::") + op + ": " +
                       mapped.ToString());
    }
    return hosted_.get();
  }

  void RequireMutable(const char* op) const {
    if (frozen_) {
      NETSHUFFLE_FATAL(std::string("PayloadArena::") + op +
                       " after Freeze(): the arena is write-once; routed "
                       "ids must reference immutable rows");
    }
  }
  void BoundsCheck(ReportId r, const char* op) const {
    if (static_cast<size_t>(r) >= num_reports()) {
      NETSHUFFLE_FATAL(std::string("PayloadArena::") + op + "(" +
                       std::to_string(r) + "): arena holds " +
                       std::to_string(num_reports()) + " reports");
    }
  }
  PayloadSpan Checked(ReportId r, size_t expected, const char* op) const {
    const PayloadSpan s = payload(r);
    if (s.size() != expected) {
      NETSHUFFLE_FATAL(std::string("PayloadArena::") + op + "(" +
                       std::to_string(r) + "): payload is " +
                       std::to_string(s.size()) + " bytes, expected " +
                       std::to_string(expected));
    }
    return s;
  }

  std::vector<NodeId> origins_;    // origins_[r]: who injected report r
  std::vector<uint32_t> offsets_;  // num_reports() + 1 byte offsets
  std::vector<uint8_t> bytes_;     // one contiguous payload buffer
  /// Non-null iff file-backed: the three columns above as streamed files
  /// (the heap vectors stay empty).  Shared so the arena remains copyable.
  std::shared_ptr<PayloadStream> hosted_;
  bool frozen_ = false;
};

}  // namespace netshuffle

#endif  // NETSHUFFLE_SHUFFLE_PAYLOAD_H_
