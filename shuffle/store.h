// Flat double-buffer-able routing storage for the exchange engine: one
// contiguous ReportId arena plus CSR-style per-user offsets (DESIGN.md §4c,
// §4d).  Since the index-routing refactor the store holds 4-byte report
// HANDLES only — a report's immutable origin and payload bytes live in the
// columnar PayloadArena (shuffle/payload.h), so a routing round moves 4
// bytes per report instead of a full report struct.
//
// Invariant: user u's holdings are the contiguous slice
// arena[offsets[u] .. offsets[u+1]), in the engine's canonical order
// (ascending sender of the previous round, then injection order).  Reports
// are conserved by the exchange, so the arena never grows: the engine keeps
// two same-sized stores and swaps them every round (double buffering)
// instead of reallocating.
//
// Storage seam (DESIGN.md §9): both columns are FlatColumn<T>, heap vectors
// by default.  Host() moves them onto a StorageBackend as two mmap'd files
// (ids + offsets), after which the engine drives round-granular
// madvise(WILLNEED/DONTNEED) through AdviseWillNeed/AdviseDontNeedAll — one
// WILLNEED per round over the source arena, one DONTNEED over the consumed
// buffer — so a file-backed exchange keeps a round's working set resident,
// not the population.  The accessors hand out the same raw pointers either
// way — the hop/scatter kernels cannot tell the difference.

#ifndef NETSHUFFLE_SHUFFLE_STORE_H_
#define NETSHUFFLE_SHUFFLE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "graph/graph.h"
#include "shuffle/backend.h"
#include "shuffle/protocol.h"

namespace netshuffle {

/// Read-only view of one user's contiguous holdings slice (report ids).
class ReportSpan {
 public:
  ReportSpan(const ReportId* begin, const ReportId* end)
      : begin_(begin), end_(end) {}

  const ReportId* begin() const { return begin_; }
  const ReportId* end() const { return end_; }
  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }
  ReportId operator[](size_t i) const { return begin_[i]; }

 private:
  const ReportId* begin_;
  const ReportId* end_;
};

class ReportStore {
 public:
  ReportStore() = default;

  /// Sizes the buffers without initializing contents — the double-buffer
  /// partner the engine scatters into before swapping.
  void AllocateFor(size_t users, size_t reports) {
    CheckedNarrow32(reports, "ReportStore report count");
    arena_.resize(reports);
    offsets_.resize(users + 1);
  }

  size_t num_users() const {
    return offsets_.size() == 0 ? 0 : offsets_.size() - 1;
  }
  /// Total reports across all users (== num_users() for a conserved
  /// exchange).
  size_t num_reports() const { return arena_.size(); }

  size_t count(NodeId u) const {
    BoundsCheck(u, "count");
    const uint32_t* offsets = offsets_.data();
    return offsets[u + 1] - offsets[u];
  }
  ReportSpan reports(NodeId u) const {
    BoundsCheck(u, "reports");
    const uint32_t* offsets = offsets_.data();
    return ReportSpan(arena_.data() + offsets[u],
                      arena_.data() + offsets[u + 1]);
  }

  /// Flat access for the routing pass and benches.  offsets_data() has
  /// num_users() + 1 entries; uint32 suffices because report counts are
  /// bounded by the NodeId population (guarded by CheckedNarrow32 above).
  const ReportId* arena_data() const { return arena_.data(); }
  const uint32_t* offsets_data() const { return offsets_.data(); }
  ReportId* mutable_arena() { return arena_.data(); }
  uint32_t* mutable_offsets() { return offsets_.data(); }

  /// O(1) buffer exchange — one round's double-buffer flip.  Hosting moves
  /// with the columns: after a swap between a hosted and a heap store, each
  /// has the other's backing.
  void SwapWith(ReportStore* other) {
    arena_.swap(other->arena_);
    offsets_.swap(other->offsets_);
  }

  /// Heap footprint of this buffer (the 10^6-node smoke test pins this to
  /// ~8 bytes/user; the engine's transient peak is two buffers plus its
  /// routing tables).  Hosted columns contribute ~0 here by design — their
  /// bytes live in the page cache, reported separately via FileBytes().
  size_t MemoryBytes() const {
    return arena_.HeapBytes() + offsets_.HeapBytes();
  }
  /// Backing-file footprint when hosted (0 for a heap store).
  size_t FileBytes() const {
    return arena_.FileBytes() + offsets_.FileBytes();
  }

  // ---- Storage backend seam (DESIGN.md §9) ---------------------------------

  bool hosted() const { return arena_.hosted(); }
  const std::shared_ptr<StorageBackend>& backend() const {
    return arena_.backend();
  }

  /// Moves both columns onto `backend` as "<stem>.ids" / "<stem>.off"
  /// files (contents preserved).  No-op if already hosted.
  void Host(const std::shared_ptr<StorageBackend>& backend,
            const char* stem) {
    if (hosted()) return;
    arena_.Host(backend, backend->NextPath(
                             (std::string(stem) + ".ids").c_str()));
    offsets_.Host(backend, backend->NextPath(
                               (std::string(stem) + ".off").c_str()));
  }

  /// Moves both columns back to the heap (contents preserved).
  void Unhost() {
    arena_.Unhost();
    offsets_.Unhost();
  }

  /// Prefaults the arena slice holding reports [first_report, end_report)
  /// ahead of a round's hop pass and records the touch in the backend's
  /// block accounting.  Heap stores: no-op.
  void AdviseWillNeed(size_t first_report, size_t end_report) const {
    if (end_report > first_report) {
      arena_.AdviseWillNeed(first_report, end_report - first_report);
    }
  }

  /// Drops this buffer's resident pages (called on the just-consumed source
  /// buffer after a round's swap — every byte of it is rewritten before it
  /// is read again).  Heap stores: no-op.
  void AdviseDontNeedAll() const {
    arena_.AdviseDontNeedAll();
    offsets_.AdviseDontNeedAll();
  }

 private:
  // An out-of-range NodeId would read a garbage slice (or past the offsets
  // column) and silently mis-route; fail loudly instead.  The check is one
  // compare — the engine's hot loops go through the flat *_data() accessors,
  // not these per-user conveniences.
  void BoundsCheck(NodeId u, const char* op) const {
    if (static_cast<size_t>(u) + 1 >= offsets_.size() ||
        offsets_.data() == nullptr) {
      NETSHUFFLE_FATAL(std::string("ReportStore::") + op + "(" +
                       std::to_string(u) + "): store has " +
                       std::to_string(num_users()) + " users");
    }
  }

  FlatColumn<ReportId> arena_;
  FlatColumn<uint32_t> offsets_;  // num_users() + 1 entries
};

}  // namespace netshuffle

#endif  // NETSHUFFLE_SHUFFLE_STORE_H_
