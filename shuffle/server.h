// The untrusted curator's view: collects final reports and exposes simple
// coverage statistics.
//
// Coverage is tracked incrementally on ingest — a persistent seen-origin
// bitmap updated per received report — so PayloadCoverage() is O(1) instead
// of re-scanning the inbox with a fresh O(n) bitmap per call.  ReceiveAll
// updates it on the pool above a size cutoff, with counts equal to a
// Receive loop's.  Reports whose origin lies outside the expected
// population are counted in invalid_origin_count() instead of silently
// vanishing from the statistics.
//
// A serving deployment (DESIGN.md §8) receives one inbox PER EPOCH:
// BeginEpoch() archives the finished epoch's counters into epochs_received()
// and resets the live inbox/coverage state, mirroring the session-side
// Session::BeginEpoch rollover.

#ifndef NETSHUFFLE_SHUFFLE_SERVER_H_
#define NETSHUFFLE_SHUFFLE_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "shuffle/protocol.h"

namespace netshuffle {

class Server {
 public:
  explicit Server(size_t expected_users)
      : expected_users_(expected_users), seen_(Words(expected_users), 0) {}

  /// Single-report ingestion; prefer ReceiveAll for whole inboxes.
  void Receive(FinalReport fr) {
    Observe(&fr, 1);
    inbox_.push_back(fr);
  }

  /// Batched ingestion of a finalized inbox: one coverage pass plus a single
  /// move/append, instead of n push_back calls.  The coverage pass runs on
  /// the pool when the batch is large enough; its distinct and invalid
  /// counts equal those of a Receive loop over the same reports, and a
  /// batch smaller than the population's bitmap takes that loop, so no
  /// batch pays a pass over the population.  Defined in shuffle/server.cc.
  void ReceiveAll(std::vector<FinalReport> frs);

  size_t num_received() const { return inbox_.size(); }
  const std::vector<FinalReport>& inbox() const { return inbox_; }

  /// Fraction of the expected user population whose report arrived
  /// (distinct valid origins / expected users).  O(1).
  double PayloadCoverage() const {
    if (expected_users_ == 0) return 0.0;
    return static_cast<double>(distinct_origins_) /
           static_cast<double>(expected_users_);
  }

  /// Distinct in-range origins received so far.
  size_t distinct_origins() const { return distinct_origins_; }

  /// Reports received with an origin outside [0, expected_users) —
  /// corrupted or misaddressed submissions, surfaced instead of ignored.
  size_t invalid_origin_count() const { return invalid_origin_count_; }

  /// Per-epoch summary archived by BeginEpoch().
  struct EpochStats {
    size_t received = 0;
    size_t distinct_origins = 0;
    size_t invalid_origins = 0;
    double coverage = 0.0;
  };

  /// Rolls the curator to the next serving epoch: archives the live
  /// counters into epochs_received() and clears the inbox and coverage
  /// bitmap (origins repeat across epochs by design — every user injects
  /// once per epoch).  Call after consuming the finished epoch's inbox.
  void BeginEpoch() {
    EpochStats stats;
    stats.received = inbox_.size();
    stats.distinct_origins = distinct_origins_;
    stats.invalid_origins = invalid_origin_count_;
    stats.coverage = PayloadCoverage();
    epochs_.push_back(stats);
    inbox_.clear();
    seen_.assign(Words(expected_users_), 0);
    distinct_origins_ = 0;
    invalid_origin_count_ = 0;
  }

  /// Archived summaries of every epoch closed by BeginEpoch(), oldest
  /// first.  The LIVE epoch's counters are the accessors above.
  const std::vector<EpochStats>& epochs_received() const { return epochs_; }

 private:
  static size_t Words(size_t users) { return (users + 63) / 64; }

  // Counts reports [0, count) as a Receive loop over them would.  The
  // counters stay in locals: they and the bitmap words share a type, so
  // member counters would be reloaded after every bitmap store.
  void Observe(const FinalReport* reports, size_t count) {
    uint64_t* const seen = seen_.data();
    size_t added = 0;
    size_t bad = 0;
    for (size_t i = 0; i < count; ++i) {
      const size_t o = reports[i].origin;
      if (o >= expected_users_) {
        ++bad;
        continue;
      }
      const uint64_t bit = uint64_t{1} << (o % 64);
      added += (seen[o / 64] & bit) == 0 ? 1 : 0;
      seen[o / 64] |= bit;
    }
    distinct_origins_ += added;
    invalid_origin_count_ += bad;
  }

  size_t expected_users_;
  // Bit o % 64 of word o / 64: origin o is already counted in
  // distinct_origins_.  Words, so ReceiveAll's parts can own disjoint ones.
  std::vector<uint64_t> seen_;
  // ReceiveAll's per-part bitmaps (parts x seen_.size() words), kept so
  // batches reuse their capacity.
  std::vector<uint64_t> marks_;
  size_t distinct_origins_ = 0;
  size_t invalid_origin_count_ = 0;
  std::vector<FinalReport> inbox_;
  std::vector<EpochStats> epochs_;
};

}  // namespace netshuffle

#endif  // NETSHUFFLE_SHUFFLE_SERVER_H_
