#include "shuffle/payload.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

#include "util/parallel.h"

namespace netshuffle {

namespace {

// The owner-computes scan of the injection: every part reads the whole
// origins column and acts only on the reports whose origin falls in the
// slot range it owns.  It marks a block of 64 reports branch-free first,
// then visits the marked ones in order.  On ascending arrival a part skips
// whole blocks; on shuffled arrival it pays one unpredictable branch per
// block instead of one per report (a branch per report made a 4-part pass
// slower than one serial part).

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "MarkBlock reads eight flag bytes as one little-endian word");

// Bit i of the result, i < count <= 64, is set iff the part owning slots
// [lo, lo + span) must look at report i: origins[i] - lo < span (unsigned),
// or origins[i] >= n, an origin past the population.  The flags go to one
// byte each, in a loop the compiler vectorizes; then a multiply gathers
// each eight flag bytes into one byte of the mask (flag byte k times
// 0x0102040810204080 lands in bit 56 + k, and no two products overlap).
// A shift-or per report into the mask does not vectorize, and marked 5e5
// reports about 3x slower.
uint64_t MarkBlock(const NodeId* origins, uint32_t count, uint32_t lo,
                   uint32_t span, uint32_t n) {
  uint8_t look[64] = {};
  for (uint32_t i = 0; i < count; ++i) {
    const NodeId o = origins[i];
    look[i] = (o - lo < span) | (o >= n);
  }
  uint64_t marked = 0;
  for (uint32_t k = 0; k < 64; k += 8) {
    uint64_t flags = 0;
    // ns-lint: allow(wire): eight in-process flag bytes read as one word,
    // nothing serialized
    std::memcpy(&flags, look + k, sizeof(flags));
    marked |= (flags * 0x0102040810204080ull) >> 56 << k;
  }
  return marked;
}

// Calls visit(r) for every report r < n that MarkBlock marks, in ascending
// order, until a visit returns false.  Returns that r, or n.
template <typename Visit>
uint32_t ForEachMarked(const NodeId* origins, uint32_t n, uint32_t lo,
                       uint32_t span, Visit&& visit) {
  for (uint32_t base = 0; base < n; base += 64) {
    const uint32_t count = n - base < 64 ? n - base : 64;
    for (uint64_t marked = MarkBlock(origins + base, count, lo, span, n);
         marked != 0; marked &= marked - 1) {
      const uint32_t r = base + __builtin_ctzll(marked);
      if (!visit(r)) return r;
    }
  }
  return n;
}

}  // namespace

Status PayloadArena::InjectOnePerUser(size_t num_users, ReportId* slots,
                                      uint32_t* offsets) const {
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
  const uint32_t n = CheckedNarrow32(num_users, "report count");

  // One report per user makes injection a permutation: report r lands in
  // slot origin(r).  Part c owns slots [c * n / parts, (c + 1) * n / parts)
  // (the owner-computes pattern of Graph::FromEdges): it starts them at a
  // sentinel, then scans every report in order and claims the slots of the
  // ones it owns, so every slot has one writer and its contents do not
  // depend on the width.  A report finding its slot taken repeats an
  // origin; n reports in range with none repeated claim every slot once.
  // Each part stops at its first violation (every part stops at an origin
  // past the population), so the least of those is the first violation in
  // report order.  The parts' claims must add up to n: a partition that did
  // not tile the slots would otherwise leave a torn store behind a passing
  // check.
  constexpr ReportId kUnclaimed = ~ReportId{0};
  const size_t parts = ScanParts(n);
  std::vector<uint32_t> first(parts);
  std::vector<size_t> claims(parts);
  GlobalPool().RunChunks(parts, [&](size_t c) {
    // ns-lint: allow(narrow32): c * n / parts <= n, checked above.
    const uint32_t lo = static_cast<uint32_t>(c * n / parts);
    // ns-lint: allow(narrow32): the same bound.
    const uint32_t hi = static_cast<uint32_t>((c + 1) * n / parts);
    ReportId* const own = slots + lo;
    const uint32_t span = hi - lo;
    std::fill(own, own + span, kUnclaimed);
    if (offsets != nullptr) {
      for (uint32_t u = lo; u < hi; ++u) offsets[u] = u;
    }
    size_t claimed = 0;
    first[c] = ForEachMarked(origins, n, lo, span, [&](uint32_t r) {
      const uint32_t rel = origins[r] - lo;  // wraps past span for o < lo
      if (rel >= span || own[rel] != kUnclaimed) return false;
      own[rel] = r;
      ++claimed;
      return true;
    });
    claims[c] = claimed;
  });
  if (offsets != nullptr) offsets[n] = n;

  const uint32_t r = *std::min_element(first.begin(), first.end());
  if (r < n) {
    const NodeId o = origins[r];
    if (o >= n) {
      return Status::Error(
          StatusCode::kPayloadMismatch,
          "report " + std::to_string(r) + " has origin " + std::to_string(o) +
              " outside the " + std::to_string(n) + "-user population");
    }
    return Status::Error(
        StatusCode::kPayloadMismatch,
        "origin " + std::to_string(o) + " injects more than one report; "
            "the protocol (and its accounting) is one report per user");
  }
  size_t total = 0;
  for (const size_t k : claims) total += k;
  if (total != n) {
    NETSHUFFLE_FATAL("PayloadArena::InjectOnePerUser: " +
                     std::to_string(parts) + " parts claimed " +
                     std::to_string(total) + " slots for " +
                     std::to_string(n) + " reports");
  }
  return Status::Ok();
}

Status PayloadArena::ValidateOnePerUser(size_t num_users) const {
  // Uninitialized: the injection writes every slot before it reads one.
  const std::unique_ptr<ReportId[]> scratch(new ReportId[num_users]);
  return InjectOnePerUser(num_users, scratch.get(), nullptr);
}

}  // namespace netshuffle
