#include "shuffle/server.h"

#include <algorithm>
#include <utility>

#include "util/parallel.h"

namespace netshuffle {

void Server::ReceiveAll(std::vector<FinalReport> frs) {
  const size_t m = frs.size();
  const size_t words = seen_.size();
  // Each part marks the valid origins of its slice of the batch in a
  // private bitmap; then each part ORs every bitmap's words of its own word
  // range into seen_ and counts the bits that were not set before.  Those
  // are the origins whose first arrival a Receive loop would count, and the
  // invalid ones are counted per slice, so the counts equal that loop's at
  // any width.  A part's bitmap costs a word per 64 users, so the pool runs
  // only when the bitmaps are no larger than the batch.
  const size_t parts = ScanParts(m);
  if (parts == 1 || parts * words > m) {
    Observe(frs.data(), m);
  } else {
    marks_.resize(parts * words);
    uint64_t* const marks = marks_.data();
    uint64_t* const seen = seen_.data();
    const FinalReport* const reports = frs.data();
    std::vector<size_t> invalid(parts), fresh(parts);
    GlobalPool().RunChunks(parts, [&](size_t c) {
      uint64_t* const mine = marks + c * words;
      std::fill(mine, mine + words, 0);
      size_t bad = 0;
      const size_t end = (c + 1) * m / parts;
      for (size_t i = c * m / parts; i < end; ++i) {
        const size_t o = reports[i].origin;
        if (o >= expected_users_) {
          ++bad;
          continue;
        }
        mine[o / 64] |= uint64_t{1} << (o % 64);
      }
      invalid[c] = bad;
    });
    GlobalPool().RunChunks(parts, [&](size_t c) {
      size_t added = 0;
      const size_t end = (c + 1) * words / parts;
      for (size_t w = c * words / parts; w < end; ++w) {
        uint64_t merged = 0;
        for (size_t p = 0; p < parts; ++p) merged |= marks[p * words + w];
        added += static_cast<size_t>(__builtin_popcountll(merged & ~seen[w]));
        seen[w] |= merged;
      }
      fresh[c] = added;
    });
    for (size_t c = 0; c < parts; ++c) {
      distinct_origins_ += fresh[c];
      invalid_origin_count_ += invalid[c];
    }
  }

  if (inbox_.empty()) {
    inbox_ = std::move(frs);
  } else {
    inbox_.insert(inbox_.end(), frs.begin(), frs.end());
  }
}

}  // namespace netshuffle
